"""Mirror metamorphic test: a polygon and its reflection across y = x.

The mirror of a polygon takes its vertices reflected across y = x, in
reverse order, so that the loop stays counter-clockwise.  Its mesh is built
node for node from the original's: node i of the mirror is node i of the
original with x and y swapped, each triangle's vertices are reordered as
[0, 2, 1] to keep them counter-clockwise, and the boundary tags follow the
reflection: edge j becomes edge (n - 2 - j) mod n, corner j becomes corner
n - 1 - j, and arc parameter s on edge j becomes L_j - s.

The reduced space with the default projectors and v = (1, 1) maps onto
itself under the reflection, so Lambda of the mirror is Lambda of the
original up to the order and signs of its rows and columns: the singular
values agree to rounding.  The classical space does not, because its misc
functions use f_{i,max(k-1,0)} as a stand-in for f_{i,k+1} (README,
"Choices the code made"); that asymmetry is pinned as a known property.
"""

import functools

import numpy as np
import pytest

from polydiv.catalog import catalog_polygon
from polydiv.elements import ElementConfig, assemble_transfer, dof_set
from polydiv.geometry import build_polygon
from polydiv.hdiv_basis import HdivSpaceKind, SpaceTag, canonical_basis
from polydiv.poisson import TriMesh, triangulate

SHAPES = ("fig151", "fig165", "fig167")
H_DIVISOR = 16


def mirrored(mesh: TriMesh) -> TriMesh:
    """The mesh of the polygon reflected across y = x, node for node."""
    p = mesh.polygon
    n = p.n_edges
    lengths = np.array([e.length for e in p.edges])
    on_edge = mesh.node_edge >= 0
    return TriMesh(
        polygon=build_polygon(p.vertex_array()[::-1, ::-1]),
        nodes=mesh.nodes[:, ::-1].copy(),
        triangles=mesh.triangles[:, [0, 2, 1]],
        node_edge=np.where(on_edge, (n - 2 - mesh.node_edge) % n, -1),
        node_corner=np.where(mesh.node_corner >= 0, n - 1 - mesh.node_corner, -1),
        node_arc=np.where(on_edge, lengths[mesh.node_edge] - mesh.node_arc, mesh.node_arc),
        boundary_segments=mesh.boundary_segments[:, ::-1].copy(),
        segment_edge=(n - 2 - mesh.segment_edge) % n,
        segment_arc=lengths[mesh.segment_edge][:, None] - mesh.segment_arc[:, ::-1],
        h=mesh.h,
    )


@functools.cache
def _meshes(shape):
    p = catalog_polygon(shape)
    mesh = triangulate(p, p.diameter / H_DIVISOR)
    return mesh, mirrored(mesh)


@functools.cache
def _basis(shape, tag, k, mirror):
    mesh = _meshes(shape)[mirror]
    return canonical_basis(mesh.polygon, HdivSpaceKind(tag, k), mesh=mesh)


def _transfer(shape, tag, k, config, mirror):
    basis = _basis(shape, tag, k, mirror)
    return assemble_transfer(dof_set(basis.polygon, ElementConfig(config, basis.spec)), basis)


@pytest.mark.parametrize("shape", SHAPES)
def test_mirror_mesh_is_a_mesh_of_the_mirror(shape):
    mesh, mirror = _meshes(shape)
    p, q = mesh.polygon, mirror.polygon
    n = p.n_edges
    assert np.array_equal(q.vertex_array(), p.vertex_array()[::-1, ::-1])
    # every tagged boundary node lies on its edge at its arc parameter
    i = np.flatnonzero(mirror.node_edge >= 0)
    for node in i:
        e = q.edges[mirror.node_edge[node]]
        assert np.allclose(e.point_at(np.array([mirror.node_arc[node]]))[0], mirror.nodes[node], atol=1e-12)
    corners = np.flatnonzero(mirror.node_corner >= 0)
    assert np.array_equal(mirror.nodes[corners], q.vertex_array()[mirror.node_corner[corners]])
    # counter-clockwise triangles that cover the area, and a P2 space on them
    det, _ = mirror.jacobians()
    assert np.all(det > 0)
    assert np.sum(det) / 2 == pytest.approx(q.area, rel=1e-12)
    assert mirror.fe_space(2).n_dof == mesh.fe_space(2).n_dof
    for j, e in enumerate(p.edges):
        assert q.edges[(n - 2 - j) % n].length == pytest.approx(e.length, rel=1e-15)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("config", ["IIa", "IIb"])
def test_reduced_transfer_is_mirror_invariant(shape, k, config):
    T = _transfer(shape, SpaceTag.REDUCED_LAGRANGE_BC, k, config, False)
    M = _transfer(shape, SpaceTag.REDUCED_LAGRANGE_BC, k, config, True)
    sv, sv_mirror = T.singular_values, M.singular_values
    assert np.max(np.abs(sv - sv_mirror)) <= 1e-14 * sv[0]
    assert M.cond2 == pytest.approx(T.cond2, rel=1e-10)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("config", ["IIa", "IIb"])
def test_classical_transfer_is_not_mirror_invariant(shape, config):
    # a known property of the classical misc stand-in f_{i,max(k-1,0)}:
    # measured 1.1e-3 to 1.8e-2 of sigma_max
    T = _transfer(shape, SpaceTag.CLASSICAL, 1, config, False)
    M = _transfer(shape, SpaceTag.CLASSICAL, 1, config, True)
    sv, sv_mirror = T.singular_values, M.singular_values
    assert np.max(np.abs(sv - sv_mirror)) > 1e-4 * sv[0]
