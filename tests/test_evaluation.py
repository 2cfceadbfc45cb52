"""Block evaluation against the one-point reference.

``ScalarField.value_and_grad`` on arrays of points is compared with a copy
of the grid locator and the single-point evaluation it replaced; ``_locate``
with a copy of the all-triangles broadcast it replaced; a stack of
coefficient rows is compared with the same rows evaluated one at a time.
"""

import math

import numpy as np
import pytest

from polydiv.catalog import catalog_polygon
from polydiv.elements import ElementConfig, assemble_transfer, dof_set, tune_basis
from polydiv.hdiv_basis import HdivSpaceKind, SpaceTag, VectorField, canonical_basis
from polydiv.poisson import BoundaryData, _locate, _p2_grad, _p2_shape, solve_poisson_many, triangulate
from polydiv.quadrature import triangle_rule


class GridLocator:
    """The previous point locator: a dict of triangle lists per grid cell,
    searched in the 3 x 3 cells around the point."""

    def __init__(self, mesh):
        self.mesh = mesh
        self.tv = mesh.triangle_vertices()
        lo = self.tv.min(axis=1)
        hi = self.tv.max(axis=1)
        self.cell = max(mesh.h, 1e-12)
        self.origin = mesh.nodes.min(axis=0)
        self.grid = {}
        for m in range(mesh.n_triangles):
            i0, j0 = np.floor((lo[m] - self.origin) / self.cell).astype(int)
            i1, j1 = np.floor((hi[m] - self.origin) / self.cell).astype(int)
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    self.grid.setdefault((i, j), []).append(m)

    def locate(self, x, y):
        """(triangle, xi, eta, margin), or None outside the mesh."""
        i = int(math.floor((x - self.origin[0]) / self.cell))
        j = int(math.floor((y - self.origin[1]) / self.cell))
        _, inv_t = self.mesh.jacobians()
        tv = self.tv
        best = None
        for di in (0, -1, 1):
            for dj in (0, -1, 1):
                for m in self.grid.get((i + di, j + dj), ()):
                    rx = x - tv[m, 0, 0]
                    ry = y - tv[m, 0, 1]
                    xi = inv_t[m, 0, 0] * rx + inv_t[m, 1, 0] * ry
                    eta = inv_t[m, 0, 1] * rx + inv_t[m, 1, 1] * ry
                    margin = min(xi, eta, 1.0 - xi - eta)
                    if best is None or margin > best[3]:
                        best = (m, xi, eta, margin)
        if best is None or best[3] < -1e-9:
            return None
        m, xi, eta, margin = best
        xi = min(max(xi, 0.0), 1.0)
        eta = min(max(eta, 0.0), 1.0 - xi)
        return m, xi, eta, margin

    def value_and_grad(self, u, x, y):
        """(triangle, margin, value, gradient), or None outside the mesh."""
        found = self.locate(x, y)
        if found is None:
            return None
        m, xi, eta, margin = found
        coef = u.coefficients[u.bank.space.conn[m]]
        N = _p2_shape(np.array(xi), np.array(eta))
        dref = _p2_grad(np.array(xi), np.array(eta))
        _, inv_t = self.mesh.jacobians()
        return m, margin, float(N @ coef), inv_t[m] @ (dref @ coef)


def broadcast_locate(mesh, x, y):
    """The previous ``_locate``: every point against every triangle, the
    largest smallest barycentric coordinate by ``np.argmax``."""
    _, inv_t = mesh.jacobians()
    origin = mesh.nodes[mesh.triangles[:, 0]]
    rx = x[:, None] - origin[:, 0]
    ry = y[:, None] - origin[:, 1]
    a = inv_t[:, 0, 0] * rx + inv_t[:, 1, 0] * ry
    b = inv_t[:, 0, 1] * rx + inv_t[:, 1, 1] * ry
    c = np.minimum(np.minimum(a, b), 1.0 - a - b)
    m = np.argmax(c, axis=1)
    pick = (np.arange(len(m)), m)
    xi, eta, margin = a[pick], b[pick], c[pick]
    m[margin < -1e-9] = -1
    xi = np.minimum(np.maximum(xi, 0.0), 1.0)
    eta = np.minimum(np.maximum(eta, 0.0), 1.0 - xi)
    ties = np.count_nonzero((c == margin[:, None]).sum(axis=1)[m >= 0] > 1)
    return m, xi, eta, ties


def _points(polygon, mesh, rng):
    """2000 points: mesh nodes, points on mesh edges and on the polygon
    boundary, points 1e-12 and 1e-7 off the boundary, and points scattered
    over a box around the polygon (some of them outside)."""
    nodes = mesh.nodes[rng.choice(mesh.n_nodes, 300)]
    tv = mesh.triangle_vertices()[rng.choice(mesh.n_triangles, 300)]
    t = rng.uniform(size=(300, 1))
    on_mesh_edges = t * tv[:, 0] + (1 - t) * tv[:, 1]
    edges = [polygon.edges[i] for i in rng.integers(polygon.n_edges, size=500)]
    on_boundary = np.array([e.point_at(rng.uniform(0.0, e.length)) for e in edges])
    offset = np.where(np.arange(500) % 2, 1e-12, 1e-7) * np.where(np.arange(500) % 4 < 2, 1.0, -1.0)
    normals = np.array([e.normal for e in edges])
    off_boundary = on_boundary[300:] + offset[300:, None] * normals[300:]
    verts = polygon.vertex_array()
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    pad = 0.2 * (hi - lo)
    scattered = rng.uniform(lo - pad, hi + pad, size=(900, 2))
    pts = np.vstack([nodes, on_mesh_edges, on_boundary[:300], off_boundary, scattered])
    assert len(pts) == 2000
    return pts


@pytest.mark.parametrize("shape", ["fig165", "fig167"])
def test_array_evaluation_matches_grid_locator(shape):
    p = catalog_polygon(shape)
    mesh = triangulate(p, p.diameter / 16)
    u = solve_poisson_many(mesh, [(lambda x, y: 1.0 + x * y, BoundaryData.indicator(p, 0, 2.0))])[0]
    pts = _points(p, mesh, np.random.default_rng(7))
    ref = GridLocator(mesh)
    outside = np.zeros(len(pts), dtype=bool)
    m_old = np.full(len(pts), -1)
    margin = np.full(len(pts), -np.inf)
    v_old = np.full(len(pts), np.nan)
    g_old = np.full((len(pts), 2), np.nan)
    for i, (x, y) in enumerate(pts):
        found = ref.value_and_grad(u, float(x), float(y))
        if found is None:
            outside[i] = True
        else:
            m_old[i], margin[i], v_old[i], g_old[i] = found
    assert 0 < outside.sum() < len(pts) // 2

    m_new, _, _ = _locate(mesh, pts[:, 0], pts[:, 1])
    v_new, g_new = u.value_and_grad(pts[:, 0], pts[:, 1])
    assert v_new.shape == (len(pts),) and g_new.shape == (len(pts), 2)
    assert np.array_equal(np.isnan(v_new), outside)
    assert np.array_equal(m_new < 0, outside)
    clear = margin > 1e-12
    assert clear.sum() > 250
    assert np.array_equal(m_new[clear], m_old[clear])
    assert np.array_equal(v_new[clear], v_old[clear])
    assert np.allclose(g_new[clear], g_old[clear], rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(v_new[~outside] - v_old[~outside])) <= 1e-12

    # one point at a time gives the same value, or NaN
    for i in range(0, len(pts), 50):
        v, g = u.value_and_grad(pts[i : i + 1, 0], pts[i : i + 1, 1])
        assert v.shape == (1,) and g.shape == (1, 2)
        if outside[i]:
            assert np.isnan(v[0]) and np.isnan(g[0]).all()
        else:
            assert v[0] == v_new[i] and np.array_equal(g[0], g_new[i])


@pytest.mark.parametrize("shape", ["fig165", "fig167"])
def test_locate_matches_broadcast(shape):
    p = catalog_polygon(shape)
    mesh = triangulate(p, p.diameter / 16)
    # the 2000 points, every mesh node and the midpoint of every local edge
    # (an interior edge is shared by two triangles, so the tie rule decides)
    tv = mesh.triangle_vertices()
    pts = np.vstack([_points(p, mesh, np.random.default_rng(7)), mesh.nodes, 0.5 * (tv + np.roll(tv, -1, axis=1)).reshape(-1, 2)])
    m_old, xi_old, eta_old, ties = broadcast_locate(mesh, pts[:, 0], pts[:, 1])
    assert ties > 100 and 0 < np.count_nonzero(m_old < 0) < len(pts) // 2
    m, xi, eta = _locate(mesh, pts[:, 0], pts[:, 1])
    assert np.array_equal(m, m_old)
    assert np.array_equal(xi[m >= 0], xi_old[m >= 0]) and np.array_equal(eta[m >= 0], eta_old[m >= 0])


def test_stacked_rows_match_rows_one_at_a_time():
    p = catalog_polygon("fig165")
    basis = canonical_basis(p, HdivSpaceKind(SpaceTag.CLASSICAL, 1), h=p.diameter / 32)
    T = assemble_transfer(dof_set(p, ElementConfig("IIb", basis.spec)), basis)
    rows = tune_basis(T, basis).A @ basis.coefficients
    stack = VectorField(basis.bank, rows)
    singles = [VectorField(basis.bank, row) for row in rows]
    rule = triangle_rule(2)
    qx, qy = stack.values_at_rule(rule)
    assert np.array_equal(qx, np.array([f.values_at_rule(rule)[0] for f in singles]))
    assert np.array_equal(qy, np.array([f.values_at_rule(rule)[1] for f in singles]))
    for e in p.edges:
        s = np.linspace(0.0, e.length, 33)
        expect = np.array([f.normal_trace_on(e, s) for f in singles])
        assert np.array_equal(stack.normal_trace_on(e, s), expect)
