"""Known properties of definitions that the code fixes (README, "Choices the
code made").

- The Laguerre axis variable z = 12(t - c + 4)/a puts the interior kernels
  of inner projector 5 far out on the Laguerre axis, where L_0 ... L_k are
  nearly proportional: the interior block D of Lambda is then
  near-singular where the Hermite kernels (inner projector 3) give a
  well-conditioned one.
- cond2 is a property of the shape, its placement and its size: the
  position term and the edge test x . n use absolute coordinates, and the
  kernels scale by the hull area, so translating or scaling a polygon moves
  cond2.

The third choice, the classical misc stand-in, is pinned by
``tests/test_mirror.py``.
"""

from polydiv.catalog import catalog_polygon
from polydiv.elements import ElementConfig, assemble_transfer, condition_2norm, dof_set
from polydiv.geometry import build_polygon
from polydiv.hdiv_basis import HdivSpaceKind, SpaceTag, canonical_basis
from polydiv.poisson import triangulate
from polydiv.polyfam import PolyFamily

H_DIVISOR = 16


def _transfer(polygon, k, inner_projector=PolyFamily.HERMITE):
    spec = HdivSpaceKind(SpaceTag.CLASSICAL, k)
    basis = canonical_basis(polygon, spec, mesh=triangulate(polygon, polygon.diameter / H_DIVISOR))
    return assemble_transfer(dof_set(polygon, ElementConfig("IIb", spec, inner_projector=inner_projector)), basis)


def test_laguerre_interior_block_is_near_singular():
    # fig165 classical IIb, k = 2: measured 3.55e13 (Laguerre) and 7.83e3 (Hermite)
    p = catalog_polygon("fig165")
    laguerre = _transfer(p, 2, PolyFamily.LAGUERRE)
    hermite = _transfer(p, 2, PolyFamily.HERMITE)
    assert condition_2norm(laguerre.matrix[laguerre.internal_rows, laguerre.internal_rows]) > 1e12
    assert condition_2norm(hermite.matrix[hermite.internal_rows, hermite.internal_rows]) < 1e5


def test_cond2_depends_on_placement_and_size():
    # fig165 classical IIb, k = 1: measured 1.66e6 in place, 4.9e6 moved by
    # (2, 2), 5.95e7 at half size and 5.09e4 at twice the size
    vertices = catalog_polygon("fig165").vertex_array()
    cond2 = {
        name: _transfer(build_polygon(v), 1).cond2
        for name, v in [("in place", vertices), ("moved", vertices + [2.0, 2.0]), ("half", 0.5 * vertices), ("double", 2.0 * vertices)]
    }
    assert cond2["moved"] > 2.0 * cond2["in place"]
    assert cond2["half"] > 10.0 * cond2["in place"]
    assert cond2["double"] < 0.1 * cond2["in place"]
