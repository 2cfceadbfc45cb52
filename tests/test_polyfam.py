import numpy as np
import pytest

from polydiv.catalog import catalog_polygon
from polydiv.geometry import Point2
from polydiv.polyfam import (
    InvalidSpec,
    PolyFamily,
    SpaceFamily,
    SpaceSpec,
    boundary_projector,
    chebyshev_t,
    gauss_legendre_nodes,
    hermite_h,
    inner_poly,
    internal_count,
    lagrange_set,
    laguerre_l,
    legendre_p,
    space_dimension,
)

RNG = np.random.default_rng(7)


# coefficient-expansion oracles built directly from the three-term recurrences
def _recurrence_table(name, nmax, z):
    rows = [np.ones_like(z)]
    if name == "chebyshev":
        rows.append(z)
        step = lambda n: 2 * z * rows[n] - rows[n - 1]
    elif name == "legendre":
        rows.append(z)
        step = lambda n: ((2 * n + 1) * z * rows[n] - n * rows[n - 1]) / (n + 1)
    elif name == "hermite":
        rows.append(2 * z)
        step = lambda n: 2 * z * rows[n] - 2 * n * rows[n - 1]
    else:
        rows.append(1 - z)
        step = lambda n: ((2 * n + 1 - z) * rows[n] - n * rows[n - 1]) / (n + 1)
    for n in range(1, nmax):
        rows.append(step(n))
    return rows


@pytest.mark.parametrize(
    "fam,name",
    [
        (chebyshev_t, "chebyshev"),
        (legendre_p, "legendre"),
        (hermite_h, "hermite"),
        (laguerre_l, "laguerre"),
    ],
)
def test_orthopoly_recurrence_oracle(fam, name):
    z = RNG.uniform(-2.0, 2.0, 100)
    table = _recurrence_table(name, 6, z)
    for n in range(7):
        got = fam(n, z)
        ref = table[n]
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(got - ref) / scale) < 1e-10


def test_known_values():
    assert hermite_h(2, 2.0) == pytest.approx(14.0)  # 4*4 - 2
    assert legendre_p(2, 1.0) == pytest.approx(1.0)
    assert chebyshev_t(3, 0.5) == pytest.approx(4 * 0.125 - 3 * 0.5)
    assert laguerre_l(2, 1.0) == pytest.approx(0.5 * (1 - 4 + 2))


class TestBoundaryProjector:
    def setup_method(self):
        self.e = catalog_polygon("fig151").edges[0]
        self.L = self.e.length

    def test_centered_scaled_midpoint(self):
        assert boundary_projector(
            PolyFamily.CANONICAL_CENTERED_SCALED, 1, self.L / 2, self.L
        ) == pytest.approx(0.0)

    def test_legendre_endpoint(self):
        assert boundary_projector(PolyFamily.LEGENDRE, 2, self.L, self.L) == pytest.approx(1.0)

    def test_hermite_endpoint(self):
        # z = 4 s / L - 2 = 2 at s = L; H2(2) = 14
        assert boundary_projector(PolyFamily.HERMITE, 2, self.L, self.L) == pytest.approx(14.0)

    def test_all_formulas_against_direct(self):
        # each family's expression as first written, operation for operation:
        # the table must reproduce its bits, not only its values
        s = np.concatenate([[0.0, self.L / 2, self.L], RNG.uniform(0.0, self.L, 40)])
        L = self.L
        direct = {
            PolyFamily.CANONICAL_CENTERED_SCALED: lambda i: (2.0 * s / L - 1.0) ** i,
            PolyFamily.CHEBYSHEV: lambda i: chebyshev_t(i, 2.0 * s / L - 1.0),
            PolyFamily.HERMITE: lambda i: hermite_h(i, 4.0 * s / L - 2.0),
            PolyFamily.LEGENDRE: lambda i: legendre_p(i, 2.0 * s / L - 1.0),
            PolyFamily.LAGUERRE: lambda i: laguerre_l(i, 12.0 * s / L - 2.0),
            PolyFamily.CANONICAL_CENTERED_UNSCALED: lambda i: (s - L / 2.0) ** i,
            PolyFamily.CANONICAL_UNSCALED: lambda i: s ** i,
        }
        assert set(direct) == set(PolyFamily)
        for kind, fn in direct.items():
            for i in range(5):
                assert np.array_equal(boundary_projector(kind, i, s, L), fn(i)), (kind, i)

    def test_codes_cover_1_to_7(self):
        assert sorted(k.value for k in PolyFamily) == list(range(1, 8))


class TestInnerPoly:
    def setup_method(self):
        p = catalog_polygon("fig165")
        self.hull = (p.hull_barycenter, p.hull_area)

    def test_degree_zero_is_one(self):
        for kind in PolyFamily:
            assert inner_poly(kind, 0, 0, 0.1, 0.2, self.hull) == pytest.approx(1.0)

    def test_centered_unscaled_vanishes_at_barycenter(self):
        b = self.hull[0]
        assert inner_poly(
            PolyFamily.CANONICAL_CENTERED_UNSCALED, 1, 0, b.x, b.y, self.hull
        ) == pytest.approx(0.0)

    def test_raw_monomial_oracle(self):
        assert inner_poly(PolyFamily.CANONICAL_UNSCALED, 2, 1, 0.5, 0.4, self.hull) == pytest.approx(0.1)

    def test_all_formulas_against_direct(self):
        bary, area = self.hull
        bx, by = bary.x, bary.y
        x = bx + RNG.uniform(-1.0, 1.0, 40)
        y = by + RNG.uniform(-1.0, 1.0, 40)
        direct = {
            PolyFamily.CANONICAL_CENTERED_SCALED: lambda i, j: (2.0 * (x - bx) / area) ** i
            * (2.0 * (y - by) / area) ** j,
            PolyFamily.CHEBYSHEV: lambda i, j: chebyshev_t(i, 2.0 * (x - bx) / area)
            * chebyshev_t(j, 2.0 * (y - by) / area),
            PolyFamily.HERMITE: lambda i, j: hermite_h(i, 4.0 * (x - bx) / area) * hermite_h(j, 4.0 * (y - by) / area),
            PolyFamily.LEGENDRE: lambda i, j: legendre_p(i, 2.0 * (x - bx) / area)
            * legendre_p(j, 2.0 * (y - by) / area),
            PolyFamily.LAGUERRE: lambda i, j: laguerre_l(i, 12.0 * (x - bx + 4.0) / area)
            * laguerre_l(j, 12.0 * (y - by + 4.0) / area),
            PolyFamily.CANONICAL_CENTERED_UNSCALED: lambda i, j: (x - bx) ** i * (y - by) ** j,
            PolyFamily.CANONICAL_UNSCALED: lambda i, j: x ** i * y ** j,
        }
        assert set(direct) == set(PolyFamily)
        for kind, fn in direct.items():
            for i in range(5):
                for j in range(5):
                    assert np.array_equal(inner_poly(kind, i, j, x, y, self.hull), fn(i, j)), (kind, i, j)

    def test_tensor_structure(self):
        bary, area = self.hull
        x, y = 0.21, 0.07
        got = inner_poly(PolyFamily.HERMITE, 2, 3, x, y, self.hull)
        ref = hermite_h(2, 4 * (x - bary.x) / area) * hermite_h(3, 4 * (y - bary.y) / area)
        assert got == pytest.approx(ref)
        got = inner_poly(PolyFamily.LAGUERRE, 1, 2, x, y, self.hull)
        ref = laguerre_l(1, 12 * (x - bary.x + 4) / area) * laguerre_l(2, 12 * (y - bary.y + 4) / area)
        assert got == pytest.approx(ref)


class TestLagrangeSet:
    def test_k0_single_midpoint(self):
        e = catalog_polygon("fig151").edges[0]
        ls = lagrange_set(e, 0)
        assert ls.nodes == (pytest.approx(e.length / 2),)
        s = np.linspace(0, e.length, 7)
        assert np.allclose(ls.eval(0, s), 1.0)

    def test_k1_gauss_nodes(self):
        e = catalog_polygon("fig151").edges[0]
        L = e.length
        ls = lagrange_set(e, 1)
        assert ls.nodes[0] == pytest.approx(L * (1 - 1 / np.sqrt(3)) / 2)
        assert ls.nodes[1] == pytest.approx(L * (1 + 1 / np.sqrt(3)) / 2)
        assert ls.eval(1, ls.nodes[1]) == pytest.approx(1.0)
        assert abs(ls.eval(1, ls.nodes[0])) < 1e-12

    def test_product_formula_oracle_at_zero(self):
        e = catalog_polygon("fig151").edges[1]
        ls = lagrange_set(e, 2)
        expect = 1.0
        for l, sl in enumerate(ls.nodes):
            if l == 2:
                continue
            expect *= (0.0 - sl) / (ls.nodes[2] - sl)
        assert ls.eval(2, 0.0) == pytest.approx(expect)

    @pytest.mark.parametrize("k", range(6))
    def test_delta_and_partition_of_unity(self, k):
        e = catalog_polygon("fig165").edges[3]
        ls = lagrange_set(e, k)
        vals = np.stack([ls.eval(m, np.array(ls.nodes)) for m in range(k + 1)])
        assert np.max(np.abs(vals - np.eye(k + 1))) < 1e-12
        s = RNG.uniform(0, e.length, 30)
        assert np.max(np.abs(np.stack([ls.eval(m, s) for m in range(k + 1)]).sum(axis=0) - 1.0)) < 1e-11

    def test_nodes_strictly_inside_and_sorted(self):
        e = catalog_polygon("fig167").edges[5]
        for k in range(5):
            nodes = lagrange_set(e, k).nodes
            assert all(0 < s < e.length for s in nodes)
            assert list(nodes) == sorted(nodes)


class TestSpaceDimension:
    def test_simplicial_rt_table(self):
        # dimension table rows for d = 2, 3, 4 and k = 0..3
        table = {
            2: [3, 8, 15, 24],
            3: [4, 15, 36, 70],
            4: [5, 24, 70, 160],
        }
        for d, dims in table.items():
            for k, dim in enumerate(dims):
                assert space_dimension(SpaceSpec(SpaceFamily.RT_TRI, k=k, d=d)) == dim

    def test_quad_rt_table(self):
        table = {
            2: [4, 12, 24, 40],
            3: [6, 36, 108, 240],
            4: [8, 96, 432, 1280],
        }
        for d, dims in table.items():
            for k, dim in enumerate(dims):
                assert space_dimension(SpaceSpec(SpaceFamily.RT_QUAD, k=k, d=d)) == dim

    def test_pk_qk(self):
        assert space_dimension(SpaceSpec(SpaceFamily.PK_SIMPLEX, k=3, d=2)) == 10
        assert space_dimension(SpaceSpec(SpaceFamily.QK, k=3, d=2)) == 16
        assert space_dimension(SpaceSpec(SpaceFamily.PK1K2, orders=(2, 1))) == 6

    def test_boundary_spaces(self):
        assert space_dimension(SpaceSpec(SpaceFamily.RK_BOUNDARY, k=2, d=2, n=5)) == 15
        assert space_dimension(SpaceSpec(SpaceFamily.TK_BOUNDARY, k=2, d=2, n=5)) == 15

    def test_hk_general_worked_values(self):
        assert (
            space_dimension(SpaceSpec(SpaceFamily.HK_GENERAL, d=2, n=6, l1=0, l2=1, m1=0, m2=0))
            == 27
        )
        assert (
            space_dimension(SpaceSpec(SpaceFamily.HK_GENERAL, d=2, n=6, l1=0, l2=0, m1=-1, m2=-1))
            == 18
        )

    def test_hk_general_adaptivity_in_n(self):
        d = 2
        for l1 in (-1, 0):
            for l2 in (0, 1, 3):
                inc = d * (l1 + 1) ** (d - 1) + (l2 + 1) ** (d - 1)
                for n in range(3, 9):
                    a = space_dimension(SpaceSpec(SpaceFamily.HK_GENERAL, d=d, n=n, l1=l1, l2=l2, m1=1, m2=1))
                    b = space_dimension(SpaceSpec(SpaceFamily.HK_GENERAL, d=d, n=n + 1, l1=l1, l2=l2, m1=1, m2=1))
                    assert b - a == inc

    def test_hk_classical_and_reduced(self):
        for n in range(3, 13):
            for k in range(4):
                classical = space_dimension(SpaceSpec(SpaceFamily.HK_CLASSICAL, k=k, n=n))
                reduced = space_dimension(SpaceSpec(SpaceFamily.HK_REDUCED, k=k, n=n))
                internal = 2 * k * (k + 1) - 1 if k > 0 else 0
                assert classical == n * (k + 3) + internal
                assert reduced == n * (k + 1) + internal
                assert internal == internal_count(k)
                # enumeration identity (k-1) + k + k^2 + k^2
                if k > 0:
                    assert internal == (k - 1) + k + k * k + k * k

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            space_dimension(SpaceSpec(SpaceFamily.HK_GENERAL, d=2, n=6, l1=1, l2=1, m1=0, m2=0))
        with pytest.raises(InvalidSpec):
            space_dimension(SpaceSpec(SpaceFamily.HK_GENERAL, d=2, n=6, l1=0, l2=-2, m1=0, m2=0))


@pytest.mark.parametrize(
    "call, fault",
    [
        (lambda: boundary_projector(PolyFamily.HERMITE, -1, 0.5, 1.0), "projector degree must be non-negative"),
        (lambda: boundary_projector(PolyFamily.HERMITE, 1, 0.5, 0.0), "edge length must be positive"),
        (lambda: inner_poly(PolyFamily.HERMITE, 0, -1, 0.0, 0.0, (Point2(0.0, 0.0), 1.0)), "degrees must be non-negative"),
        (lambda: inner_poly(PolyFamily.HERMITE, 1, 1, 0.0, 0.0, (Point2(0.0, 0.0), 0.0)), "hull area must be positive"),
        (lambda: gauss_legendre_nodes(0), "need at least one quadrature point"),
        (lambda: lagrange_set(catalog_polygon("fig151").edges[0], -1), "order must be non-negative"),
    ],
    ids=["projector-degree", "edge-length", "inner-degree", "hull-area", "gauss-points", "lagrange-order"],
)
def test_invalid_arguments(call, fault):
    with pytest.raises(InvalidSpec, match=fault):
        call()
