import numpy as np
import pytest

from polydiv.catalog import catalog_polygon
from polydiv.geometry import build_polygon
from polydiv.poisson import triangulate
from polydiv.polyfam import gauss_legendre_nodes, lagrange_set
from polydiv.quadrature import edge_rule_points, polygon_integral, triangle_rule

RNG = np.random.default_rng(11)


class TestGaussLegendre:
    def test_one_point(self):
        nodes, weights = gauss_legendre_nodes(1)
        assert nodes[0] == pytest.approx(0.0)
        assert weights[0] == pytest.approx(2.0)

    def test_two_points(self):
        nodes, weights = gauss_legendre_nodes(2)
        assert np.allclose(nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert np.allclose(weights, [1.0, 1.0])

    def test_three_points_quartic(self):
        # analytic antiderivative: int_{-1}^1 z^4 dz = 2/5
        nodes, weights = gauss_legendre_nodes(3)
        assert np.dot(weights, nodes ** 4) == pytest.approx(2.0 / 5.0)

    @pytest.mark.parametrize("npts", range(1, 8))
    def test_weights_sum_and_symmetry(self, npts):
        nodes, weights = gauss_legendre_nodes(npts)
        assert np.sum(weights) == pytest.approx(2.0)
        assert np.allclose(np.sort(nodes), -np.sort(-nodes)[::-1])


def _integrate_on_edge(f, e, npoints):
    """The mapped Gauss rule of ``edge_rule_points`` applied to ``f(s)``."""
    s, w = edge_rule_points(e, npoints)
    return float(np.dot(w, f(s)))


class TestEdgeIntegral:
    def setup_method(self):
        self.e = catalog_polygon("fig151").edges[0]

    def test_measure(self):
        assert _integrate_on_edge(lambda s: np.ones_like(s), self.e, 2) == pytest.approx(self.e.length)

    def test_linear_on_length_two_edge(self):
        p = build_polygon([(0, 0), (2, 0), (1, 2)])
        e = p.edges[0]
        assert e.length == pytest.approx(2.0)
        assert _integrate_on_edge(lambda s: s, e, 2) == pytest.approx(2.0)

    @pytest.mark.parametrize("deg", range(10))
    def test_exactness_against_antiderivative(self, deg):
        # int_0^L s^deg ds = L^(deg+1) / (deg+1), rule with p+1 points exact
        # for degree 2p+1
        L = self.e.length
        npts = deg // 2 + 1
        got = _integrate_on_edge(lambda s: s ** deg, self.e, npts)
        assert got == pytest.approx(L ** (deg + 1) / (deg + 1), rel=1e-12)

    def test_lagrange_moment_reduces_to_weighted_node_value(self):
        # a Lagrange trace integrated against s^r picks up its own node:
        # int l_m(s) s^r ds = w_m s_m^r when the rule nodes generate the set
        e = self.e
        for k in range(4):
            ls = lagrange_set(e, k)
            s_nodes, w_nodes = edge_rule_points(e, k + 1)
            assert np.allclose(s_nodes, ls.nodes)
            for m in range(k + 1):
                for r in range(k + 1):
                    got = _integrate_on_edge(lambda s: ls.eval(m, s) * s ** r, e, k + 2)
                    assert got == pytest.approx(w_nodes[m] * ls.nodes[m] ** r, rel=1e-10, abs=1e-13)


class TestTriangleRule:
    @pytest.mark.parametrize("degree", range(9))
    def test_reference_monomials(self, degree):
        # oracle: int over the unit triangle of x^i y^j = i! j! / (i+j+2)!
        import math

        rule = triangle_rule(degree)
        assert np.sum(rule.weights) == pytest.approx(0.5)
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                ref = math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
                got = np.dot(rule.weights, rule.points[:, 0] ** i * rule.points[:, 1] ** j)
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)


def _green_monomial(polygon, i, j, npoints=20):
    """Green-theorem boundary oracle: iint x^i y^j = oint x^(i+1)/(i+1) y^j dy."""
    total = 0.0
    for e in polygon.edges:
        s, w = edge_rule_points(e, npoints)
        pts = e.point_at(s)
        dy_ds = (e.b.y - e.a.y) / e.length
        total += np.dot(w, pts[:, 0] ** (i + 1) / (i + 1) * pts[:, 1] ** j * dy_ds)
    return total


class TestPolygonIntegral:
    def test_unit_square_area(self):
        p = build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        mesh = triangulate(p, 0.3)
        assert polygon_integral(lambda x, y: np.ones_like(x), mesh, 0) == pytest.approx(1.0)

    def test_hexagon_area_matches_shoelace(self):
        p = catalog_polygon("fig160")
        mesh = triangulate(p, p.diameter / 16)
        got = polygon_integral(lambda x, y: np.ones_like(x), mesh, 0)
        assert got == pytest.approx(p.area, abs=1e-10)

    def test_odd_symmetry(self):
        p = build_polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])
        mesh = triangulate(p, 0.4)
        assert abs(polygon_integral(lambda x, y: x, mesh, 2)) < 1e-10

    @pytest.mark.parametrize("name", ["fig160", "fig159", "fig161"])
    def test_monomials_against_green_oracle(self, name):
        p = catalog_polygon(name)
        mesh = triangulate(p, p.diameter / 12)
        for i in range(4):
            for j in range(4 - i + 3):
                if i + j > 6:
                    continue
                ref = _green_monomial(p, i, j)
                got = polygon_integral(lambda x, y: x ** i * y ** j, mesh, i + j)
                assert got == pytest.approx(ref, rel=1e-9, abs=1e-14), (i, j)

    def test_nonconvex_against_green_oracle(self):
        p = catalog_polygon("fig165")
        mesh = triangulate(p, p.diameter / 16)
        for i, j in [(1, 0), (2, 1), (0, 3), (3, 3)]:
            ref = _green_monomial(p, i, j)
            got = polygon_integral(lambda x, y: x ** i * y ** j, mesh, i + j)
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-14)
