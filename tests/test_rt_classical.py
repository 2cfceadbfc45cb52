import math
import re
from functools import partial

import numpy as np
import pytest

from polydiv.elements import duality_residual, inverse_transpose
from polydiv.geometry import build_polygon
from polydiv.polyfam import lagrange_set
from polydiv.quadrature import edge_rule_points
from polydiv.rt_classical import (
    DegenerateMap,
    ReferenceMap,
    edge_flux_pairing,
    in_rt_space,
    piola,
    reference_polygon,
    rt_basis,
    rt_divergence,
    rt_dofs,
    rt_eval,
    rt_transfer,
    rt_tune,
)

RNG = np.random.default_rng(3)


def _grid(n, *terms):
    """Coefficient grid (2, n, n) from one {(i, j): coefficient} map per
    component."""
    g = np.zeros((2, n, n))
    for c, component in enumerate(terms):
        for (i, j), v in component.items():
            g[c, i, j] = v
    return g


def _support(g):
    """Exponents (i, j) of the coefficients above 1e-14 of the largest."""
    return np.nonzero(np.abs(g) > 1e-14 * np.abs(g).max())


def _normal_trace(q, e, s):
    p = e.point_at(s)
    return rt_eval(q, p[..., 0], p[..., 1]) @ np.array(e.normal)


class TestGrid:
    def test_eval(self):
        q = _grid(2, {(1, 1): 1.0, (0, 0): 2.0}, {})
        x, y = RNG.uniform(-1, 1, 10), RNG.uniform(-1, 1, 10)
        assert np.allclose(rt_eval(q, x, y), np.stack([x * y + 2.0, 0.0 * x], axis=-1))

    def test_divergence(self):
        # the partials of 3 x^2 y + y^2 in x and in y
        p = {(2, 1): 3.0, (0, 2): 1.0}
        assert np.array_equal(rt_divergence(_grid(3, p, {})), _grid(3, {(1, 1): 6.0}, {})[0])
        assert np.array_equal(rt_divergence(_grid(3, {}, p)), _grid(3, {(2, 0): 3.0, (0, 1): 2.0}, {})[0])


class TestReferenceShapes:
    def test_triangle_normals(self):
        tri = reference_polygon("triangle")
        assert np.allclose([e.normal for e in tri.edges],
                           [(0, -1), (np.sqrt(2) / 2, np.sqrt(2) / 2), (-1, 0)])

    def test_quad_normals(self):
        quad = reference_polygon("quad")
        assert np.allclose([e.normal for e in quad.edges], [(0, -1), (1, 0), (0, 1), (-1, 0)])


class TestBasisCounts:
    @pytest.mark.parametrize("k", range(4))
    def test_triangle(self, k):
        b = rt_basis("triangle", k)
        assert b.size == (k + 1) * (k + 3)
        assert len(b.coefficients[3 * (k + 1) :]) == k * (k + 1)

    @pytest.mark.parametrize("k", range(4))
    def test_quad(self, k):
        b = rt_basis("quad", k)
        assert b.size == 2 * (k + 1) * (k + 2)
        assert len(b.coefficients[4 * (k + 1) :]) == 2 * k * (k + 1)

    def test_k0_no_internal(self):
        assert len(rt_basis("triangle", 0).coefficients[3:]) == 0
        assert len(rt_basis("quad", 0).coefficients) == 4


class TestMembershipAndDivergence:
    @pytest.mark.parametrize("shape", ["triangle", "quad"])
    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("variant", ["local", "global"])
    def test_membership(self, shape, k, variant):
        b = rt_basis(shape, k, variant)
        for q in b.coefficients:
            assert in_rt_space(q, shape, k)

    @pytest.mark.parametrize("shape", ["triangle", "quad"])
    @pytest.mark.parametrize("k", range(4))
    def test_divergence_degree(self, shape, k):
        for q in rt_basis(shape, k).coefficients:
            i, j = _support(rt_divergence(q))
            if shape == "triangle":
                assert np.all(i + j <= k)
            else:
                assert np.all(i <= k) and np.all(j <= k)

    @pytest.mark.parametrize(
        "shape, k, i, j",
        [("triangle", 0, 2, 0)]
        + [("triangle", k, 1, k) for k in range(4)]
        + [("quad", k, k + 2, 0) for k in range(4)]
        + [("quad", k, 1, k + 1) for k in range(4)],
    )
    def test_not_in_smaller_space(self, shape, k, i, j):
        # controls for the membership checker, q = (x^i y^j, 0): (x^2, 0)
        # fails the triangle's total degree, (x y^k, 0) the coupling of the
        # top-degree terms into (x, y) p, (x^(k+2), 0) and (x y^(k+1), 0) the
        # quad's degrees
        q = _grid(k + 3, {(i, j): 1.0}, {})
        assert not in_rt_space(q, shape, k)

    def test_unknown_shape_refused(self):
        q = rt_basis("triangle", 1).coefficients[0]
        with pytest.raises(ValueError, match="got 'pentagon'"):
            in_rt_space(q, "pentagon", 1)


class TestInternalVanishing:
    @pytest.mark.parametrize("shape", ["triangle", "quad"])
    def test_normal_trace_zero(self, shape):
        b = rt_basis(shape, 3)
        for q in b.coefficients[(b.k + 1) * len(b.polygon.edges) :]:  # past the normal groups
            for e in b.polygon.edges:
                s = np.linspace(0.0, e.length, 67)
                assert np.max(np.abs(_normal_trace(q, e, s))) < 1e-12


class TestGlobalLagrangian:
    @pytest.mark.parametrize("k", range(4))
    def test_triangle_delta_property(self, k):
        b = rt_basis("triangle", k, "global")
        fns = [f for g in b.normal_groups for f in g]
        pts = [(e, s) for e in b.polygon.edges for s in lagrange_set(e, k).nodes]
        M = np.zeros((len(fns), len(pts)))
        for i, f in enumerate(fns):
            for j, (e, s) in enumerate(pts):
                p = e.point_at(s)
                M[i, j] = rt_eval(f, p[0], p[1]) @ np.array(e.normal)
        assert np.max(np.abs(M - np.eye(len(fns)))) < 1e-12

    @pytest.mark.parametrize("k", range(3))
    def test_quad_delta_property(self, k):
        b = rt_basis("quad", k, "global")
        fns = [f for g in b.normal_groups for f in g]
        pts = [(e, s) for e in b.polygon.edges for s in lagrange_set(e, k).nodes]
        M = np.zeros((len(fns), len(pts)))
        for i, f in enumerate(fns):
            for j, (e, s) in enumerate(pts):
                p = e.point_at(s)
                M[i, j] = rt_eval(f, p[0], p[1]) @ np.array(e.normal)
        assert np.max(np.abs(M - np.eye(len(fns)))) < 1e-12


class TestDofs:
    def test_counts(self):
        assert len(rt_dofs("triangle", 1)) == 8
        assert len(rt_dofs("triangle", 0)) == 3
        assert len(rt_dofs("quad", 0)) == 4
        assert len(rt_dofs("quad", 1)) == 12

    @pytest.mark.parametrize("build", [rt_dofs, rt_basis])
    def test_negative_order_rejected(self, build):
        with pytest.raises(ValueError, match="order must be non-negative, got -1"):
            build("triangle", -1)

    def test_edge_moment_reduces_to_weighted_node_power(self):
        # on the left edge of the reference triangle the local function's
        # moment with weight s^r equals the quadrature weight times the node
        # power; the proportionality constant is computed, not assumed
        k = 2
        b = rt_basis("triangle", k)
        e = b.polygon.edges[2]
        s_nodes, w_nodes = edge_rule_points(e, k + 1)
        dofs = rt_dofs("triangle", k)
        rows = dofs.rows[2 * (k + 1) : 3 * (k + 1)]
        assert dofs.labels[2 * (k + 1) : 3 * (k + 1)] == ("edge2:s^0", "edge2:s^1", "edge2:s^2")
        for m, fn in enumerate(b.normal_groups[2]):
            trace = partial(_normal_trace, fn, e)
            c = trace(np.array([s_nodes[m]]))[0]  # e3 . n3 at the node
            for r, row in enumerate(rows):
                got = float(np.sum(row * fn))
                # oracle via a high-order reference rule
                shi, whi = edge_rule_points(e, 12)
                ref = float(np.dot(whi, trace(shi) * shi ** r))
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)
                assert got == pytest.approx(c * w_nodes[m] * s_nodes[m] ** r, rel=1e-10, abs=1e-13)

    def test_internal_moment_exactness(self):
        # exact monomial formulas against quadrature over a fine mesh
        from polydiv.poisson import triangulate
        from polydiv.quadrature import triangle_rule

        b = rt_basis("triangle", 2)
        q = b.coefficients[3 * 3 + 3]  # the fourth internal function
        dofs = rt_dofs("triangle", 2)
        row = dofs.rows[dofs.labels.index("int:x:x^1y^0")]
        comp, i, j = 0, 1, 0
        x, y, w = triangulate(b.polygon, 0.2).rule_points(triangle_rule(8))
        ref = float(np.dot(w, rt_eval(q, x, y)[..., comp] * x ** i * y ** j))
        assert float(np.sum(row * q)) == pytest.approx(ref, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("shape", ["triangle", "quad"])
    @pytest.mark.parametrize("k", range(3))
    def test_tuned_duality(self, shape, k):
        b = rt_basis(shape, k)
        dofs = rt_dofs(shape, k)
        L = rt_transfer(dofs, b.coefficients)
        A = inverse_transpose(L)
        assert duality_residual(L, A) < 1e-9
        # split preservation: tuned internal functions keep zero traces
        n_norm = sum(len(g) for g in b.normal_groups)
        for fn in rt_tune(b.coefficients, A)[n_norm:]:
            for e in b.polygon.edges:
                s = np.linspace(0, e.length, 23)
                assert np.max(np.abs(_normal_trace(fn, e, s))) < 1e-9

    def test_gram_matrix_rank(self):
        from polydiv.poisson import triangulate
        from polydiv.quadrature import triangle_rule

        b = rt_basis("triangle", 2)
        mesh = triangulate(b.polygon, 0.15)
        rule = triangle_rule(8)
        x, y, w = mesh.rule_points(rule)
        vals = rt_eval(b.coefficients, x, y)  # (n, npts, 2)
        G = np.einsum("ipd,jpd,p->ij", vals, vals, w)
        sv = np.linalg.svd(G, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]


def _exact_transfer(mpmath, dofs, shape, coefficients):
    """Lambda of the grids in 40-digit arithmetic, each DOF read from its
    label: an edge moment n . int q s^m ds from the exact integral of the
    polynomial in s that q's monomials become along the edge, an internal
    moment from the exact monomial integrals over the reference shape."""
    mpf = mpmath.mpf
    n = coefficients.shape[-1]
    verts = [[mpf(float(c)) for c in v] for v in reference_polygon(shape).vertex_array()]
    rows = []
    for label in dofs.labels:
        row = {}
        edge = re.fullmatch(r"edge(\d+):s\^(\d+)", label)
        if edge:
            e, m = int(edge[1]), int(edge[2])
            a, b = verts[e], verts[(e + 1) % len(verts)]
            length = mpmath.sqrt((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2)
            t = [(b[0] - a[0]) / length, (b[1] - a[1]) / length]
            for i in range(n):
                for j in range(n):
                    # coefficients in s of (a_x + t_x s)^i (a_y + t_y s)^j s^m
                    poly = [mpf(0)] * m + [mpf(1)]
                    for c, power in ((0, i), (1, j)):
                        for _ in range(power):
                            poly = [a[c] * p + t[c] * q for p, q in zip(poly + [0], [0] + poly)]
                    integral = sum(cp * length ** (d + 1) / (d + 1) for d, cp in enumerate(poly))
                    row[0, i, j], row[1, i, j] = t[1] * integral, -t[0] * integral
        else:
            comp, i, j = re.fullmatch(r"int:([xy]):x\^(\d+)y\^(\d+)", label).groups()
            for a in range(n):
                for b in range(n):
                    p, q = a + int(i), b + int(j)
                    if shape == "triangle":
                        integral = mpf(math.factorial(p) * math.factorial(q)) / math.factorial(p + q + 2)
                    else:
                        integral = mpf(1) / ((p + 1) * (q + 1))
                    row["xy".index(comp), a, b] = integral
        rows.append(row)
    return np.array(
        [
            [float(mpmath.fsum(mpf(float(C[key])) * v for key, v in row.items() if C[key] != 0.0)) for C in coefficients]
            for row in rows
        ]
    )


class TestExactReference:
    @pytest.mark.parametrize("shape", ["triangle", "quad"])
    @pytest.mark.parametrize("k", range(4))
    def test_transfer_matches_40_digit_reference(self, shape, k):
        mpmath = pytest.importorskip("mpmath")
        b = rt_basis(shape, k)
        dofs = rt_dofs(shape, k)
        with mpmath.workdps(40):
            ref = _exact_transfer(mpmath, dofs, shape, b.coefficients)
        assert np.max(np.abs(rt_transfer(dofs, b.coefficients) - ref)) <= 1e-14


class TestPiola:
    def test_identity(self):
        tri = reference_polygon("triangle")
        amap = ReferenceMap(tri.vertex_array())
        f = partial(rt_eval, rt_basis("triangle", 1).coefficients[4])
        g = piola(amap, f)
        x, y = RNG.uniform(0.05, 0.4, 12), RNG.uniform(0.05, 0.4, 12)
        assert np.allclose(g(x, y), f(x, y))

    def test_uniform_scaling(self):
        amap = ReferenceMap(np.array([[0, 0], [2, 0], [0, 2]]))
        assert amap.jacobian_det(0.3, 0.2) == pytest.approx(4.0)
        f = partial(rt_eval, rt_basis("triangle", 0).coefficients[0])
        g = piola(amap, f)
        X, Y = 0.6, 0.4
        expect = 2.0 * f(X / 2, Y / 2) / 4.0
        assert np.allclose(g(X, Y), expect)

    def test_flux_pairings_random_affine(self):
        b = rt_basis("triangle", 1)
        for trial in range(20):
            V = RNG.normal(scale=1.5, size=(3, 2))
            J = np.array([[V[1, 0] - V[0, 0], V[2, 0] - V[0, 0]], [V[1, 1] - V[0, 1], V[2, 1] - V[0, 1]]])
            if np.linalg.det(J) < 0.05:
                continue
            amap = ReferenceMap(V)
            target = build_polygon(V.tolist())
            for C in b.coefficients[:5]:
                f = partial(rt_eval, C)
                fp = piola(amap, f)
                for eref, etgt in zip(b.polygon.edges, target.edges):
                    for m in range(2):
                        ref = edge_flux_pairing(f, eref, lambda s: (s / eref.length) ** m)
                        got = edge_flux_pairing(fp, etgt, lambda s: (s / etgt.length) ** m)
                        assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_bilinear_map_pairing(self):
        b = rt_basis("quad", 1)
        verts = np.array([[0.1, 0.0], [1.2, 0.1], [1.0, 1.1], [0.0, 0.9]])
        bmap = ReferenceMap(verts)
        target = build_polygon(verts.tolist())
        f = partial(rt_eval, b.coefficients[5])
        fp = piola(bmap, f)
        for eref, etgt in zip(b.polygon.edges, target.edges):
            ref = edge_flux_pairing(f, eref, lambda s: s / eref.length, npoints=20)
            got = edge_flux_pairing(fp, etgt, lambda s: s / etgt.length, npoints=20)
            assert got == pytest.approx(ref, rel=1e-8, abs=1e-9)

    def test_the_triangle_map_is_affine(self):
        # three vertices: d = 0, so the Jacobian is the constant J of the
        # affine map and the Newton inverse lands in one step
        V = np.array([[0.2, 0.1], [1.4, 0.3], [0.5, 1.2]])
        amap = ReferenceMap(V)
        J = np.column_stack([V[1] - V[0], V[2] - V[0]])
        x, y = RNG.uniform(0.0, 0.5, 7), RNG.uniform(0.0, 0.5, 7)
        assert np.array_equal(amap.jacobian(x, y), np.broadcast_to(J, (7, 2, 2)))
        X, Y = amap.forward(x, y)
        assert np.allclose(np.column_stack([X, Y]), V[0] + np.column_stack([x, y]) @ J.T, rtol=0, atol=1e-15)
        assert np.allclose(amap.inverse(X, Y), (x, y), rtol=0, atol=1e-14)

    def test_clockwise_map_is_accepted(self):
        # the determinant keeps one sign; piola divides by its modulus
        g = np.linspace(0.0, 1.0, 3)
        for verts in ([[0, 0], [0, 1], [1, 0]], [[0, 0], [0, 1], [1, 1], [1, 0]]):
            assert np.all(ReferenceMap(np.array(verts)).jacobian_det(*np.meshgrid(g, g)) == -1.0)

    def test_degenerate_map_rejected(self):
        with pytest.raises(DegenerateMap):
            ReferenceMap(np.array([[0, 0], [1, 0], [2, 0]]))
        with pytest.raises(DegenerateMap):
            ReferenceMap(np.array([[0, 0], [1, 0], [0.2, -0.3], [0, 1]]))


@pytest.mark.parametrize(
    "call, fault",
    [
        (lambda: rt_basis("triangle", 1, variant="nodal"), "variant must be 'local' or 'global'"),
        (lambda: rt_transfer(rt_dofs("triangle", 1), rt_basis("triangle", 0).coefficients), "^8 DOFs vs 3 functions$"),
        (lambda: ReferenceMap(np.zeros((5, 2))), "^a reference map takes 3 or 4 vertices, got 5$"),
    ],
    ids=["variant", "count", "map-vertices"],
)
def test_invalid_arguments(call, fault):
    with pytest.raises(ValueError, match=fault):
        call()
