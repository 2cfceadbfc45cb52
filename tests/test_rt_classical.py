import numpy as np
import pytest

from polydiv.elements import duality_residual, inverse_transpose
from polydiv.geometry import build_polygon
from polydiv.quadrature import edge_rule_points
from polydiv.rt_classical import (
    AffineMap,
    BilinearMap,
    DegenerateMap,
    Poly2,
    PolyVec2,
    edge_flux_pairing,
    in_rt_space,
    piola,
    reference_polygon,
    rt_basis,
    rt_dofs,
    rt_transfer,
    rt_tune,
)

RNG = np.random.default_rng(3)


class TestPoly2:
    def test_arithmetic_and_eval(self):
        p = Poly2.monomial(1, 0) * Poly2.monomial(0, 1) + Poly2.constant(2.0)
        x, y = RNG.uniform(-1, 1, 10), RNG.uniform(-1, 1, 10)
        assert np.allclose(p.eval(x, y), x * y + 2.0)

    def test_partials(self):
        p = Poly2({(2, 1): 3.0, (0, 2): 1.0})
        assert p.partial(0).coef == {(1, 1): 6.0}
        assert p.partial(1).coef == {(2, 0): 3.0, (0, 1): 2.0}


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
        assert len(b.internal_group) == k * (k + 1)

    @pytest.mark.parametrize("k", range(4))
    def test_quad(self, k):
        b = rt_basis("quad", k)
        assert b.size == 2 * (k + 1) * (k + 2)
        assert len(b.internal_group) == 2 * k * (k + 1)

    def test_k0_no_internal(self):
        assert rt_basis("triangle", 0).internal_group == []
        assert len(rt_basis("quad", 0).functions) == 4


class TestMembershipAndDivergence:
    @pytest.mark.parametrize("shape", ["triangle", "quad"])
    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("variant", ["local", "global"])
    def test_membership(self, shape, k, variant):
        b = rt_basis(shape, k, variant)
        for q in b.functions:
            assert in_rt_space(q, shape, k)

    @pytest.mark.parametrize("shape", ["triangle", "quad"])
    @pytest.mark.parametrize("k", range(4))
    def test_divergence_degree(self, shape, k):
        for q in rt_basis(shape, k).functions:
            d = q.div().prune()
            if shape == "triangle":
                assert d.deg_total() <= k
            else:
                assert d.deg_x() <= k and d.deg_y() <= k

    def test_not_in_smaller_space(self):
        # control for the membership checker
        q = PolyVec2(Poly2.monomial(2, 0), Poly2())
        assert not in_rt_space(q, "triangle", 0)


class TestInternalVanishing:
    @pytest.mark.parametrize("shape", ["triangle", "quad"])
    def test_normal_trace_zero(self, shape):
        b = rt_basis(shape, 3)
        for q in b.internal_group:
            for e in b.polygon.edges:
                s = np.linspace(0.0, e.length, 67)
                assert np.max(np.abs(q.normal_component(e)(s))) < 1e-12


class TestGlobalLagrangian:
    @pytest.mark.parametrize("k", range(4))
    def test_triangle_delta_property(self, k):
        b = rt_basis("triangle", k, "global")
        fns = [f for g in b.normal_groups for f in g]
        pts = [(e, s) for e, nodes in zip(b.polygon.edges, b.sample_nodes) for s in nodes]
        M = np.zeros((len(fns), len(pts)))
        for i, f in enumerate(fns):
            for j, (e, s) in enumerate(pts):
                p = e.point_at(s)
                M[i, j] = f.eval(p[0], p[1]) @ e.normal_array()
        assert np.max(np.abs(M - np.eye(len(fns)))) < 1e-12

    @pytest.mark.parametrize("k", range(3))
    def test_quad_delta_property(self, k):
        b = rt_basis("quad", k, "global")
        fns = [f for g in b.normal_groups for f in g]
        pts = [(e, s) for e, nodes in zip(b.polygon.edges, b.sample_nodes) for s in nodes]
        M = np.zeros((len(fns), len(pts)))
        for i, f in enumerate(fns):
            for j, (e, s) in enumerate(pts):
                p = e.point_at(s)
                M[i, j] = f.eval(p[0], p[1]) @ e.normal_array()
        assert np.max(np.abs(M - np.eye(len(fns)))) < 1e-12


class TestDofs:
    def test_counts(self):
        assert len(rt_dofs("triangle", 1)) == 8
        assert len(rt_dofs("triangle", 0)) == 3
        assert len(rt_dofs("quad", 0)) == 4
        assert len(rt_dofs("quad", 1)) == 12

    def test_edge_moment_reduces_to_weighted_node_power(self):
        # on the left edge of the reference triangle the local function's
        # moment with weight s^r equals the quadrature weight times the node
        # power; the proportionality constant is computed, not assumed
        k = 2
        b = rt_basis("triangle", k)
        e = b.polygon.edges[2]
        s_nodes, w_nodes = edge_rule_points(e, k + 1)
        dofs = [d for d in rt_dofs("triangle", k) if d.kind == "normal" and d.edge.index == 2]
        for m, fn in enumerate(b.normal_groups[2]):
            trace = fn.normal_component(e)
            c = trace(np.array([s_nodes[m]]))[0]  # e3 . n3 at the node
            for r, d in enumerate(dofs):
                got = d.apply(fn)
                # oracle via a high-order reference rule
                shi, whi = edge_rule_points(e, 12)
                ref = float(np.dot(whi, trace(shi) * shi ** r))
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)
                assert got == pytest.approx(c * w_nodes[m] * s_nodes[m] ** r, rel=1e-10, abs=1e-13)

    def test_internal_moment_exactness(self):
        # exact monomial formulas against quadrature over a fine mesh
        from polydiv.poisson import triangulate
        from polydiv.quadrature import polygon_integral

        b = rt_basis("triangle", 2)
        q = b.internal_group[3]
        dof = [d for d in rt_dofs("triangle", 2) if d.kind == "internal"][2]
        comp = q.x if dof.component == 0 else q.y
        i, j = dof.ij
        mesh = triangulate(b.polygon, 0.2)
        ref = polygon_integral(lambda x, y: comp.eval(x, y) * x ** i * y ** j, mesh, 8)
        assert dof.apply(q) == pytest.approx(ref, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("shape", ["triangle", "quad"])
    @pytest.mark.parametrize("k", range(3))
    def test_tuned_duality(self, shape, k):
        b = rt_basis(shape, k)
        dofs = rt_dofs(shape, k)
        L = rt_transfer(dofs, b.functions)
        A = inverse_transpose(L)
        assert duality_residual(L, A) < 1e-9
        # split preservation: tuned internal functions keep zero traces
        n_norm = sum(len(g) for g in b.normal_groups)
        for fn in rt_tune(b.functions, A)[n_norm:]:
            for e in b.polygon.edges:
                s = np.linspace(0, e.length, 23)
                assert np.max(np.abs(fn.normal_component(e)(s))) < 1e-9

    def test_gram_matrix_rank(self):
        from polydiv.poisson import triangulate
        from polydiv.quadrature import triangle_rule

        b = rt_basis("triangle", 2)
        mesh = triangulate(b.polygon, 0.15)
        rule = triangle_rule(8)
        x, y, w = mesh.rule_points(rule)
        vals = np.array([f.eval(x, y) for f in b.functions])  # (n, npts, 2)
        G = np.einsum("ipd,jpd,p->ij", vals, vals, w)
        sv = np.linalg.svd(G, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]


class TestPiola:
    def test_identity(self):
        tri = reference_polygon("triangle")
        amap = AffineMap(tri.vertex_array())
        f = rt_basis("triangle", 1).functions[4]
        g = piola(amap, f)
        x, y = RNG.uniform(0.05, 0.4, 12), RNG.uniform(0.05, 0.4, 12)
        assert np.allclose(g.eval(x, y), f.eval(x, y))

    def test_uniform_scaling(self):
        amap = AffineMap(np.array([[0, 0], [2, 0], [0, 2]]))
        assert amap.det == pytest.approx(4.0)
        f = rt_basis("triangle", 0).functions[0]
        g = piola(amap, f)
        X, Y = 0.6, 0.4
        expect = 2.0 * f.eval(X / 2, Y / 2) / 4.0
        assert np.allclose(g.eval(X, Y), expect)

    def test_flux_pairings_random_affine(self):
        b = rt_basis("triangle", 1)
        for trial in range(20):
            V = RNG.normal(scale=1.5, size=(3, 2))
            J = np.array([[V[1, 0] - V[0, 0], V[2, 0] - V[0, 0]], [V[1, 1] - V[0, 1], V[2, 1] - V[0, 1]]])
            if np.linalg.det(J) < 0.05:
                continue
            amap = AffineMap(V)
            target = build_polygon(V.tolist())
            for f in b.functions[:5]:
                fp = piola(amap, f)
                for eref, etgt in zip(b.polygon.edges, target.edges):
                    for m in range(2):
                        ref = edge_flux_pairing(f.eval, eref, lambda s: (s / eref.length) ** m)
                        got = edge_flux_pairing(fp.eval, etgt, lambda s: (s / etgt.length) ** m)
                        assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_bilinear_map_pairing(self):
        b = rt_basis("quad", 1)
        verts = np.array([[0.1, 0.0], [1.2, 0.1], [1.0, 1.1], [0.0, 0.9]])
        bmap = BilinearMap(verts)
        target = build_polygon(verts.tolist())
        f = b.functions[5]
        fp = piola(bmap, f)
        for eref, etgt in zip(b.polygon.edges, target.edges):
            ref = edge_flux_pairing(f.eval, eref, lambda s: s / eref.length, npoints=20)
            got = edge_flux_pairing(fp.eval, etgt, lambda s: s / etgt.length, npoints=20)
            assert got == pytest.approx(ref, rel=1e-8, abs=1e-9)

    def test_degenerate_map_rejected(self):
        with pytest.raises(DegenerateMap):
            AffineMap(np.array([[0, 0], [1, 0], [2, 0]]))
        with pytest.raises(DegenerateMap):
            BilinearMap(np.array([[0, 0], [1, 0], [0.2, -0.3], [0, 1]]))
