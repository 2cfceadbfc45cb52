import numpy as np
import pytest

from polydiv.catalog import catalog_polygon
from polydiv.geometry import ShapeViolation
from polydiv.hdiv_basis import (
    HdivSpaceKind,
    SpaceTag,
    VectorField,
    canonical_basis,
    export_interior,
    export_traces,
)
from polydiv.poisson import (
    BoundaryData,
    FieldBank,
    MeshFailure,
    ScalarField,
    _FESpace,
    solve_poisson_many,
    triangulate,
)
from polydiv.polyfam import PolyFamily, lagrange_set
from polydiv.quadrature import triangle_rule

HEX = catalog_polygon("fig165")
HEX_MESH = triangulate(HEX, HEX.diameter / 48)


@pytest.fixture(scope="module")
def hex_basis_k1():
    return canonical_basis(HEX, HdivSpaceKind(SpaceTag.CLASSICAL, 1), mesh=HEX_MESH)


RULE = triangle_rule(2)
RULE_X, RULE_Y, _ = HEX_MESH.rule_points(RULE)


class TestVectorField:
    # rows [P | Cx | Cy] over the one-field bank of u = 1: (1, 0) u and (x, y) u
    def test_constant_field(self):
        u = solve_poisson_many(HEX_MESH, [(None, BoundaryData.constant(HEX, 1.0))])[0]
        qx, qy = VectorField(u.bank, [0.0, 1.0, 0.0]).values_at_rule(RULE)
        assert np.allclose(qx, 1.0, atol=1e-9) and np.allclose(qy, 0.0, atol=1e-9)

    def test_position_field(self):
        u = solve_poisson_many(HEX_MESH, [(None, BoundaryData.constant(HEX, 1.0))])[0]
        qx, qy = VectorField(u.bank, [1.0, 0.0, 0.0]).values_at_rule(RULE)
        assert np.allclose(qx, RULE_X, atol=1e-9) and np.allclose(qy, RULE_Y, atol=1e-9)

    def test_linear_combination_closure(self):
        problems = [(None, BoundaryData.constant(HEX, 1.0)), (None, BoundaryData.indicator(HEX, 0, 2.0))]
        u, v = (solve_poisson_many(HEX_MESH, [(src, bc)])[0] for src, bc in problems)
        # rows [P | Cx | Cy] over the bank (u, v): 2 (x, y) u - 0.5 (0, 1) v
        f = VectorField(solve_poisson_many(HEX_MESH, problems), [2.0, 0.0, 0.0, 0.0, 0.0, -0.5])
        a = np.stack(f.values_at_rule(RULE))
        position = np.stack(VectorField(u.bank, [1.0, 0.0, 0.0]).values_at_rule(RULE))
        constant = np.stack(VectorField(v.bank, [0.0, 0.0, 1.0]).values_at_rule(RULE))
        assert np.allclose(a, 2.0 * position - 0.5 * constant)


class TestCounts:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_classical_counts(self, k):
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, k)
        b = canonical_basis(HEX, spec, mesh=HEX_MESH)
        assert all(len(g) == k + 3 for g in b.normal_groups)
        expect_internal = 2 * k * (k + 1) - 1 if k > 0 else 0
        assert len(b.internal_group) == expect_internal
        assert b.size == spec.dimension(HEX.n_edges)

    def test_classical_n6_k2_is_41(self):
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 2)
        b = canonical_basis(HEX, spec, mesh=HEX_MESH)
        assert b.size == 6 * 5 + 11 == 41

    @pytest.mark.parametrize("tag", [SpaceTag.REDUCED_LAGRANGE_BC, SpaceTag.REDUCED_NATURAL])
    def test_reduced_counts(self, tag):
        spec = HdivSpaceKind(tag, 1)
        b = canonical_basis(HEX, spec, mesh=HEX_MESH)
        assert all(len(g) == 2 for g in b.normal_groups)
        assert len(b.internal_group) == 3

    def test_counts_match_formula_for_all_n(self):
        # constructed size equals the dimension formula for n = 3..10 and
        # k = 0..3 (coarse meshes; regular polygons offset from the origin)
        from polydiv.geometry import build_polygon
        from polydiv.polyfam import SpaceFamily, SpaceSpec, space_dimension

        for n in range(3, 11):
            ang = 2 * np.pi * (np.arange(n) + 0.35) / n
            verts = [(1.1 + 0.8 * np.cos(a), 1.2 + 0.8 * np.sin(a)) for a in ang]
            p = build_polygon(verts)
            mesh = triangulate(p, p.diameter / 10)
            for k in range(4):
                b = canonical_basis(p, HdivSpaceKind(SpaceTag.CLASSICAL, k), mesh=mesh)
                assert b.size == space_dimension(SpaceSpec(SpaceFamily.HK_CLASSICAL, k=k, n=n))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_internal_count_identity(self, k):
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, k)
        b = canonical_basis(catalog_polygon("fig151"), spec, h=0.08)
        labels = [label for label, owner in zip(b.labels, b.owners) if owner == -1]
        n_F = sum(1 for l in labels if l.startswith("F"))
        n_G = sum(1 for l in labels if l.startswith("G"))
        n_Hx = sum(1 for l in labels if l.startswith("Hx"))
        n_Hy = sum(1 for l in labels if l.startswith("Hy"))
        assert (n_F, n_G, n_Hx, n_Hy) == (k - 1, k, k * k, k * k)
        assert n_F + n_G + n_Hx + n_Hy == 2 * k * (k + 1) - 1


class TestTraces:
    def test_decagon_offset_law_k0(self):
        p = catalog_polygon("fig167")
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 0)
        b = canonical_basis(p, spec, h=p.diameter / 32)
        e = p.edges[2]  # the edge with normal ~ (0.98, 0.20)
        assert e.xn == pytest.approx(0.76, abs=0.02)
        fn = b.normal_groups[2][0]
        s = np.linspace(0.0, e.length, 9)
        assert np.allclose(fn.normal_trace_on(e, s), e.xn + 2.0, atol=1e-12)

    def test_misc_shift_of_four(self, hex_basis_k1):
        # the misc functions sit 4 = 2 - (-2) below the core one built from
        # the same boundary data
        b = hex_basis_k1
        for i, e in enumerate(HEX.edges):
            core0 = b.normal_groups[i][0]
            misc_x = b.normal_groups[i][2]
            s = np.linspace(0.0, e.length, 11)
            diff = core0.normal_trace_on(e, s) - misc_x.normal_trace_on(e, s)
            assert np.allclose(diff, 4.0, atol=1e-12)

    def test_support_restriction(self, hex_basis_k1):
        b = hex_basis_k1
        for i, group in enumerate(b.normal_groups):
            for fn in group:
                for j, e in enumerate(HEX.edges):
                    if i == j:
                        continue
                    s = np.linspace(0.0, e.length, 50)
                    assert np.max(np.abs(fn.normal_trace_on(e, s))) < b.tau_bc

    def test_pointwise_property(self, hex_basis_k1):
        # q(x_l) . n = x.n delta_ml + 2 at the Lagrange nodes of the own edge
        b = hex_basis_k1
        for i, e in enumerate(HEX.edges):
            nodes = np.array(lagrange_set(e, 1).nodes)
            for m in range(2):
                fn = b.normal_groups[i][m]
                vals = fn.normal_trace_on(e, nodes)
                expect = np.array([e.xn * (1.0 if l == m else 0.0) + 2.0 for l in range(2)])
                assert np.allclose(vals, expect, atol=b.tau_bc)

    def test_offset_law_means(self, hex_basis_k1):
        # mean over the own edge of (q.n - x.n l_m(s)) is +2 for core
        # functions and -2 for misc functions
        b = hex_basis_k1
        for i, e in enumerate(HEX.edges):
            ls = lagrange_set(e, 1)
            s = np.linspace(0.0, e.length, 200)
            for m in range(2):
                fn = b.normal_groups[i][m]
                mean = np.mean(fn.normal_trace_on(e, s) - e.xn * ls.eval(m, s))
                assert abs(mean - 2.0) < 5 * b.tau_bc
            for which, m_used in ((2, 0), (3, 0)):  # misc pair with f_{i,1} = m 0 at k=1
                fn = b.normal_groups[i][which]
                mean = np.mean(fn.normal_trace_on(e, s) - e.xn * ls.eval(m_used, s))
                assert abs(mean + 2.0) < 5 * b.tau_bc

    def test_trace_polynomial_degree(self, hex_basis_k1):
        # own-edge traces fit a degree-k polynomial in s
        b = hex_basis_k1
        k = 1
        for i, e in enumerate(HEX.edges):
            s = np.linspace(0.0, e.length, 40)
            for fn in b.normal_groups[i]:
                vals = fn.normal_trace_on(e, s)
                resid = np.polyfit(s, vals, k, full=True)[1]
                resid = float(resid[0]) if len(resid) else 0.0
                assert np.sqrt(resid / len(s)) < b.tau_bc

    def test_internal_traces_vanish(self, hex_basis_k1):
        for fn in hex_basis_k1.internal_group:
            for e in HEX.edges:
                s = np.linspace(0.0, e.length, 50)
                assert np.max(np.abs(fn.normal_trace_on(e, s))) < hex_basis_k1.tau_bc

    def test_reduced_natural_global_g(self):
        # with the natural reduced variant the harmonic part is global: the
        # normal trace on a foreign edge equals 2 n_i . n_j
        spec = HdivSpaceKind(SpaceTag.REDUCED_NATURAL, 0)
        b = canonical_basis(HEX, spec, mesh=HEX_MESH)
        e0, e1 = HEX.edges[0], HEX.edges[1]
        fn = b.normal_groups[0][0]
        s = np.linspace(0, e1.length, 7)
        expect = 2.0 * (e0.normal[0] * e1.normal[0] + e0.normal[1] * e1.normal[1])
        assert np.allclose(fn.normal_trace_on(e1, s), expect, atol=1e-12)

    def test_normal_trace_shapes(self, hex_basis_k1):
        # one value per arc parameter (a scalar counts as one), on a further
        # axis per function of a stack; a point's value has the same bits
        # alone and among others
        e = HEX.edges[0]
        one, stack = hex_basis_k1.normal_groups[0][0], hex_basis_k1.normal_groups[0]
        s = np.array([0.25, 0.5]) * e.length
        assert one.normal_trace_on(e, s[1]).shape == (1,)
        assert one.normal_trace_on(e, s[1])[0] == one.normal_trace_on(e, s)[1]
        assert stack.normal_trace_on(e, s[1]).shape == (len(stack), 1)
        assert np.array_equal(stack.normal_trace_on(e, s[1])[:, 0], stack.normal_trace_on(e, s)[:, 1])
        assert one.normal_trace_on(e, s).shape == (2,)
        assert stack.normal_trace_on(e, s).shape == (len(stack), 2)


class TestFieldValues:
    def test_interior_value_bounded_by_max_principle(self, hex_basis_k1):
        # components combine harmonic/poisson fields with data in [-2, 2];
        # interval check from the boundary-data range
        fn = hex_basis_k1.normal_groups[0][0]
        v = np.stack(fn.values_at_rule(RULE))
        assert np.all(np.isfinite(v))
        r = np.hypot(RULE_X, RULE_Y)
        assert np.all(np.max(np.abs(v), axis=0) <= r * 1.5 + 2.0 + 1e-6)

    def test_gram_matrix_full_rank(self, hex_basis_k1):
        rule = triangle_rule(4)
        fns = hex_basis_k1.functions
        vals = [fn.values_at_rule(rule) for fn in fns]
        _, _, w = HEX_MESH.rule_points(rule)
        n = len(fns)
        G = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                G[i, j] = G[j, i] = float(
                    np.dot(w, vals[i][0] * vals[j][0] + vals[i][1] * vals[j][1])
                )
        sv = np.linalg.svd(G, compute_uv=False)
        assert sv[-1] > 0
        assert np.isfinite(sv[0] / sv[-1])


class TestValidation:
    def test_shape_violation_raised(self):
        p = catalog_polygon("fig172")
        with pytest.raises(ShapeViolation):
            canonical_basis(p, HdivSpaceKind(SpaceTag.CLASSICAL, 0), h=p.diameter / 16)

    def test_allow_invalid_uses_fallback_vectors(self):
        p = catalog_polygon("fig172")
        b = canonical_basis(
            p, HdivSpaceKind(SpaceTag.CLASSICAL, 0), h=p.diameter / 16, allow_invalid=True
        )
        assert b.size == p.n_edges * 3


class TestConstructorFamilies:
    def test_canonical_boundary_constructor(self):
        spec = HdivSpaceKind(
            SpaceTag.CLASSICAL,
            1,
            boundary_constructor=PolyFamily.CANONICAL_CENTERED_SCALED,
        )
        b = canonical_basis(HEX, spec, mesh=HEX_MESH)
        e = HEX.edges[0]
        s = np.linspace(0, e.length, 9)
        # core m traces follow (x.n) z^m + 2 with z = 2s/L - 1
        z = 2 * s / e.length - 1
        got = b.normal_groups[0][1].normal_trace_on(e, s)
        assert np.allclose(got, e.xn * z + 2.0, atol=1e-12)

    def test_inner_constructor_changes_fields(self):
        # degree-0 sources coincide across families; k = 2 exercises the
        # family-specific scalings
        s1 = HdivSpaceKind(SpaceTag.CLASSICAL, 2, inner_constructor=PolyFamily.HERMITE)
        s2 = HdivSpaceKind(SpaceTag.CLASSICAL, 2, inner_constructor=PolyFamily.LEGENDRE)
        b1 = canonical_basis(HEX, s1, mesh=HEX_MESH)
        b2 = canonical_basis(HEX, s2, mesh=HEX_MESH)
        v1 = b1.internal_group[0].values_at_rule(RULE)
        v2 = b2.internal_group[0].values_at_rule(RULE)
        assert not np.allclose(v1, v2)


@pytest.mark.parametrize("k", [1, 2])
def test_basis_fields_match_one_solve_per_problem(k):
    # the bank solved as one batch equals one solve per problem
    p = catalog_polygon("fig163")
    mesh = triangulate(p, p.diameter / 16)
    spec = HdivSpaceKind(SpaceTag.CLASSICAL, k)
    basis = canonical_basis(p, spec, mesh=mesh)
    bank = basis.bank
    U = np.array([solve_poisson_many(mesh, [problem], rule_degree=2 * k + 4)[0].coefficients for problem in bank.problems])
    one = FieldBank(bank.space, U, bank.problems)
    assert np.array_equal(bank.U, U)
    rule = triangle_rule(2)
    for f1, row in zip(basis.functions, basis.coefficients):
        a = np.stack(f1.values_at_rule(rule))
        b = np.stack(VectorField(one, row).values_at_rule(rule))
        assert np.array_equal(a, b)


def test_one_load_vector_per_source(monkeypatch):
    # fig165 classical k = 1: 12 edge problems and the internal (0, 0)
    # problem share one source, and the 6 harmonic ones have none (the
    # zero source)
    loads = []
    load_vectors = _FESpace.load_vectors
    monkeypatch.setattr(
        _FESpace, "load_vectors", lambda self, values, rule: loads.extend(values) or load_vectors(self, values, rule)
    )
    basis = canonical_basis(HEX, HdivSpaceKind(SpaceTag.CLASSICAL, 1), mesh=HEX_MESH)
    assert len(basis.bank) == 19
    assert len({id(source) for source, _ in basis.bank.problems}) == 2
    assert len(loads) == 2


@pytest.mark.parametrize("shape, mesh_shape", [("fig165", "fig152"), ("fig153", "fig151")])
def test_mesh_of_another_polygon_is_refused(monkeypatch, shape, mesh_shape):
    other = catalog_polygon(mesh_shape)
    monkeypatch.setattr("polydiv.hdiv_basis.solve_poisson_many", lambda *a, **kw: pytest.fail("solved"))
    with pytest.raises(ValueError, match="another polygon"):
        canonical_basis(catalog_polygon(shape), HdivSpaceKind(SpaceTag.CLASSICAL, 1), mesh=triangulate(other, other.diameter / 8))


def test_h_beside_a_mesh_is_refused(monkeypatch):
    monkeypatch.setattr("polydiv.hdiv_basis.solve_poisson_many", lambda *a, **kw: pytest.fail("solved"))
    with pytest.raises(ValueError, match="h is given beside a mesh"):
        canonical_basis(HEX, HdivSpaceKind(SpaceTag.CLASSICAL, 1), mesh=HEX_MESH, h=HEX_MESH.h)


def test_mesh_of_an_equal_polygon_is_accepted():
    # fig73 and fig151 are one triangle under two keys: equal, not identical
    p73, p151 = catalog_polygon("fig73"), catalog_polygon("fig151")
    assert p73 == p151 and p73 is not p151
    basis = canonical_basis(p73, HdivSpaceKind(SpaceTag.CLASSICAL, 0), mesh=triangulate(p151, p151.diameter / 8))
    assert basis.size == basis.spec.dimension(3)


class TestTauBc:
    def test_no_landed_sample_is_an_error(self, monkeypatch):
        def outside(self, x, y):
            return np.full(np.shape(x), np.nan), np.full(np.shape(x) + (2,), np.nan)

        monkeypatch.setattr(ScalarField, "value_and_grad", outside)
        with pytest.raises(MeshFailure, match="tau_bc"):
            canonical_basis(HEX, HdivSpaceKind(SpaceTag.CLASSICAL, 0), mesh=HEX_MESH)

    def test_other_evaluation_errors_propagate(self, monkeypatch):
        def broken(self, x, y):
            raise RuntimeError("evaluation failed")

        monkeypatch.setattr(ScalarField, "value_and_grad", broken)
        with pytest.raises(RuntimeError, match="evaluation failed"):
            canonical_basis(HEX, HdivSpaceKind(SpaceTag.CLASSICAL, 0), mesh=HEX_MESH)


def test_exports(tmp_path, hex_basis_k1):
    tr = tmp_path / "traces.csv"
    it = tmp_path / "interior.csv"
    export_traces(hex_basis_k1.functions[:2], HEX, tr)
    export_interior(hex_basis_k1.functions[:2], HEX_MESH, it)
    lines = tr.read_text().strip().splitlines()
    assert lines[0] == "edge,s,value,function_id"
    assert len(lines) == 1 + 2 * HEX.n_edges * 33
    head = it.read_text().splitlines()[0]
    assert head == "x,y,vx,vy,function_id"
