import functools
import math

import numpy as np
import pytest

from polydiv.catalog import catalog_polygon
from polydiv.elements import (
    CountMismatch,
    DofSet,
    ElementConfig,
    SingularTransfer,
    TransferMatrix,
    TunedBasis,
    assemble_transfer,
    boundary_characterization_matrix,
    classify_degenerate,
    condition_2norm,
    dof_set,
    dof_values,
    duality_residual,
    edge_block_singular_ratios,
    tune_basis,
    zero_rows,
    _dof_set_unchecked,
)
from polydiv.geometry import ShapeViolation, build_polygon
from polydiv.hdiv_basis import HdivSpaceKind, SpaceTag, VectorField, canonical_basis
from polydiv.polyfam import PolyFamily, inner_poly
from polydiv.poisson import triangulate
from polydiv.quadrature import edge_rule_points, triangle_rule

TRI = catalog_polygon("fig73")
TRI_MESH = triangulate(TRI, TRI.diameter / 48)
HEX = catalog_polygon("fig165")
HEX_MESH = triangulate(HEX, HEX.diameter / 48)


@pytest.fixture(scope="module")
def tri_basis_k1():
    return canonical_basis(TRI, HdivSpaceKind(SpaceTag.CLASSICAL, 1), mesh=TRI_MESH)


class TestDofSet:
    def test_counts_classical(self):
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 1)
        dofs = dof_set(HEX, ElementConfig("Ib", spec))
        assert len(dofs) == 6 * 4 + 3 == 27

    def test_counts_reduced_k0(self):
        spec = HdivSpaceKind(SpaceTag.REDUCED_LAGRANGE_BC, 0)
        dofs = dof_set(TRI, ElementConfig("IIa", spec))
        assert len(dofs) == 3
        # one IIa misc DOF per edge: the integral of q . n on k + 3 points
        for e, d in zip(TRI.edges, dofs):
            s, w = edge_rule_points(e, 3)
            assert d.label == f"edge{e.index}:misc" and d.edge is e
            assert np.array_equal(d.s, s)
            assert np.array_equal(d.wx, w * e.normal[0]) and np.array_equal(d.wy, w * e.normal[1])
            assert (d.fx, d.fy, d.shift) == (1.0, 1.0, 0.0)

    def test_per_edge_layout_iib_k2(self):
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 2)
        dofs = dof_set(HEX, ElementConfig("IIb", spec))
        edge0 = [d for d in dofs if d.edge is not None and d.edge.index == 0]
        labels = [d.label for d in edge0]
        assert labels == ["edge0:core1", "edge0:core2", "edge0:misc", "edge0:supp-x", "edge0:supp-y"]
        # the IIb misc DOF is a point value; the others integrate on k + 3 points
        assert [len(d.s) for d in edge0] == [5, 5, 1, 5, 5]
        assert len(edge0) == 2 + 1 + 2 == 5

    def test_ordering_edges_then_internal(self):
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 1)
        dofs = dof_set(HEX, ElementConfig("Ia", spec))
        labels = [d.label for d in dofs]
        assert labels[-1] == "int:coupled"
        assert labels[0].startswith("edge0:")
        # internal x block then y block; (l, m) = (k, k-1) goes to the
        # coupled moment
        internal = [l for l in labels if l.startswith("int:")]
        assert internal == ["int:x:q00", "int:y:q00", "int:coupled"]

    def test_reduced_I_configs_identical(self):
        spec = HdivSpaceKind(SpaceTag.REDUCED_LAGRANGE_BC, 1)
        a = dof_set(TRI, ElementConfig("Ia", spec))
        b = dof_set(TRI, ElementConfig("Ib", spec))
        c = dof_set(TRI, ElementConfig("IbShifted", spec))
        assert len(a) == len(b) == len(c)
        for da, db, dc in zip(a, b, c):
            assert _same_functional(da, db) and _same_functional(da, dc), da.label

    def test_shape_violation(self):
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 0)
        with pytest.raises(ShapeViolation):
            dof_set(catalog_polygon("fig172"), ElementConfig("Ib", spec))
        with pytest.raises(ShapeViolation):
            dof_set(catalog_polygon("fig74"), ElementConfig("Ia", spec))
        # II family does not carry the v rule
        dof_set(catalog_polygon("fig74"), ElementConfig("IIa", spec))


def _same_functional(d, other):
    """Whether two DOFs are the same functional: the same label, edge,
    sample points, weights, factors, shift and kernel degrees."""
    scalars = ("label", "edge", "fx", "fy", "shift", "kx", "ky")
    return all(getattr(d, a) == getattr(other, a) for a in scalars) and all(
        np.array_equal(getattr(d, a), getattr(other, a)) for a in ("s", "wx", "wy")
    )


def _label_edge(label):
    """The edge a function was built for, read from its label "edge<i>:...",
    or -1 for an internal function."""
    return int(label[4 : label.index(":")]) if label.startswith("edge") else -1


@pytest.mark.parametrize("tag", list(SpaceTag))
@pytest.mark.parametrize("k", [0, 1, 2])
def test_space_owns_the_layout(tag, k):
    # the space's slices are the basis groups, the DOF row blocks and the
    # blocks of Lambda, and they tile it: the edge groups in edge order,
    # the internal group last
    spec = HdivSpaceKind(tag, k)
    edges, internal = spec.layout(TRI.n_edges)
    assert [s.start for s in edges] + [internal.start] == [0] + [s.stop for s in edges]
    basis = canonical_basis(TRI, spec, mesh=TRI_MESH)
    assert internal.stop == basis.size
    # the labels record the edge each function was built for, in the order
    # the construction added them; the layout's owners must agree
    for i, (group, rows) in enumerate(zip(basis.normal_groups, edges)):
        assert np.array_equal(group.rows, basis.coefficients[rows])
        assert all(label.startswith(f"edge{i}:") for label in basis.labels[rows])
    assert np.array_equal(basis.functions[basis.owners == -1].rows, basis.coefficients[internal])
    assert not any(label.startswith("edge") for label in basis.labels[internal])
    assert basis.owners.tolist() == [_label_edge(label) for label in basis.labels]
    dofs = dof_set(TRI, ElementConfig("IIb", spec))
    assert [rows for _, rows in dofs.blocks] == [slice(0, internal.start), internal]
    for i, rows in enumerate(edges):
        assert all(d.edge.index == i for d in dofs[rows])
    assert all(d.edge is None for d in dofs[internal])
    assert dofs.rule.degree == spec.rule_degree == 2 * k + 4
    T = assemble_transfer(dofs, basis)
    assert T.edge_rows == edges and T.internal_rows == internal


class TestApplyDof:
    def test_iia_misc_on_core_k0(self):
        # constant-trace quadrature oracle: (x.n + 2) L
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 0)
        basis = canonical_basis(TRI, spec, mesh=TRI_MESH)
        dofs = dof_set(TRI, ElementConfig("IIa", spec))
        for i, e in enumerate(TRI.edges):
            values = dof_values(dofs, basis.normal_groups[i][0])
            misc = next(r for r, d in enumerate(dofs) if d.label == f"edge{i}:misc")
            assert values[misc] == pytest.approx((e.xn + 2.0) * e.length, rel=1e-12)

    def test_cross_edge_moment_vanishes(self, tri_basis_k1):
        spec = tri_basis_k1.spec
        dofs = dof_set(TRI, ElementConfig("Ib", spec))
        values = dof_values(dofs, tri_basis_k1.normal_groups[1][0])
        for d, value in zip(dofs, values):
            if d.label.startswith("edge0:core"):
                assert abs(value) < tri_basis_k1.tau_bc * TRI.edges[0].length

    def test_internal_moment_on_normal_function_finite(self, tri_basis_k1):
        spec = tri_basis_k1.spec
        dofs = dof_set(TRI, ElementConfig("Ib", spec))
        values = dof_values(dofs, tri_basis_k1.normal_groups[0][0])
        vals = [v for d, v in zip(dofs, values) if d.edge is None]
        assert len(vals) and np.all(np.isfinite(vals))

    def test_shifted_point_values(self, tri_basis_k1):
        spec = tri_basis_k1.spec
        plain = dof_set(TRI, ElementConfig("IIb", spec))
        shifted = dof_set(TRI, ElementConfig("IIbShifted", spec))
        fn = tri_basis_k1.normal_groups[0][0]
        misc = next(r for r, d in enumerate(plain) if d.label.endswith(":misc"))
        # the same midpoint value of q . n, shifted by one
        assert shifted[misc].label == plain[misc].label and len(shifted[misc].s) == 1
        assert (plain[misc].shift, shifted[misc].shift) == (0.0, 1.0)
        assert dof_values(shifted, fn)[misc] == pytest.approx(dof_values(plain, fn)[misc] - 1.0)

    def test_empty_set_gives_no_rows(self, tri_basis_k1):
        # the interior block of a k = 0 element holds no DOF
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 0)
        dofs = dof_set(TRI, ElementConfig("Ib", spec))
        (_, edge_rows), (_, interior_rows) = dofs.blocks
        assert len(dofs[edge_rows]) == len(dofs) and not dofs[interior_rows]
        empty = DofSet(dofs[interior_rows], TRI, spec, dofs.family)
        assert dof_values(empty, tri_basis_k1.functions).shape == (0, tri_basis_k1.size)
        assert dof_values(empty, tri_basis_k1.functions[0]).shape == (0,)

    def test_stack_matches_one_function_at_a_time(self, tri_basis_k1):
        dofs = dof_set(TRI, ElementConfig("IIa", tri_basis_k1.spec))
        stack = dof_values(dofs, tri_basis_k1.functions)
        assert stack.shape == (len(dofs), tri_basis_k1.size)
        for j, fn in enumerate(tri_basis_k1.functions):
            assert np.allclose(dof_values(dofs, fn), stack[:, j], rtol=1e-12, atol=1e-14)


class TestTransferMatrix:
    def test_triangle_ib_k1_structure(self, tri_basis_k1):
        spec = tri_basis_k1.spec
        T = assemble_transfer(dof_set(TRI, ElementConfig("Ib", spec)), tri_basis_k1)
        assert T.matrix.shape == (15, 15)
        # three 4x4 normal diagonal blocks
        for i in range(3):
            assert T.edge_rows[i] == slice(4 * i, 4 * i + 4)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                block = T.matrix[T.edge_rows[i], T.edge_rows[j]]
                assert np.max(np.abs(block)) < tri_basis_k1.tau_bc
        # normal DOF rows vanish on the internal columns
        for i in range(3):
            assert np.max(np.abs(T.matrix[T.edge_rows[i], T.internal_rows])) < tri_basis_k1.tau_bc

    def test_block_structure_k2(self):
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 2)
        basis = canonical_basis(TRI, spec, mesh=TRI_MESH)
        for conf in ("Ia", "IIb"):
            T = assemble_transfer(dof_set(TRI, ElementConfig(conf, spec)), basis)
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    block = T.matrix[T.edge_rows[i], T.edge_rows[j]]
                    assert np.max(np.abs(block)) < basis.tau_bc * TRI.edges[i].length

    def test_internal_submatrix_config_independent(self, tri_basis_k1):
        spec = tri_basis_k1.spec
        mats = []
        for conf in ("Ia", "Ib", "IIa", "IIb"):
            T = assemble_transfer(dof_set(TRI, ElementConfig(conf, spec)), tri_basis_k1)
            mats.append(T.matrix[T.internal_rows, T.internal_rows])
        for m in mats[1:]:
            assert np.max(np.abs(m - mats[0])) < 1e-12

    def test_interior_moments_build_no_rule_table(self):
        # the interior moments meet U with load vectors: the bank keeps no
        # table of field values at the degree-(2k + 4) rule points
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 2)
        basis = canonical_basis(HEX, spec, mesh=triangulate(HEX, HEX.diameter / 16))
        dofs = dof_set(HEX, ElementConfig("IIb", spec))
        assemble_transfer(dofs, basis)
        assert dofs.rule.degree == 2 * spec.k + 4
        assert [key for key in basis.bank._tables if key[:2] == ("rule", dofs.rule.degree)] == []

    def test_dofs_of_another_polygon_or_space_are_refused(self, tri_basis_k1):
        # the row blocks a basis keeps are keyed within its polygon and space
        spec = tri_basis_k1.spec
        other_polygon = build_polygon([(0.3, 0.0), (1.0, 0.2), (0.0, 1.0)])
        assert other_polygon.n_edges == TRI.n_edges and other_polygon != TRI
        other_space = HdivSpaceKind(SpaceTag.CLASSICAL, 1, inner_constructor=PolyFamily.LEGENDRE)
        kept = set(tri_basis_k1.derived)
        for dofs in (dof_set(other_polygon, ElementConfig("Ib", spec)), dof_set(TRI, ElementConfig("Ib", other_space))):
            with pytest.raises(ValueError, match="another polygon or space"):
                assemble_transfer(dofs, tri_basis_k1)
        assert set(tri_basis_k1.derived) == kept

    def test_count_mismatch(self, tri_basis_k1):
        spec = tri_basis_k1.spec
        dofs = dof_set(TRI, ElementConfig("Ib", spec))[:-1]
        with pytest.raises(CountMismatch):
            assemble_transfer(dofs, tri_basis_k1)


class TestRowBlockMemo:
    """``assemble_transfer`` keeps each block of Lambda rows on the basis;
    what it takes from there must be what a fresh assembly computes."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_shared_basis_matches_fresh(self, k):
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, k)
        mesh = triangulate(HEX, HEX.diameter / 16)
        shared = canonical_basis(HEX, spec, mesh=mesh)
        fresh = canonical_basis(HEX, spec, mesh=mesh)
        P = PolyFamily
        pairs = [(P.HERMITE, P.HERMITE), (P.LEGENDRE, P.HERMITE), (P.HERMITE, P.LEGENDRE), (P.CANONICAL_CENTERED_SCALED, P.CHEBYSHEV)]
        cases = [
            ElementConfig(config, spec, v, bproj, iproj)
            for config in ("Ia", "Ib", "IbShifted", "IIa", "IIb", "IIbShifted")
            for v in ([(1.0, 1.0), (1.0, -0.5)] if config in ("Ia", "Ib") else [(1.0, 1.0)])
            for bproj, iproj in pairs
        ]
        # one order in which every block is met both first and again
        order = np.random.default_rng(3).permutation(len(cases))
        for i in order:
            dofs = dof_set(HEX, cases[i])
            T = assemble_transfer(dofs, shared)
            assert np.array_equal(T.matrix, dof_values(dofs, fresh.functions)), cases[i]
        # an edge block per (config, v, boundary projector), eight pairs of
        # (config, v) and three projectors, and one per inner projector
        assert len(shared.derived) == 8 * 3 + 3


@functools.lru_cache(maxsize=None)
def _basis_at_16(shape, k):
    polygon = catalog_polygon(shape)
    mesh = triangulate(polygon, polygon.diameter / 16)
    return canonical_basis(polygon, HdivSpaceKind(SpaceTag.CLASSICAL, k), mesh=mesh)


def _direct_interior_rows(dofs, basis):
    """Lambda's interior rows assembled directly from the set's own family:
    each kernel at the rule points (``inner_poly``), its loads
    [K x, K, K y] by one ``load_vectors`` call, U met with them, and every
    entry its own vector-matrix product."""
    bank = basis.bank
    F = len(bank)
    x, y, _ = basis.mesh.rule_points(dofs.rule)
    rows = []
    for d in dofs:
        if d.edge is not None:
            continue
        M = np.zeros((2, 3 * F))
        for c, ij in ((0, d.kx), (1, d.ky)):
            if ij is not None:
                K = inner_poly(dofs.family, *ij, x, y, dofs.hull)
                b = bank.space.load_vectors([K * x, K, K * y], dofs.rule)
                W = np.array([b[2 * c], b[1]])
                M[c, :F], M[c, (1 + c) * F : (2 + c) * F] = (bank.U @ W[:, :, None])[..., 0]
        C = basis.coefficients
        rows.append(d.fx * (C @ M[0][:, None])[:, 0] + d.fy * (C @ M[1][:, None])[:, 0] - d.shift)
    return np.array(rows).reshape(-1, basis.size)


@pytest.mark.parametrize("shape", ["fig151", "fig165", "fig167"])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("iproj", [1, 2, 3, 4])
def test_low_order_interior_rows_match_direct_assembly(shape, k, iproj):
    # the interior rows are the finite-element moments of the set's own
    # kernels, bit for bit, whatever the edge DOFs around them
    basis = _basis_at_16(shape, k)
    dofs = dof_set(basis.polygon, ElementConfig("IIb", basis.spec, inner_projector=PolyFamily(iproj)))
    T = assemble_transfer(dofs, basis)
    assert np.array_equal(T.matrix[T.internal_rows], _direct_interior_rows(dofs, basis))


def _classify_oracle(tb, basis):
    """The classification with every tuned function evaluated directly:
    traces on each edge, interior values on the whole degree-2 table."""
    tau = basis.tau_bc
    fns = tb.functions
    bmax = np.zeros(len(fns))
    for e in basis.polygon.edges:
        s = np.linspace(0.0, e.length, 50)
        bmax = np.maximum(bmax, np.max(np.abs(fns.normal_trace_on(e, s)), axis=1))
    details = []
    for j, label in enumerate(basis.labels):
        if _label_edge(label) == -1:
            details.append((label, "internal"))
            continue
        inner = bmax[j] < 100.0 * tau and np.max(np.hypot(*fns[j].values_at_rule(triangle_rule(2)))) > 10.0 * tau
        details.append((label, "degenerated" if inner else "normal"))
    return details


def _classes(report, basis):
    """(label, class) of each function, from the report's per-function
    flags and the layout's owners."""
    return [
        (label, "degenerated" if d else "normal" if owner >= 0 else "internal")
        for label, owner, d in zip(basis.labels, basis.owners, report.per_function_degenerated)
    ]


class TestClassifyKeepsVerdicts:
    # 98 rows per order on three shapes at h = diameter/16: about 2 s in all
    @pytest.mark.parametrize("name", ["fig165", "fig152", "fig159"])
    def test_grid_matches_direct_evaluation(self, name):
        p = catalog_polygon(name)
        mesh = triangulate(p, p.diameter / 16)
        degenerated = 0
        for k in (1, 2):
            spec = HdivSpaceKind(SpaceTag.CLASSICAL, k)
            basis = canonical_basis(p, spec, mesh=mesh)
            for config in ("Ib", "IIb"):
                for bproj in PolyFamily:
                    for iproj in PolyFamily:
                        T = assemble_transfer(dof_set(p, ElementConfig(config, spec, (1.0, 1.0), bproj, iproj)), basis)
                        try:
                            tb = tune_basis(T, basis)
                        except SingularTransfer:
                            continue
                        details = _classes(classify_degenerate(tb, basis), basis)
                        assert details == _classify_oracle(tb, basis), (k, config, bproj, iproj)
                        degenerated += sum(c == "degenerated" for _, c in details)
        assert degenerated > 0

    def test_interior_read_past_the_first_triangles(self, tri_basis_k1):
        # a normal-origin function that is a multiple of an internal one: a
        # zero trace, below 10 tau_bc on the first 16 triangles and above it
        # elsewhere, so only the whole table finds it degenerated
        basis = tri_basis_k1
        tau = basis.tau_bc
        j, i = 0, basis.size - 1
        assert _label_edge(basis.labels[j]) >= 0 and _label_edge(basis.labels[i]) == -1
        rule = triangle_rule(2)
        magnitude = np.hypot(*basis.functions[i].values_at_rule(rule))
        head, whole = np.max(magnitude[: 16 * len(rule.weights)]), np.max(magnitude)
        assert head < whole
        A = np.eye(basis.size)
        A[j] = 0.0
        A[j, i] = 10.0 * tau / np.sqrt(head * whole)
        tb = TunedBasis(VectorField(basis.bank, A @ basis.coefficients), A)
        details = _classes(classify_degenerate(tb, basis), basis)
        assert details[j][1] == "degenerated"
        assert details == _classify_oracle(tb, basis)


class TestTuneBasis:
    def test_identity_transfer(self, tri_basis_k1):
        from polydiv.elements import TransferMatrix

        n = tri_basis_k1.size
        T = TransferMatrix(
            matrix=np.eye(n),
            row_labels=[f"r{i}" for i in range(n)],
            col_labels=[f"c{i}" for i in range(n)],
            edge_rows=[],
            internal_rows=slice(0, n),
        )
        tuned = tune_basis(T, tri_basis_k1)
        for t, b in zip(tuned.functions, tri_basis_k1.functions):
            assert np.allclose(t.rows, b.rows)

    def test_duality(self, tri_basis_k1):
        spec = tri_basis_k1.spec
        for conf in ("Ia", "Ib", "IIa", "IIb"):
            T = assemble_transfer(dof_set(TRI, ElementConfig(conf, spec)), tri_basis_k1)
            tuned = tune_basis(T, tri_basis_k1)
            assert duality_residual(T.matrix, tuned.A) < 1e-8

    def test_recomputed_dofs_on_tuned_functions(self, tri_basis_k1):
        # re-apply the DOFs to the combined fields, not just the matrices
        spec = tri_basis_k1.spec
        dofs = dof_set(TRI, ElementConfig("IIa", spec))
        tuned = tune_basis(assemble_transfer(dofs, tri_basis_k1), tri_basis_k1)
        n = len(dofs)
        idx = [0, n // 2, n - 1]
        for j in idx:
            values = dof_values(dofs, tuned.functions[j])
            for i in idx:
                assert values[i] == pytest.approx(1.0 if i == j else 0.0, abs=2e-9)

    def test_tuned_internal_keep_zero_traces(self, tri_basis_k1):
        spec = tri_basis_k1.spec
        T = assemble_transfer(dof_set(TRI, ElementConfig("Ib", spec)), tri_basis_k1)
        tuned = tune_basis(T, tri_basis_k1)
        for fn, label in zip(tuned.functions, tri_basis_k1.labels):
            if _label_edge(label) != -1:
                continue
            for e in TRI.edges:
                s = np.linspace(0, e.length, 30)
                assert np.max(np.abs(fn.normal_trace_on(e, s))) < 1e-8

    def test_singular_transfer_raises(self):
        p74 = catalog_polygon("fig74")
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 0)
        b = canonical_basis(p74, spec, h=p74.diameter / 24)
        T = assemble_transfer(_dof_set_unchecked(p74, ElementConfig("Ia", spec)), b)
        with pytest.raises(SingularTransfer):
            tune_basis(T, b)


class TestConditionNumber:
    def test_identity(self):
        assert condition_2norm(np.eye(5)) == pytest.approx(1.0)

    def test_diag(self):
        assert condition_2norm(np.diag([1.0, 10.0])) == pytest.approx(10.0)

    def test_worked_6x6(self):
        c = math.sqrt(2) / 2
        M = c * np.array(
            [
                [1 / 2, 0, 1 / 3, 1 / 4, 1 / 5, 1 / 6],
                [0, 1 / 2, 1 / 3, 1 / 12, 1 / 30, 1 / 60],
                [1, 1, 1, 1 / 2, 1 / 4, 1 / 8],
                [1 / 2, 1 / 2, 1 / 2, 1 / 3, 1 / 4, 1 / 5],
                [1 / 3, 1 / 3, 1 / 3, 1 / 4, 1 / 5, 1 / 6],
                [1 / 4, 1 / 4, 1 / 4, 1 / 5, 1 / 6, 1 / 7],
            ]
        )
        assert condition_2norm(M) == pytest.approx(17479, rel=0.01)


class TestWorkedExample:
    def test_entries_match_analytic(self):
        M = boundary_characterization_matrix(
            lambda t: (t, 1 - t), (math.sqrt(2) / 2, math.sqrt(2) / 2), l2=3
        )
        c = math.sqrt(2) / 2
        expected = c * np.array(
            [
                [1 / 2, 0, 1 / 3, 1 / 4, 1 / 5, 1 / 6],
                [0, 1 / 2, 1 / 3, 1 / 12, 1 / 30, 1 / 60],
                [1, 1, 1, 1 / 2, 1 / 4, 1 / 8],
                [1 / 2, 1 / 2, 1 / 2, 1 / 3, 1 / 4, 1 / 5],
                [1 / 3, 1 / 3, 1 / 3, 1 / 4, 1 / 5, 1 / 6],
                [1 / 4, 1 / 4, 1 / 4, 1 / 5, 1 / 6, 1 / 7],
            ]
        )
        assert np.max(np.abs(M - expected)) < 1e-12


class TestFailingCaseDetectors:
    def test_axis_edge_zero_row(self):
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 0)
        for name in ("fig172", "fig173"):
            p = catalog_polygon(name)
            b = canonical_basis(p, spec, h=p.diameter / 24, allow_invalid=True)
            T = assemble_transfer(_dof_set_unchecked(p, ElementConfig("Ib", spec)), b)
            assert zero_rows(T)

    def test_zero_matrix_has_every_row_zero(self):
        T = TransferMatrix(np.zeros((3, 3)), ["a", "b", "c"], ["a", "b", "c"], [], slice(0, 3))
        assert zero_rows(T) == [0, 1, 2]

    def test_origin_aligned_block_deficiency(self):
        p = catalog_polygon("fig170")
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 1)
        b = canonical_basis(p, spec, h=p.diameter / 24, allow_invalid=True)
        T = assemble_transfer(_dof_set_unchecked(p, ElementConfig("IIb", spec)), b)
        ratios = edge_block_singular_ratios(T)
        bad_edge = int(np.argmin([abs(e.xn) for e in p.edges]))
        assert ratios[bad_edge] < 1e-8

    def test_v_collinear_cond_blowup(self):
        p = catalog_polygon("fig74")
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 0)
        b = canonical_basis(p, spec, h=p.diameter / 24)
        condIa = assemble_transfer(_dof_set_unchecked(p, ElementConfig("Ia", spec)), b).cond2
        condIIa = assemble_transfer(_dof_set_unchecked(p, ElementConfig("IIa", spec)), b).cond2
        assert condIa >= 1e14
        assert condIIa < 1e5


class TestDegeneration:
    def test_counts_triangle_k1(self, tri_basis_k1):
        spec = tri_basis_k1.spec
        for conf, per_edge in (("Ia", 1), ("Ib", 1), ("IIa", 2), ("IIb", 2)):
            T = assemble_transfer(dof_set(TRI, ElementConfig(conf, spec)), tri_basis_k1)
            rep = classify_degenerate(tune_basis(T, tri_basis_k1), tri_basis_k1)
            assert rep.per_edge_degenerated == [per_edge] * 3, conf
            assert [c for _, c in _classes(rep, tri_basis_k1)].count("internal") == 3

    def test_shift_experiment(self):
        # replacing the point value by its shifted variant lifts previously
        # vanishing traces everywhere and worsens the conditioning
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 0)
        basis = canonical_basis(HEX, spec, mesh=HEX_MESH)
        T_plain = assemble_transfer(dof_set(HEX, ElementConfig("Ib", spec)), basis)
        T_shift = assemble_transfer(dof_set(HEX, ElementConfig("IbShifted", spec)), basis)
        assert T_shift.cond2 > T_plain.cond2
        tuned_plain = tune_basis(T_plain, basis)
        tuned_shift = tune_basis(T_shift, basis)
        rep = classify_degenerate(tuned_plain, basis)
        # the functions that degenerate in the plain element keep a uniform
        # nonvanishing trace in the shifted one
        for j, (label, cls) in enumerate(_classes(rep, basis)):
            if cls != "degenerated":
                continue
            fn = tuned_shift.functions[j]
            mins = []
            for e in HEX.edges:
                s = np.linspace(0.1 * e.length, 0.9 * e.length, 9)
                mins.append(np.min(np.abs(fn.normal_trace_on(e, s))))
            assert max(mins) > 1e3 * basis.tau_bc


class TestLimitCases:
    # hanging nodes and similar aligned edges only warn; elements stay
    # definable with usable conditionings
    @pytest.mark.parametrize("name", ["fig168", "fig169"])
    def test_elements_definable(self, name):
        p = catalog_polygon(name)
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 0)
        basis = canonical_basis(p, spec, h=p.diameter / 48)
        T = assemble_transfer(dof_set(p, ElementConfig("IIb", spec)), basis)
        assert np.isfinite(T.cond2)
        tuned = tune_basis(T, basis)
        assert duality_residual(T.matrix, tuned.A) < 1e-8

    def test_aligned_similar_edges_share_misc_rows(self):
        # the global misc rows of aligned similar edges coincide up to the
        # column permutation onto their own blocks
        p = catalog_polygon("fig168")
        spec = HdivSpaceKind(SpaceTag.CLASSICAL, 0)
        basis = canonical_basis(p, spec, h=p.diameter / 48)
        dofs = dof_set(p, ElementConfig("IIb", spec))
        T = assemble_transfer(dofs, basis)
        # edges 2 and 3 are the aligned similar pair of the hanging node;
        # same trace family on both edges gives identical own-block misc rows
        assert np.allclose(T.edge_block(2)[0], T.edge_block(3)[0], atol=1e-10)


def test_dofs_parallel_assembly_deterministic(tri_basis_k1):
    spec = tri_basis_k1.spec
    dofs = dof_set(TRI, ElementConfig("IIb", spec))
    T1 = assemble_transfer(dofs, tri_basis_k1).matrix
    T2 = assemble_transfer(dofs, tri_basis_k1).matrix
    assert np.array_equal(T1, T2)
