"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them).  Tolerances are pinned here, not configurable."""

import math
import time
from functools import partial

import numpy as np

from polydiv.catalog import catalog_polygon
from polydiv.elements import (
    ElementConfig,
    assemble_transfer,
    boundary_characterization_matrix,
    classify_degenerate,
    condition_2norm,
    dof_set,
    duality_residual,
    edge_block_singular_ratios,
    tune_basis,
    zero_rows,
    _dof_set_unchecked,
)
from polydiv.hdiv_basis import HdivSpaceKind, SpaceTag, canonical_basis
from polydiv.poisson import BoundaryData, solve_poisson_many, triangulate
from polydiv.polyfam import PolyFamily, SpaceFamily, SpaceSpec, space_dimension
from polydiv.quadrature import triangle_rule
from polydiv.rt_classical import (
    AffineMap,
    edge_flux_pairing,
    in_rt_space,
    piola,
    rt_basis,
    rt_divergence,
    rt_eval,
)
from polydiv.geometry import build_polygon

RNG = np.random.default_rng(20240815)

_RESULTS = []


def _report(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else "")
    print(line)
    _RESULTS.append(line)
    assert ok, line


def _mesh_cache():
    if not hasattr(_mesh_cache, "store"):
        _mesh_cache.store = {}
    return _mesh_cache.store


def _mesh(name, divisor=64):
    store = _mesh_cache()
    key = (name, divisor)
    if key not in store:
        p = catalog_polygon(name)
        store[key] = (p, triangulate(p, p.diameter / divisor))
    return store[key]


def _basis(name, tag, k, divisor=64, **kw):
    store = _mesh_cache()
    key = ("basis", name, tag, k, divisor)
    if key not in store:
        p, mesh = _mesh(name, divisor)
        store[key] = canonical_basis(p, HdivSpaceKind(tag, k), mesh=mesh, **kw)
    return store[key]


def test_criterion_1_dimension_formulas():
    t0 = time.perf_counter()
    ok = True
    tri_table = {2: [3, 8, 15, 24], 3: [4, 15, 36, 70], 4: [5, 24, 70, 160]}
    for d, dims in tri_table.items():
        for k, dim in enumerate(dims):
            ok &= space_dimension(SpaceSpec(SpaceFamily.RT_TRI, k=k, d=d)) == dim
    quad_table = {2: [4, 12, 24, 40], 3: [6, 36, 108, 240], 4: [8, 96, 432, 1280]}
    for d, dims in quad_table.items():
        for k, dim in enumerate(dims):
            ok &= space_dimension(SpaceSpec(SpaceFamily.RT_QUAD, k=k, d=d)) == dim
    ok &= space_dimension(SpaceSpec(SpaceFamily.HK_GENERAL, d=2, n=6, l1=0, l2=1, m1=0, m2=0)) == 27
    ok &= space_dimension(SpaceSpec(SpaceFamily.HK_GENERAL, d=2, n=6, l1=0, l2=0, m1=-1, m2=-1)) == 18
    for n in range(3, 13):
        for k in range(1, 4):
            ok &= (
                space_dimension(SpaceSpec(SpaceFamily.HK_CLASSICAL, k=k, n=n))
                == n * (k + 3) + 2 * k * (k + 1) - 1
            )
    formula_time = time.perf_counter() - t0
    # constructed-basis counts match the formulas exactly (coarse meshes)
    for name, n in (("fig151", 3), ("fig165", 6), ("fig167", 10)):
        p = catalog_polygon(name)
        mesh = triangulate(p, p.diameter / 12)
        for k in range(4):
            b = canonical_basis(p, HdivSpaceKind(SpaceTag.CLASSICAL, k), mesh=mesh)
            ok &= b.size == space_dimension(SpaceSpec(SpaceFamily.HK_CLASSICAL, k=k, n=n))
    _report("1-dimension-formulas", ok and formula_time < 1.0, f"formula check {formula_time*1e3:.1f} ms")


def test_criterion_2_worked_example():
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
    entry_err = float(np.max(np.abs(M - expected)))
    cond = condition_2norm(M)
    ok = entry_err < 1e-12 and abs(cond - 17479) / 17479 < 0.01
    _report("2-worked-unisolvence-matrix", ok, f"entry err {entry_err:.2e}, cond {cond:.1f}")


def test_criterion_3_failing_cases():
    details = []
    ok = True
    spec0 = HdivSpaceKind(SpaceTag.CLASSICAL, 0)

    t0 = time.perf_counter()
    p74, mesh74 = _mesh("fig74")
    b74 = canonical_basis(p74, spec0, mesh=mesh74)
    conds = {}
    for conf in ("Ia", "Ib", "IIa", "IIb"):
        T = assemble_transfer(_dof_set_unchecked(p74, ElementConfig(conf, spec0)), b74)
        conds[conf] = T.cond2
    ok &= conds["Ia"] >= 1e14 and conds["Ib"] >= 1e14
    ok &= conds["IIa"] < 1e5 and conds["IIb"] < 1e5
    t74 = time.perf_counter() - t0
    ok &= t74 < 30.0
    details.append(f"fig74 Ia {conds['Ia']:.1e} IIa {conds['IIa']:.0f} ({t74:.1f}s)")

    for name in ("fig172", "fig173"):
        t0 = time.perf_counter()
        p, mesh = _mesh(name)
        b = canonical_basis(p, spec0, mesh=mesh, allow_invalid=True)
        T = assemble_transfer(_dof_set_unchecked(p, ElementConfig("Ib", spec0)), b)
        rows = zero_rows(T)
        dt = time.perf_counter() - t0
        ok &= bool(rows) and dt < 30.0
        details.append(f"{name} zero rows {rows} ({dt:.1f}s)")

    t0 = time.perf_counter()
    p170, mesh170 = _mesh("fig170")
    spec1 = HdivSpaceKind(SpaceTag.CLASSICAL, 1)
    b170 = canonical_basis(p170, spec1, mesh=mesh170, allow_invalid=True)
    T = assemble_transfer(_dof_set_unchecked(p170, ElementConfig("IIb", spec1)), b170)
    ratios = edge_block_singular_ratios(T)
    bad = int(np.argmin([abs(e.xn) for e in p170.edges]))
    dt = time.perf_counter() - t0
    ok &= ratios[bad] < 1e-8 and dt < 30.0
    details.append(f"fig170 block ratio {ratios[bad]:.1e} ({dt:.1f}s)")
    _report("3-failing-cases", ok, "; ".join(details))


def test_criterion_4_offset_law():
    p = catalog_polygon("fig167")
    mesh = triangulate(p, p.diameter / 128)
    basis = canonical_basis(p, HdivSpaceKind(SpaceTag.CLASSICAL, 0), mesh=mesh)
    e = p.edges[2]  # edge 3 in one-based numbering
    xn = e.xn
    fn = basis.normal_groups[2][0]
    s = np.linspace(0.0, e.length, 21)
    trace_err = float(np.max(np.abs(fn.normal_trace_on(e, s) - (xn + 2.0))))
    ok = abs(xn - 0.76) <= 0.02 and trace_err <= 0.02
    _report("4-offset-law", ok, f"x.n = {xn:.4f}, trace err {trace_err:.2e}")


def test_criterion_5_degeneration_counts():
    ok = True
    details = []
    for k in (0, 1, 2):
        basis = _basis("fig165", SpaceTag.CLASSICAL, k)
        p = basis.polygon
        for conf, expect in (("Ia", 1), ("Ib", 1), ("IIa", 2), ("IIb", 2)):
            T = assemble_transfer(dof_set(p, ElementConfig(conf, basis.spec)), basis)
            rep = classify_degenerate(tune_basis(T, basis), basis)
            good = rep.per_edge_degenerated == [expect] * 6
            ok &= good
            if not good:
                details.append(f"k={k} {conf}: {rep.per_edge_degenerated}")
        rbasis = _basis("fig165", SpaceTag.REDUCED_LAGRANGE_BC, k)
        T = assemble_transfer(dof_set(p, ElementConfig("IIb", rbasis.spec)), rbasis)
        rep = classify_degenerate(tune_basis(T, rbasis), rbasis)
        ok &= rep.degenerated == 0
        if rep.degenerated:
            details.append(f"k={k} reduced: {rep.degenerated}")
    _report("5-degeneration-counts", ok, "; ".join(details) or "Ia/Ib:1, IIa/IIb:2, reduced:0 per edge")


def test_criterion_6_block_and_split_structure():
    shapes = ("fig151", "fig152", "fig159", "fig161", "fig165")
    ok = True
    worst_off = 0.0
    worst_int = 0.0
    worst_dual = 0.0
    for name in shapes:
        for k in (0, 1):
            basis = _basis(name, SpaceTag.CLASSICAL, k)
            p = basis.polygon
            internal_ref = None
            for conf in ("Ia", "Ib", "IIa", "IIb"):
                T = assemble_transfer(dof_set(p, ElementConfig(conf, basis.spec)), basis)
                n_edges = p.n_edges
                for i in range(n_edges):
                    for j in range(n_edges):
                        if i == j:
                            continue
                        block = T.matrix[T.edge_rows[i], T.edge_rows[j]]
                        rel = float(np.max(np.abs(block))) / (basis.tau_bc * p.edges[i].length)
                        worst_off = max(worst_off, rel)
                        ok &= rel < 1.0
                sub = T.internal_submatrix
                if internal_ref is None:
                    internal_ref = sub
                else:
                    d = float(np.max(np.abs(sub - internal_ref))) if sub.size else 0.0
                    worst_int = max(worst_int, d)
                    ok &= d < 1e-12
                if T.cond2 < 1e8:
                    tuned = tune_basis(T, basis)
                    res = duality_residual(T.matrix, tuned.A)
                    worst_dual = max(worst_dual, res)
                    ok &= res < 1e-8
    _report(
        "6-block-and-split",
        ok,
        f"off-block/tol {worst_off:.1e}, internal diff {worst_int:.1e}, duality {worst_dual:.1e}",
    )


def test_criterion_7_rt_cross_validation():
    ok = True
    details = []
    # global Lagrangian delta property, k <= 3
    worst_delta = 0.0
    for k in range(4):
        b = rt_basis("triangle", k, "global")
        fns = [f for g in b.normal_groups for f in g]
        pts = [(e, s) for e, nodes in zip(b.polygon.edges, b.sample_nodes) for s in nodes]
        M = np.zeros((len(fns), len(pts)))
        for i, f in enumerate(fns):
            for j, (e, s) in enumerate(pts):
                pp = e.point_at(s)
                M[i, j] = rt_eval(f, pp[0], pp[1]) @ np.array(e.normal)
        worst_delta = max(worst_delta, float(np.max(np.abs(M - np.eye(len(fns))))))
    ok &= worst_delta < 1e-12
    details.append(f"delta err {worst_delta:.1e}")
    # divergence stays in the declared space (coefficient check)
    for shape in ("triangle", "quad"):
        for k in range(4):
            for q in rt_basis(shape, k).coefficients:
                ok &= in_rt_space(q, shape, k)
                d = rt_divergence(q)
                i, j = np.nonzero(np.abs(d) > 1e-14 * np.abs(d).max())
                if shape == "triangle":
                    ok &= bool(np.all(i + j <= k))
                else:
                    ok &= bool(np.all(i <= k) and np.all(j <= k))
    # Piola-mapped normal-flux pairings under 20 random affine maps
    b = rt_basis("triangle", 1)
    worst_pair = 0.0
    count = 0
    while count < 20:
        V = RNG.normal(scale=1.2, size=(3, 2))
        J = np.array(
            [[V[1, 0] - V[0, 0], V[2, 0] - V[0, 0]], [V[1, 1] - V[0, 1], V[2, 1] - V[0, 1]]]
        )
        if np.linalg.det(J) < 0.05:
            continue
        count += 1
        amap = AffineMap(V)
        target = build_polygon(V.tolist())
        for C in b.coefficients[::2]:
            f = partial(rt_eval, C)
            fp = piola(amap, f)
            for eref, etgt in zip(b.polygon.edges, target.edges):
                for m in range(2):
                    ref = edge_flux_pairing(f, eref, lambda s: (s / eref.length) ** m)
                    got = edge_flux_pairing(fp, etgt, lambda s: (s / etgt.length) ** m)
                    worst_pair = max(worst_pair, abs(got - ref))
    ok &= worst_pair < 1e-9
    details.append(f"pairing err {worst_pair:.1e}")
    _report("7-rt-cross-validation", ok, "; ".join(details))


def _reduced_iib_fig151_conds():
    store = _mesh_cache()
    if "8a-conds" not in store:
        p, mesh = _mesh("fig151")
        conds = []
        for k in (1, 2, 3):
            spec = HdivSpaceKind(SpaceTag.REDUCED_LAGRANGE_BC, k)
            basis = canonical_basis(p, spec, mesh=mesh)
            conds.append(assemble_transfer(dof_set(p, ElementConfig("IIb", spec)), basis).cond2)
        store["8a-conds"] = conds
    return store["8a-conds"]


def test_criterion_8_conditioning_trends():
    t0 = time.perf_counter()
    ok = True
    details = []
    # (a) reduced IIb on the fig151 triangle: strictly increasing across
    # k = 1, 2, 3 (the factor-of-10 anchor on the reported values is
    # asserted separately below)
    conds = _reduced_iib_fig151_conds()
    increasing = conds[0] < conds[1] < conds[2]
    ok &= increasing
    details.append("(a) conds " + ", ".join(f"{c:.3g}" for c in conds) + f" increasing: {increasing}")
    # (b) inner-projector ordering on the fig165 hexagon at k = 2 (element Ib)
    basis = _basis("fig165", SpaceTag.CLASSICAL, 2)
    p6 = basis.polygon
    fam_cond = {}
    for fam in (PolyFamily.LAGUERRE, PolyFamily.CANONICAL_UNSCALED, PolyFamily.HERMITE):
        cfg = ElementConfig("Ib", basis.spec, inner_projector=fam)
        fam_cond[fam] = assemble_transfer(dof_set(p6, cfg), basis).cond2
    order_ok = (
        fam_cond[PolyFamily.LAGUERRE]
        > fam_cond[PolyFamily.CANONICAL_UNSCALED]
        > fam_cond[PolyFamily.HERMITE]
    )
    ok &= order_ok
    details.append(
        f"(b) Laguerre {fam_cond[PolyFamily.LAGUERRE]:.2g} > raw {fam_cond[PolyFamily.CANONICAL_UNSCALED]:.2g}"
        f" > Hermite {fam_cond[PolyFamily.HERMITE]:.2g}: {order_ok}"
    )
    # (c) internal-submatrix conditioning grows by >= 10x per order on the
    # fig167 decagon
    p10, mesh10 = _mesh("fig167")
    prev = None
    growth_ok = True
    internal_conds = []
    for k in (1, 2, 3):
        basis = canonical_basis(p10, HdivSpaceKind(SpaceTag.CLASSICAL, k), mesh=mesh10)
        T = assemble_transfer(dof_set(p10, ElementConfig("Ia", basis.spec)), basis)
        c = condition_2norm(T.internal_submatrix)
        internal_conds.append(c)
        if prev is not None:
            growth_ok &= c >= 10.0 * prev
        prev = c
    ok &= growth_ok
    details.append("(c) internal conds " + ", ".join(f"{c:.3g}" for c in internal_conds))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 900.0
    details.append(f"{elapsed:.0f}s")
    _report("8-conditioning-trends", ok, "; ".join(details))


def test_criterion_8a_reference_conditionings():
    # The reference values 15 | 12536 | 670252578 must be matched within a
    # factor of 10.  On the fig151 triangle this is unattainable at k = 1:
    # edge 0 has x.n = 0.0485, the two reduced traces on it are
    # 0.0485 l_m(s) + 2 (nearly parallel), and since the edge's DOF rows are
    # supported on its own block alone, cond(Lambda) >= ~42 for any
    # trace-based DOF pair.  A value of 15 can therefore only belong to a
    # differently placed triangle.  The assertion is kept as stated.
    conds = _reduced_iib_fig151_conds()
    targets = (15.0, 12536.0, 670252578.0)
    factors = [max(c / t, t / c) for c, t in zip(conds, targets)]
    _report(
        "8a-reference-conditionings",
        all(f <= 10.0 for f in factors),
        "conds " + ", ".join(f"{c:.3g}" for c in conds) + f"; factors {[f'{f:.1f}' for f in factors]}",
    )


def test_criterion_9_poisson_solver():
    square = build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    bc_quad = BoundaryData(
        square,
        [
            lambda s: s ** 2,
            lambda s: 1 + s ** 2,
            lambda s: (1 - s) ** 2 + 1,
            lambda s: (1 - s) ** 2,
        ],
    )
    errs = []
    for h in (0.2, 0.1, 0.05):  # two uniform refinements
        mesh = triangulate(square, h)
        bank = solve_poisson_many(mesh, [(lambda x, y: 4.0 + 0 * x, bc_quad)])
        rule = triangle_rule(6)
        x, y, w = mesh.rule_points(rule)
        diff = bank.rule_samples(rule)[0] - (x ** 2 + y ** 2)
        errs.append(math.sqrt(float(np.dot(w, diff ** 2))))
    if max(errs) < 1e-10:
        conv_ok = True
        conv_note = f"quadratic exactly represented (errors {errs[0]:.1e}..{errs[-1]:.1e})"
    else:
        rate = math.log(errs[0] / errs[-1]) / math.log(4.0)
        conv_ok = rate >= 1.8
        conv_note = f"L2 rate {rate:.2f}"
    # constants and linear harmonics exact to 1e-10
    mesh = triangulate(square, 0.1)
    uc = solve_poisson_many(mesh, [(None, BoundaryData.constant(square, 1.0))])[0]
    linear = BoundaryData(square, [lambda s: s, lambda s: np.ones_like(s), lambda s: 1 - s, lambda s: 0.0 * s])
    ul = solve_poisson_many(mesh, [(None, linear)])[0]
    pts = np.array([(0.3, 0.4), (0.8, 0.2), (0.5, 0.9)])
    errc = float(np.max(np.abs(uc.value_and_grad(pts[:, 0], pts[:, 1])[0] - 1.0)))
    errl = float(np.max(np.abs(ul.value_and_grad(pts[:, 0], pts[:, 1])[0] - pts[:, 0])))
    ok = conv_ok and errc < 1e-10 and errl < 1e-10
    _report("9-poisson-solver", ok, f"{conv_note}; const err {errc:.1e}, linear err {errl:.1e}")
