"""Degree-of-freedom sets for the element configurations Ia/Ib/IbShifted/
IIa/IIb/IIbShifted, transfer-matrix assembly, duality tuning, condition
numbers, and classification of degenerating basis functions.

A DOF is data: arc parameters on one edge and the weights it puts on q_x
and q_y there, or the kernel degrees of an interior moment; and a shift.
``dof_moments`` turns the DOFs into moment rows: the edge DOFs, grouped by
their number of sample points, meet their weights with the bank's
Dirichlet data there, and the interior moments meet the bank's
coefficients U with the finite-element load vectors of the family's
kernels, the assembly that the Poisson solves use.  ``dof_values`` meets
the moment rows with the coefficient rows [P | Cx | Cy] of one function or
a stack.  Lambda is ``dof_values`` on the stack of a canonical basis, one
row block (edge DOFs, interior moments) at a time, each block assembled
once per basis; tuning is A @ [P | Cx | Cy].
The exact Raviart-Thomas polynomials, which have no bank, are assembled
and tuned in ``rt_classical``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import I_FAMILY, Edge, Point2, Polygon, ShapeViolation, validate_shape
from .hdiv_basis import CanonicalBasis, HdivSpaceKind, SpaceTag, VectorField
from .poisson import FieldBank
from .polyfam import PolyFamily, boundary_projector, gauss_legendre_nodes, inner_poly
from .quadrature import QuadRule2D, edge_rule_points, triangle_rule

__all__ = [
    "CountMismatch",
    "SingularTransfer",
    "ElementConfig",
    "Dof",
    "DofSet",
    "TransferMatrix",
    "TunedBasis",
    "DegenerationReport",
    "dof_set",
    "dof_moments",
    "dof_values",
    "assemble_transfer",
    "tune_basis",
    "condition_2norm",
    "inverse_transpose",
    "duality_residual",
    "classify_degenerate",
    "zero_rows",
    "edge_block_singular_ratios",
    "boundary_characterization_matrix",
    "CONFIG_NAMES",
    "COND_CEILING",
]

CONFIG_NAMES = ("Ia", "Ib", "IbShifted", "IIa", "IIb", "IIbShifted")
COND_CEILING = 1e14


class CountMismatch(AssertionError):
    pass


class SingularTransfer(RuntimeError):
    pass


@dataclass(frozen=True)
class ElementConfig:
    """One element: configuration name, space, misc vector v and projector
    families.  Edge moments use k+3 Gauss points, interior moments the
    space's triangle rule (``HdivSpaceKind.rule_degree``)."""

    config: str
    space: HdivSpaceKind
    v: Tuple[float, float] = (1.0, 1.0)
    boundary_projector: PolyFamily = PolyFamily.HERMITE
    inner_projector: PolyFamily = PolyFamily.HERMITE

    def __post_init__(self):
        if self.config not in CONFIG_NAMES:
            raise ValueError(f"config {self.config!r} is not one of {list(CONFIG_NAMES)}")


@dataclass(eq=False)
class Dof:
    """A linear functional on vector fields,

        sigma(q) = fx * sum(wx q_x) + fy * sum(wy q_y) - shift,

    summed over its sample points.  Edge functionals sample the exact trace
    at the arc parameters ``s`` of ``edge`` and carry their weights
    ``wx``/``wy`` there.  Interior moments (``edge`` None) integrate q_x
    and q_y against the set's kernels of degrees ``kx``/``ky`` (None for a
    zero kernel).  The factors ``fx``/``fy`` hold a normal component that
    the functional applies after the sum (n_x in n_x * integral(x q_x)), so
    that an exact zero keeps its sign; a functional that reads one
    component repeats its factor on the other.  ``shift`` is the constant
    subtracted by the Shifted variants; ``kind`` is a descriptive tag.
    """

    kind: str
    label: str
    edge: Optional[Edge] = None
    s: Optional[np.ndarray] = None
    wx: Optional[np.ndarray] = None
    wy: Optional[np.ndarray] = None
    fx: float = 1.0
    fy: float = 1.0
    shift: float = 0.0
    kx: Optional[Tuple[int, int]] = None
    ky: Optional[Tuple[int, int]] = None


class DofSet(list):
    """The ordered DOFs of one element on ``polygon`` in ``space``, plus
    what its interior moments share: the kernel ``family``, the polygon's
    ``hull`` (barycenter, area) that scales the kernels, and the space's
    triangle ``rule``; the last two are read from the polygon and the
    space.  ``blocks`` pairs the edge DOFs and the interior
    moments, each a slice, with a key that holds what defines their rows
    on that polygon in that space: (config, v, boundary projector), or the
    inner projector.  Two such sets with one key have the same rows there.
    A slice is a list."""

    def __init__(self, dofs: Sequence[Dof], polygon: Polygon, space: HdivSpaceKind, family: PolyFamily, blocks=()):
        super().__init__(dofs)
        self.polygon, self.space, self.family = polygon, space, family
        self.blocks: Tuple[Tuple[Hashable, slice], ...] = tuple(blocks)

    @property
    def hull(self) -> Tuple[Point2, float]:
        return (self.polygon.hull_barycenter, self.polygon.hull_area)

    @property
    def rule(self) -> QuadRule2D:
        return triangle_rule(self.space.rule_degree)

    def with_family(self, family: PolyFamily) -> "DofSet":
        """The same DOFs with the interior moments taken against the kernels
        of ``family``: the set ``dof_set`` builds for that inner projector."""
        edge, (_, internal) = self.blocks
        return DofSet(self, self.polygon, self.space, family, (edge, (family, internal)))


def dof_moments(dofs: DofSet, bank: FieldBank) -> Tuple[np.ndarray, np.ndarray]:
    """Moment rows (Mx, My), one per DOF: sum(wx q_x) and sum(wy q_y) of a
    function with coefficient row [P | Cx | Cy] over the bank are its dot
    products with Mx[i] and My[i].

    Each row has the bits of its own vector-matrix product of a table with
    the DOF's weights (``tables @ W[:, :, None]``).  The edge DOFs with one
    number of sample points form a group, whose weights meet the bank's
    Dirichlet data at each DOF's own points in one product.  The interior
    moments meet U with the load vectors of [K x, K, K y] for each distinct
    kernel K of the set's family, since the moment of u_f against K is
    U[f] . b(K); a zero kernel has zero loads."""
    groups: Dict[int, List[int]] = {}
    interior: List[int] = []
    for i, d in enumerate(dofs):
        if d.edge is None:
            interior.append(i)
        else:
            groups.setdefault(len(d.s), []).append(i)
    F = len(bank)
    Mx, My = np.zeros((2, len(dofs), 3 * F))
    for rows in groups.values():
        group = [dofs[i] for i in rows]
        tables = np.array([bank.edge_samples(d.edge.index, d.s) for d in group])
        points = {}  # each edge's points at each of its sets of arc parameters
        for d in group:
            key = (d.edge.index, d.s.tobytes())
            if key not in points:
                points[key] = d.edge.point_at(d.s)
        x, y = np.array([points[d.edge.index, d.s.tobytes()] for d in group]).transpose(2, 0, 1)
        wx = np.array([d.wx for d in group])
        wy = np.array([d.wy for d in group])
        # each DOF's (position, constant) weights of q_x and of q_y
        for M, W, cols in (
            (Mx, wx * x, slice(F)),
            (Mx, wx, slice(F, 2 * F)),
            (My, wy * y, slice(F)),
            (My, wy, slice(2 * F, None)),
        ):
            M[rows, cols] = (tables @ W[:, :, None])[..., 0]
    if interior:
        x, y, _ = bank.mesh.rule_points(dofs.rule)
        loads = {None: np.zeros((3, bank.U.shape[1]))}
        for ij in [dofs[i].kx for i in interior] + [dofs[i].ky for i in interior]:
            if ij not in loads:
                K = inner_poly(dofs.family, *ij, x, y, dofs.hull)
                loads[ij] = bank.space.load_vectors([K * x, K, K * y], dofs.rule)
        bx = [loads[dofs[i].kx] for i in interior]
        by = [loads[dofs[i].ky] for i in interior]
        # each DOF's (position, constant) loads of q_x and of q_y
        for M, W, cols in (
            (Mx, [b[0] for b in bx], slice(F)),
            (Mx, [b[1] for b in bx], slice(F, 2 * F)),
            (My, [b[2] for b in by], slice(F)),
            (My, [b[1] for b in by], slice(2 * F, None)),
        ):
            M[interior, cols] = (bank.U @ np.array(W)[:, :, None])[..., 0]
    return Mx, My


def dof_values(dofs: DofSet, q: VectorField) -> np.ndarray:
    """sigma_i(q) = fx (q . Mx[i]) + fy (q . My[i]) - shift of every DOF:
    one value per DOF for one function, a (DOFs, functions) array for a
    stack.  Each entry is its own vector-matrix product of the coefficient
    rows with one moment row (``C @ M[:, :, None]``), not one GEMM, so an
    entry keeps its bits whatever else is in the stack (or in the set: an
    empty set gives no rows)."""
    Mx, My = dof_moments(dofs, q.bank)
    C = np.atleast_2d(q.rows)
    fx, fy, shift = (np.array([getattr(d, a) for d in dofs], dtype=float)[:, None] for a in ("fx", "fy", "shift"))
    values = fx * (C @ Mx[:, :, None])[..., 0] + fy * (C @ My[:, :, None])[..., 0] - shift
    return values if q.rows.ndim == 2 else values[:, 0]


def dof_set(polygon: Polygon, cfg: ElementConfig) -> DofSet:
    """Ordered degrees of freedom: per edge core (ascending projector
    degree), misc, supplementary (x then y); interior moments last, x
    component then y component in (l, m) order, coupled moment final."""
    diag = validate_shape(polygon, cfg.config, cfg.v)
    if diag.violations:
        raise ShapeViolation(diag)
    return _dof_set_unchecked(polygon, cfg)


def _dof_set_unchecked(polygon: Polygon, cfg: ElementConfig) -> DofSet:
    k = cfg.space.k
    reduced = cfg.space.tag is not SpaceTag.CLASSICAL
    dofs: List[Dof] = []
    for e in polygon.edges:
        s, w = edge_rule_points(e, k + 3)
        mid, one, zero = np.array([e.length / 2.0]), np.ones(1), np.zeros(1)
        unread = np.zeros_like(s)
        nx, ny = e.normal

        def add(kind, tag, wx, wy, fx=1.0, fy=1.0, at=s, shift=0.0):
            dofs.append(
                Dof(kind, f"edge{e.index}:{tag}", edge=e, s=at, wx=wx, wy=wy, fx=fx, fy=fy, shift=shift)
            )

        for i in range(1, k + 1):  # integral of (q . n) p_i
            kernel = w * np.asarray(boundary_projector(cfg.boundary_projector, i, s, e.length))
            add("core", f"core{i}", kernel * nx, kernel * ny)
        if cfg.config in I_FAMILY:  # integral of s (v . q)
            vx, vy = cfg.v
            add("misc-I", "misc", w * s * vx, w * s * vy)
        elif cfg.config == "IIa":  # integral of q . n
            add("misc-IIa", "misc", w * nx, w * ny)
        else:  # q . n at the midpoint
            shift = 1.0 if cfg.config == "IIbShifted" else 0.0
            add("misc-IIb", "misc", one, one, nx, ny, at=mid, shift=shift)
        if not reduced:
            if cfg.config == "Ia":  # n_x integral of q_x, n_y integral of q_y
                add("supp-int-x", "supp-x", w, unread, nx, nx)
                add("supp-int-y", "supp-y", unread, w, ny, ny)
            elif cfg.config in ("Ib", "IbShifted"):  # n_x q_x, n_y q_y at the midpoint
                shift = 1.0 if cfg.config == "IbShifted" else 0.0
                add("supp-pt-x", "supp-x", one, zero, nx, nx, at=mid, shift=shift)
                add("supp-pt-y", "supp-y", zero, one, ny, ny, at=mid, shift=shift)
            else:  # IIa / IIb / IIbShifted: n_x integral of x q_x, n_y of y q_y
                pts = e.point_at(s)
                add("supp-int-x", "supp-x", w * pts[:, 0], unread, nx, nx)
                add("supp-int-y", "supp-y", unread, w * pts[:, 1], ny, ny)

    def interior(kind, label, kx=None, ky=None):
        dofs.append(Dof(kind, label, kx=kx, ky=ky))

    if k > 0:
        pairs = [(l, m) for l in range(k + 1) for m in range(k) if (l, m) != (k, k - 1)]
        for l, m in pairs:
            interior("internal-x", f"int:x:q{l}{m}", kx=(l, m))
        for l, m in pairs:
            interior("internal-y", f"int:y:q{m}{l}", ky=(m, l))
        interior("internal-coupled", "int:coupled", kx=(k, k - 1), ky=(k - 1, k))
    expected = cfg.space.dimension(polygon.n_edges)
    if len(dofs) != expected:
        raise CountMismatch(f"{len(dofs)} DOFs assembled, space dimension {expected}")
    internal = cfg.space.layout(polygon.n_edges)[1]
    blocks = (
        ((cfg.config, tuple(cfg.v), cfg.boundary_projector), slice(0, internal.start)),
        (cfg.inner_projector, internal),
    )
    return DofSet(dofs, polygon, cfg.space, cfg.inner_projector, blocks)


@dataclass
class TransferMatrix:
    """Lambda with Lambda_ij = sigma_i(phi_j), DOFs and functions grouped by
    edge then internal.  Lambda is square and both axes are grouped alike,
    so the row slices also select the columns."""

    matrix: np.ndarray
    row_labels: List[str]
    col_labels: List[str]
    edge_rows: List[slice]
    internal_rows: slice

    _svals: Optional[np.ndarray] = None

    @property
    def singular_values(self) -> np.ndarray:
        if self._svals is None:
            self._svals = np.linalg.svd(self.matrix, compute_uv=False)
        return self._svals

    @property
    def cond2(self) -> float:
        return _sv_ratio(self.singular_values)

    @property
    def internal_submatrix(self) -> np.ndarray:
        return self.matrix[self.internal_rows, self.internal_rows]

    def edge_block(self, i: int) -> np.ndarray:
        return self.matrix[self.edge_rows[i], self.edge_rows[i]]


def assemble_transfer(dofs: DofSet, basis: CanonicalBasis) -> TransferMatrix:
    """Lambda of the DOFs on a canonical basis of their polygon and space:
    the DOF values of the stack of its functions.  Each block of rows (edge
    DOFs, interior moments) is computed the first time its key meets the
    basis and kept in ``basis.derived``; every entry is its own product, so
    the stacked blocks have the bits of one call on the whole set."""
    n = basis.size
    if len(dofs) != n:
        raise CountMismatch(f"{len(dofs)} DOFs vs {n} functions")
    if dofs.polygon != basis.polygon or dofs.space != basis.spec:
        raise ValueError("the DOF set belongs to another polygon or space than the basis")
    for key, rows in dofs.blocks:
        if key not in basis.derived:
            block = DofSet(dofs[rows], dofs.polygon, dofs.space, dofs.family)
            basis.derived[key] = dof_values(block, basis.functions)
    L = np.vstack([basis.derived[key] for key, _ in dofs.blocks])
    edges, internal = basis.spec.layout(basis.polygon.n_edges)
    return TransferMatrix(
        matrix=L,
        row_labels=[d.label for d in dofs],
        col_labels=basis.labels,
        edge_rows=edges,
        internal_rows=internal,
    )


def inverse_transpose(L: np.ndarray) -> np.ndarray:
    """Inverse transpose with two Newton refinement sweeps, keeping the
    duality residual near machine precision for moderate conditionings."""
    n = L.shape[0]
    eye = np.eye(n)
    X = np.linalg.solve(L, eye)
    for _ in range(2):
        X = X + X @ (eye - L @ X)
    return X.T


def duality_residual(L: np.ndarray, A: np.ndarray) -> float:
    """max |L A^T - I|: how far the combination A is from dual to the DOFs
    whose transfer matrix is L."""
    return float(np.max(np.abs(L @ A.T - np.eye(len(L)))))


@dataclass
class TunedBasis:
    """Basis dual to the DOFs: phi'_j = sum_m A_jm phi_m with A the inverse
    transpose of the transfer matrix, one VectorField stack over the bank."""

    functions: VectorField
    A: np.ndarray


def tune_basis(T: TransferMatrix, basis: CanonicalBasis) -> TunedBasis:
    cond = T.cond2
    if not np.isfinite(cond) or cond > COND_CEILING:
        raise SingularTransfer(
            f"transfer matrix condition {cond:.3e} above ceiling {COND_CEILING:.0e};"
            " the shape/DOF combination is not unisolvent"
        )
    A = inverse_transpose(T.matrix)
    tuned = VectorField(basis.bank, A @ basis.coefficients)
    return TunedBasis(functions=tuned, A=A)


def condition_2norm(M: np.ndarray) -> float:
    """2-norm condition number via the full singular value decomposition."""
    return _sv_ratio(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False))


def _sv_ratio(sv: np.ndarray) -> float:
    """sv[0] / sv[-1] of descending singular values; inf when sv[-1] is 0."""
    return math.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])


@dataclass
class DegenerationReport:
    degenerated: int
    per_edge_degenerated: List[int]
    details: List[Tuple[str, str]]  # (function label, classification)


def classify_degenerate(tb: TunedBasis, basis: CanonicalBasis) -> DegenerationReport:
    """Classify tuned functions: one of normal origin (an edge owns it in
    the space's layout, ``basis.owners``) whose boundary normal trace (50
    samples per edge) stays below 100 tau_bc while its interior magnitude
    (degree-2 rule points) exceeds 10 tau_bc has degenerated into an
    internal function.  tau_bc reads its 1e-11 floor on every catalog
    shape, so in practice the thresholds are 1e-9 and 1e-10.  ``details``
    pairs each function's label with its class.

    The tuned traces are A @ the canonical ones, which are sampled once per
    basis and kept in ``basis.derived``.  A small-trace function is first
    measured on the rule points of the first 16 triangles; only one still
    below 10 tau_bc there is measured on all of them."""
    tau = basis.tau_bc
    polygon = basis.polygon
    fns = tb.functions
    key = ("normal traces", 50)
    if key not in basis.derived:
        canonical = basis.functions
        basis.derived[key] = np.hstack(
            [canonical.normal_trace_on(e, np.linspace(0.0, e.length, 50)) for e in polygon.edges]
        )
    bmax = np.max(np.abs(tb.A @ basis.derived[key]), axis=1)
    owner = basis.owners
    normal = owner >= 0
    small = np.flatnonzero(normal & (bmax < 100.0 * tau))
    rule = triangle_rule(2)
    x, y, _ = basis.mesh.rule_points(rule)
    head = slice(16 * len(rule.weights))
    table = basis.bank.rule_samples(rule)[:, head]
    degenerated = np.zeros(len(fns), dtype=bool)
    degenerated[small] = np.max(np.hypot(*fns[small].combine(x[head], y[head], table)), axis=1) > 10.0 * tau
    rest = small[~degenerated[small]]
    degenerated[rest] = np.max(np.hypot(*fns[rest].values_at_rule(rule)), axis=1) > 10.0 * tau
    per_edge = np.bincount(owner[degenerated], minlength=polygon.n_edges)
    return DegenerationReport(
        degenerated=int(np.count_nonzero(degenerated)),
        per_edge_degenerated=per_edge.tolist(),
        details=[
            (label, "degenerated" if d else "normal" if n else "internal")
            for label, n, d in zip(basis.labels, normal, degenerated)
        ],
    )


def zero_rows(T: TransferMatrix) -> List[int]:
    """Indices of rows below 1e-10 of the largest matrix entry; every row
    of a zero matrix."""
    scale = np.max(np.abs(T.matrix))
    if scale == 0.0:
        return list(range(T.matrix.shape[0]))
    return [i for i in range(T.matrix.shape[0]) if np.max(np.abs(T.matrix[i])) < 1e-10 * scale]


def edge_block_singular_ratios(T: TransferMatrix) -> List[float]:
    """Per-edge block smallest/largest singular value ratios."""
    out = []
    for i in range(len(T.edge_rows)):
        block = T.edge_block(i)
        sv = np.linalg.svd(block, compute_uv=False)
        out.append(float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0)
    return out


def boundary_characterization_matrix(point_of: Callable, normal: Sequence[float], l2: int) -> np.ndarray:
    """Single-edge unisolvence matrix of the point-value configuration with
    canonical monomial decomposition and canonical kernels.

    The edge is parametrized by t in [0, 1] through ``point_of``; boundary
    restrictions are decomposed as (a1, a2) + (x, y) sum_r b_r x^r.  Rows:
    the two first-order component moments, the midpoint normal value, then
    the q . n moments against x^r for r = 1..l2, on a (2 l2 + 6)-point
    Gauss rule.
    """
    nx, ny = float(normal[0]), float(normal[1])
    z, w = gauss_legendre_nodes(2 * l2 + 6)
    t = (z + 1.0) / 2.0
    w = w / 2.0
    xt, yt = point_of(t)
    xm, ym = point_of(np.array([0.5]))
    xm, ym = float(xm[0]), float(ym[0])
    c_mid = xm * nx + ym * ny
    dim = l2 + 3
    M = np.zeros((dim, dim))

    def col_components(col):
        """(q_x(t), q_y(t)) of the col-th decomposition function."""
        if col == 0:
            return np.ones_like(t), np.zeros_like(t)
        if col == 1:
            return np.zeros_like(t), np.ones_like(t)
        r = col - 2
        return xt ** (r + 1), yt * xt ** r

    for col in range(dim):
        qx, qy = col_components(col)
        M[0, col] = np.dot(w, qx * nx * xt)
        M[1, col] = np.dot(w, qy * ny * yt)
        if col == 0:
            M[2, col] = nx
        elif col == 1:
            M[2, col] = ny
        else:
            M[2, col] = c_mid * xm ** (col - 2)
        qn = qx * nx + qy * ny
        for r in range(1, l2 + 1):
            M[2 + r, col] = np.dot(w, qn * xt ** r)
    return M
