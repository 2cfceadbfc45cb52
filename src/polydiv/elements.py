"""Degree-of-freedom sets for the element configurations Ia/Ib/IbShifted/
IIa/IIb/IIbShifted, transfer-matrix assembly, duality tuning, condition
numbers, and classification of degenerating basis functions.

A DOF is data: sample points (arc parameters on one edge, or the points of
a triangle rule on the mesh), the weights it puts on q_x and q_y there, and
a shift.  Edge functionals sample the exact boundary traces; interior
moments sample the finite-element fields.  The same weights serve both
readers: ``Dof.apply`` on one function, and ``assemble_transfer``, which
contracts them with the field bank's sample tables and the coefficient
rows [P | Cx | Cy] of a canonical basis.  Tuning is A @ [P | Cx | Cy].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import Edge, Polygon, ShapeViolation, validate_shape
from .hdiv_basis import CanonicalBasis, FieldBank, FunctionOrigin, HdivSpaceKind, SpaceTag, VectorField
from .polyfam import BoundaryProjectorKind, InnerPolyKind, boundary_projector, inner_poly
from .quadrature import QuadRule2D, edge_rule_points, triangle_rule

__all__ = [
    "CountMismatch",
    "SingularTransfer",
    "ElementConfig",
    "Dof",
    "TransferMatrix",
    "TunedBasis",
    "DegenerationReport",
    "dof_set",
    "assemble_transfer",
    "tune_basis",
    "condition_2norm",
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
    families.  Edge moments use k+3 Gauss points, interior moments a
    degree-(2k+4) triangle rule."""

    config: str
    space: HdivSpaceKind
    v: Tuple[float, float] = (1.0, 1.0)
    boundary_projector: BoundaryProjectorKind = BoundaryProjectorKind.HERMITE
    inner_projector: InnerPolyKind = InnerPolyKind.HERMITE

    def __post_init__(self):
        if self.config not in CONFIG_NAMES:
            raise ValueError(f"config must be one of {CONFIG_NAMES}")

    @property
    def k(self) -> int:
        return self.space.k

    @property
    def n_edge_points(self) -> int:
        return self.k + 3

    @property
    def rule_degree(self) -> int:
        return 2 * self.k + 4

    @property
    def is_I_family(self) -> bool:
        return self.config in ("Ia", "Ib", "IbShifted")


@dataclass(eq=False)
class Dof:
    """A linear functional on vector fields,

        sigma(q) = fx * sum(wx q_x) + fy * sum(wy q_y) - shift,

    summed over its sample points.  Edge functionals sample the exact trace
    at the arc parameters ``s`` of ``edge`` and carry their weights
    ``wx``/``wy`` there.  Interior moments (``edge`` None) sample the mesh
    points of the triangle ``rule``; their weights are the quadrature
    weights times the ``family`` kernels of degrees ``kx``/``ky`` (None for
    a zero kernel).  The factors ``fx``/``fy`` hold a normal component that
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
    # interior moments
    family: Optional[InnerPolyKind] = None
    kx: Optional[Tuple[int, int]] = None
    ky: Optional[Tuple[int, int]] = None
    hull: Optional[tuple] = None
    rule: Optional[QuadRule2D] = None

    def weights(self, mesh) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sample points (x, y) and the weights on q_x and q_y there."""
        if self.edge is not None:
            pts = self.edge.point_at(self.s)
            return pts[:, 0], pts[:, 1], self.wx, self.wy
        x, y, w = mesh.rule_points(self.rule)

        def kernel(ij):
            return np.zeros_like(w) if ij is None else w * inner_poly(self.family, *ij, x, y, self.hull)

        return x, y, kernel(self.kx), kernel(self.ky)

    def apply(self, q: VectorField) -> float:
        if self.edge is not None:
            qx, qy = q.trace_components(self.edge, self.s)
        else:
            qx, qy = q.values_at_rule(self.rule)
        _, _, wx, wy = self.weights(q.mesh)
        return float(self.fx * np.dot(wx, qx) + self.fy * np.dot(wy, qy)) - self.shift

    def bank_moments(self, bank: FieldBank) -> Tuple[np.ndarray, np.ndarray]:
        """Rows against the coefficient rows [P | Cx | Cy] of the bank's
        functions: sum(wx q_x) and sum(wy q_y) of function j are the dot
        products of row j with the two returned vectors."""
        x, y, wx, wy = self.weights(bank.mesh)
        if self.edge is not None:
            table = bank.edge_samples(self.edge.index, self.s)
        else:
            table = bank.rule_samples(self.rule)
        zero = np.zeros(len(table))
        mx = np.concatenate([table @ (wx * x), table @ wx, zero])
        my = np.concatenate([table @ (wy * y), zero, table @ wy])
        return mx, my


def dof_set(polygon: Polygon, cfg: ElementConfig) -> List[Dof]:
    """Ordered degrees of freedom: per edge core (ascending projector
    degree), misc, supplementary (x then y); interior moments last, x
    component then y component in (l, m) order, coupled moment final."""
    diag = validate_shape(polygon, cfg.config if cfg.is_I_family else None, cfg.v)
    if diag.violations:
        raise ShapeViolation(diag)
    return _dof_set_unchecked(polygon, cfg)


def _dof_set_unchecked(polygon: Polygon, cfg: ElementConfig) -> List[Dof]:
    k = cfg.k
    reduced = cfg.space.tag is not SpaceTag.CLASSICAL
    dofs: List[Dof] = []
    for e in polygon.edges:
        s, w = edge_rule_points(e, cfg.n_edge_points)
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
        if cfg.is_I_family:  # integral of s (v . q)
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
    hull = (polygon.hull_barycenter, polygon.hull_area)

    rule = triangle_rule(cfg.rule_degree)

    def interior(kind, label, kx=None, ky=None):
        dofs.append(Dof(kind, label, family=cfg.inner_projector, kx=kx, ky=ky, hull=hull, rule=rule))

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
    return dofs


@dataclass
class TransferMatrix:
    """Lambda with Lambda_ij = sigma_i(phi_j), DOFs and functions grouped by
    edge then internal."""

    matrix: np.ndarray
    row_labels: List[str]
    col_labels: List[str]
    edge_rows: List[slice]
    edge_cols: List[slice]
    internal_rows: slice
    internal_cols: slice

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
        return self.matrix[self.internal_rows, self.internal_cols]

    def edge_block(self, i: int) -> np.ndarray:
        return self.matrix[self.edge_rows[i], self.edge_cols[i]]


def assemble_transfer(dofs: Sequence, basis: Union[CanonicalBasis, Sequence]) -> TransferMatrix:
    """Assemble Lambda for any basis whose functions the DOFs accept.

    A row of a canonical basis contracts the DOF's bank moments with the
    coefficient rows; a plain sequence of functions is assembled entry by
    entry with ``apply``."""
    if isinstance(basis, CanonicalBasis):
        col_labels = [o.label for o in basis.origins]
        group_sizes = [len(g) for g in basis.normal_groups]
    else:
        functions = list(getattr(basis, "functions", basis))
        col_labels = [f"fn{j}" for j in range(len(functions))]
        group_sizes = []
        if hasattr(basis, "normal_groups"):
            group_sizes = [len(g) for g in basis.normal_groups]
    n = len(col_labels)
    if len(dofs) != n:
        raise CountMismatch(f"{len(dofs)} DOFs vs {n} functions")
    L = np.empty((n, n))
    if isinstance(basis, CanonicalBasis):
        C = basis.coefficients
        for i, d in enumerate(dofs):
            mx, my = d.bank_moments(basis.bank)
            L[i] = d.fx * (C @ mx) + d.fy * (C @ my) - d.shift
    else:
        for i, d in enumerate(dofs):
            for j, fn in enumerate(functions):
                L[i, j] = d.apply(fn)
    row_labels = [getattr(d, "label", f"dof{i}") for i, d in enumerate(dofs)]
    edge_rows: List[slice] = []
    edge_cols: List[slice] = []
    start = 0
    for size in group_sizes:
        edge_rows.append(slice(start, start + size))
        edge_cols.append(slice(start, start + size))
        start += size
    return TransferMatrix(
        matrix=L,
        row_labels=row_labels,
        col_labels=col_labels,
        edge_rows=edge_rows,
        edge_cols=edge_cols,
        internal_rows=slice(start, n),
        internal_cols=slice(start, n),
    )


def _inverse_transpose(L: np.ndarray) -> np.ndarray:
    """Inverse transpose with two Newton refinement sweeps, keeping the
    duality residual near machine precision for moderate conditionings."""
    n = L.shape[0]
    eye = np.eye(n)
    X = np.linalg.solve(L, eye)
    for _ in range(2):
        X = X + X @ (eye - L @ X)
    return X.T


@dataclass
class TunedBasis:
    """Basis dual to the DOFs: phi'_j = sum_m A_jm phi_m with A the inverse
    transpose of the transfer matrix."""

    functions: List
    A: np.ndarray
    origins: List[FunctionOrigin]
    transfer: TransferMatrix

    def duality_residual(self) -> float:
        n = self.A.shape[0]
        return float(np.max(np.abs(self.transfer.matrix @ self.A.T - np.eye(n))))


def tune_basis(
    T: TransferMatrix,
    basis: Union[CanonicalBasis, Sequence],
    cond_ceiling: float = COND_CEILING,
) -> TunedBasis:
    cond = T.cond2
    if not np.isfinite(cond) or cond > cond_ceiling:
        raise SingularTransfer(
            f"transfer matrix condition {cond:.3e} above ceiling {cond_ceiling:.0e};"
            " the shape/DOF combination is not unisolvent"
        )
    A = _inverse_transpose(T.matrix)
    if isinstance(basis, CanonicalBasis):
        tuned = [VectorField(basis.bank, row) for row in A @ basis.coefficients]
        return TunedBasis(functions=tuned, A=A, origins=list(basis.origins), transfer=T)
    raw = list(getattr(basis, "functions", basis))
    origins = [FunctionOrigin("normal", -1, f"fn{j}") for j in range(len(raw))]
    tuned = []
    for j in range(A.shape[0]):
        fn = raw[0] * A[j, 0]
        for m in range(1, A.shape[1]):
            if A[j, m] != 0.0:
                fn = fn + raw[m] * A[j, m]
        tuned.append(fn)
    return TunedBasis(functions=tuned, A=A, origins=origins, transfer=T)


def condition_2norm(T: Union[TransferMatrix, np.ndarray]) -> float:
    """2-norm condition number via the full singular value decomposition."""
    if isinstance(T, TransferMatrix):
        return T.cond2
    return _sv_ratio(np.linalg.svd(np.asarray(T, dtype=float), compute_uv=False))


def _sv_ratio(sv: np.ndarray) -> float:
    """sv[0] / sv[-1] of descending singular values; inf when sv[-1] is 0."""
    return math.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])


@dataclass
class DegenerationReport:
    normal_kept: int
    degenerated: int
    internal: int
    per_edge_degenerated: List[int]
    details: List[Tuple[str, str]]  # (function label, classification)


def classify_degenerate(
    tb: TunedBasis,
    basis: CanonicalBasis,
    boundary_samples: int = 50,
    rule_degree: int = 2,
) -> DegenerationReport:
    """Classify tuned functions: one of normal origin whose boundary normal
    trace stays below 100 tau_bc while its interior magnitude exceeds
    10 tau_bc has degenerated into an internal function."""
    tau = basis.tau_bc
    polygon = basis.polygon
    bank = basis.bank
    # boundary maximum of |q . n| of every tuned row, one bank table per edge
    rows = np.array([fn.row for fn in tb.functions])
    bmax = np.zeros(len(rows))
    for e in polygon.edges:
        s = np.linspace(0.0, e.length, boundary_samples)
        pts = e.point_at(s)
        qx, qy = bank.combine(rows, pts[:, 0], pts[:, 1], bank.edge_samples(e.index, s))
        bmax = np.maximum(bmax, np.max(np.abs(qx * e.normal[0] + qy * e.normal[1]), axis=1))
    rule = triangle_rule(rule_degree)
    per_edge = [0] * polygon.n_edges
    kept = deg = internal = 0
    details: List[Tuple[str, str]] = []
    for fn, origin, b in zip(tb.functions, tb.origins, bmax):
        if origin.group == "internal":
            internal += 1
            details.append((origin.label, "internal"))
            continue
        qx, qy = fn.values_at_rule(rule)
        imax = float(np.max(np.hypot(qx, qy)))
        if b < 100.0 * tau and imax > 10.0 * tau:
            deg += 1
            if origin.edge >= 0:
                per_edge[origin.edge] += 1
            details.append((origin.label, "degenerated"))
        else:
            kept += 1
            details.append((origin.label, "normal"))
    return DegenerationReport(
        normal_kept=kept,
        degenerated=deg,
        internal=internal,
        per_edge_degenerated=per_edge,
        details=details,
    )


def zero_rows(T: TransferMatrix, rel_tol: float = 1e-10) -> List[int]:
    """Indices of rows that vanish relative to the largest matrix entry."""
    scale = np.max(np.abs(T.matrix))
    if scale == 0.0:
        return list(range(T.matrix.shape[0]))
    return [i for i in range(T.matrix.shape[0]) if np.max(np.abs(T.matrix[i])) < rel_tol * scale]


def edge_block_singular_ratios(T: TransferMatrix) -> List[float]:
    """Per-edge block smallest/largest singular value ratios."""
    out = []
    for i in range(len(T.edge_rows)):
        block = T.edge_block(i)
        sv = np.linalg.svd(block, compute_uv=False)
        out.append(float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0)
    return out


def boundary_characterization_matrix(
    point_of: Callable,
    normal: Sequence[float],
    l2: int,
    t_mid: float = 0.5,
    npoints: Optional[int] = None,
) -> np.ndarray:
    """Single-edge unisolvence matrix of the point-value configuration with
    canonical monomial decomposition and canonical kernels.

    The edge is parametrized by t in [0, 1] through ``point_of``; boundary
    restrictions are decomposed as (a1, a2) + (x, y) sum_r b_r x^r.  Rows:
    the two first-order component moments, the midpoint normal value, then
    the q . n moments against x^r for r = 1..l2.
    """
    nx, ny = float(normal[0]), float(normal[1])
    npts = npoints or (2 * l2 + 6)
    from .polyfam import gauss_legendre_nodes

    z, w = gauss_legendre_nodes(npts)
    t = (z + 1.0) / 2.0
    w = w / 2.0
    xt, yt = point_of(t)
    xm, ym = point_of(np.array([t_mid]))
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
