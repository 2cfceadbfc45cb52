"""Canonical bases of the polygonal H(div) spaces.

Normal functions stitch the vectors (x, y) and n_i (plus the two rescaled
misc vectors) to Poisson solutions driven by edge-indicator boundary data;
internal functions use homogeneous Dirichlet solves with monomial-family
sources.  Three space variants are provided: the classical space, the
reduced space with per-edge Lagrange boundary data, and the reduced space
with the natural globally-constant harmonic part.

A basis has one representation: the bank of F solved scalar fields u_f and
a coefficient matrix [P | Cx | Cy] with one row per function,

    phi_j = sum_f P[j, f] (x, y) u_f + sum_f (Cx[j, f], Cy[j, f]) u_f.

Every evaluation is a product of coefficient rows with a bank table.  On
the boundary the table holds the prescribed Dirichlet data, the exact trace
of each field; in the interior it holds the finite-element values.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Edge, OutOfRange, Polygon, ShapeViolation, validate_shape
from .polyfam import (
    BoundaryConstructorKind,
    InnerPolyKind,
    LagrangeSet,
    inner_poly,
    internal_count,
    lagrange_set,
)
from .poisson import (
    BoundaryData,
    MeshFailure,
    OutsideDomain,
    ScalarField,
    TriMesh,
    default_mesh_size,
    solve_poisson_many,
    triangulate,
)
from .quadrature import QuadRule2D, triangle_rule

__all__ = [
    "SpaceTag",
    "HdivSpaceKind",
    "VectorField",
    "FunctionOrigin",
    "CanonicalBasis",
    "FieldBank",
    "canonical_basis",
    "normal_trace",
    "export_traces",
    "export_interior",
]


class SpaceTag(Enum):
    CLASSICAL = "classical"
    REDUCED_LAGRANGE_BC = "reduced"
    REDUCED_NATURAL = "reduced-natural"


@dataclass(frozen=True)
class HdivSpaceKind:
    """Space variant, order, and the constructor families used for the
    Poisson problems (boundary data g and second members h)."""

    tag: SpaceTag
    k: int
    boundary_constructor: BoundaryConstructorKind = BoundaryConstructorKind.LAGRANGIAN
    inner_constructor: InnerPolyKind = InnerPolyKind.HERMITE

    @property
    def per_edge_count(self) -> int:
        return self.k + 3 if self.tag is SpaceTag.CLASSICAL else self.k + 1

    @property
    def internal_total(self) -> int:
        return internal_count(self.k)

    def dimension(self, n_edges: int) -> int:
        return n_edges * self.per_edge_count + self.internal_total


class FieldBank:
    """The solved Poisson fields of one basis and their sample tables.

    Row f of a table holds field u_f at the sample points: the exact
    Dirichlet data on an edge, or the finite-element values at the mapped
    points of a triangle rule.  Tables are cached per set of sample points.
    """

    def __init__(self, mesh: TriMesh, fields: Sequence[ScalarField]):
        self.mesh = mesh
        self.fields = list(fields)
        self._tables: Dict[tuple, np.ndarray] = {}

    def edge_samples(self, edge_index: int, s: np.ndarray) -> np.ndarray:
        """(F, len(s)) table of the boundary data at arc parameters ``s``."""
        key = ("edge", edge_index, s.tobytes())
        if key not in self._tables:
            self._tables[key] = np.array([f.boundary_value(edge_index, s) for f in self.fields])
        return self._tables[key]

    def rule_samples(self, rule: QuadRule2D) -> np.ndarray:
        """(F, points) table of the field values at the points of ``rule``."""
        key = ("rule", rule.degree, len(rule.weights))
        if key not in self._tables:
            table = np.empty((len(self.fields), len(self.mesh.rule_points(rule)[0])))
            for row, f in zip(table, self.fields):
                row[:] = f.values_at_rule(rule)
            self._tables[key] = table
        return self._tables[key]

    def combine(self, rows: np.ndarray, x, y, table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(q_x, q_y) at the points (x, y) of the functions with coefficient
        rows ``rows`` (one row or a stack), given the bank table there."""
        n = len(self.fields)
        u = rows[..., :n] @ table
        return x * u + rows[..., n : 2 * n] @ table, y * u + rows[..., 2 * n :] @ table


class VectorField:
    """One function sum((x, y) P_f u_f) + sum((Cx_f, Cy_f) u_f) over a field
    bank, stored as its coefficient row [P | Cx | Cy]."""

    __slots__ = ("bank", "row")

    def __init__(self, bank: FieldBank, row: np.ndarray):
        self.bank = bank
        self.row = np.asarray(row, dtype=float)

    @classmethod
    def position(cls, u: ScalarField) -> "VectorField":
        return cls(FieldBank(u.mesh, [u]), [1.0, 0.0, 0.0])

    @classmethod
    def constant_vector(cls, a: Sequence[float], u: ScalarField) -> "VectorField":
        return cls(FieldBank(u.mesh, [u]), [0.0, a[0], a[1]])

    @property
    def mesh(self) -> TriMesh:
        return self.bank.mesh

    def value(self, x: float, y: float) -> np.ndarray:
        """Field value inside the polygon (finite-element interpolation)."""
        u = np.array([[f.value_and_grad(x, y)[0]] for f in self.bank.fields])
        qx, qy = self.bank.combine(self.row, x, y, u)
        return np.array([qx[0], qy[0]])

    def trace_components(self, edge: Edge, s) -> Tuple[np.ndarray, np.ndarray]:
        """Exact boundary trace (q_x, q_y) on the edge at arc parameters s."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        pts = edge.point_at(s)
        return self.bank.combine(self.row, pts[:, 0], pts[:, 1], self.bank.edge_samples(edge.index, s))

    def normal_trace_on(self, edge: Edge, s) -> np.ndarray:
        qx, qy = self.trace_components(edge, s)
        nx, ny = edge.normal
        return qx * nx + qy * ny

    def values_at_rule(self, rule: QuadRule2D) -> Tuple[np.ndarray, np.ndarray]:
        """(q_x, q_y) at the mesh quadrature points of ``rule``."""
        x, y, _ = self.mesh.rule_points(rule)
        return self.bank.combine(self.row, x, y, self.bank.rule_samples(rule))


@dataclass(frozen=True)
class FunctionOrigin:
    group: str          # "normal" or "internal"
    edge: int = -1      # edge index for normal functions
    label: str = ""


@dataclass
class CanonicalBasis:
    """Canonical basis of one polygonal H(div) space on a shared mesh.

    Function j is row j of ``coefficients`` = [P | Cx | Cy] over ``bank``:
    normal functions first, grouped by edge, then the internal ones."""

    polygon: Polygon
    spec: HdivSpaceKind
    mesh: TriMesh
    bank: FieldBank
    coefficients: np.ndarray
    origins: List[FunctionOrigin]
    tau_bc: float

    @property
    def functions(self) -> List[VectorField]:
        return [VectorField(self.bank, row) for row in self.coefficients]

    @property
    def normal_groups(self) -> List[List[VectorField]]:
        fns = self.functions
        c = self.spec.per_edge_count
        return [fns[i * c : (i + 1) * c] for i in range(self.polygon.n_edges)]

    @property
    def internal_group(self) -> List[VectorField]:
        return self.functions[self.polygon.n_edges * self.spec.per_edge_count :]

    @property
    def size(self) -> int:
        return len(self.coefficients)


def _boundary_constructor_trace(
    kind: BoundaryConstructorKind, lagr: LagrangeSet, m: int, L: float
) -> Callable:
    if kind is BoundaryConstructorKind.LAGRANGIAN:
        return lambda s, m=m: lagr.eval(m, s)
    if kind is BoundaryConstructorKind.CANONICAL_CENTERED_SCALED:
        return lambda s, m=m: (2.0 * np.asarray(s, float) / L - 1.0) ** m
    if kind is BoundaryConstructorKind.CANONICAL_CENTERED_UNSCALED:
        return lambda s, m=m: (np.asarray(s, float) - L / 2.0) ** m
    raise ValueError(kind)


def _misc_vectors(edge: Edge) -> Tuple[np.ndarray, np.ndarray]:
    """The two rescaled misc vectors (103); each dots to one with the edge
    normal.  Axis-collinear edges get the documented (1, 0)/(0, 1) stand-ins
    so failing shapes can still be assembled for diagnosis."""
    nx, ny = edge.normal
    e3 = np.array([1.0, 0.0]) if abs(nx) < 1e-12 else np.array([nx + ny * ny / nx, 0.0])
    e4 = np.array([0.0, 1.0]) if abs(ny) < 1e-12 else np.array([0.0, ny + nx * nx / ny])
    return e3, e4


def _measure_tau_bc(gs: Sequence[ScalarField], polygon: Polygon, mesh: TriMesh) -> float:
    """Ten times the measured boundary interpolation error of the harmonic
    solves, floored at 1e-12.

    Samples stay clear of the corner cells: the discontinuous data is
    resolved there by the corner rule, so the deviation within one mesh cell
    of a vertex is a modelling choice, not solver error.  A sample the mesh
    does not cover is skipped; when none lands, the error is unmeasured and
    ``MeshFailure`` is raised."""
    err = 0.0
    landed = tried = 0
    for g in gs:
        for e in polygon.edges:
            margin = max(2.0 * mesh.h, 0.05 * e.length)
            if 2.0 * margin >= e.length:
                s = np.array([e.length / 2.0])
            else:
                s = np.linspace(margin, e.length - margin, 16)
            data = np.asarray(g.boundary_value(e.index, s), dtype=float)
            for si, di in zip(s, data):
                pt = e.point_at(si)
                tried += 1
                try:
                    v, _ = g.value_and_grad(float(pt[0]), float(pt[1]))
                except OutsideDomain:
                    continue
                landed += 1
                err = max(err, abs(v - di))
    if not landed:
        raise MeshFailure(
            f"tau_bc: none of the {tried} boundary samples lies inside the mesh (h={mesh.h})"
        )
    return 10.0 * max(err, 1e-12)


def canonical_basis(
    polygon: Polygon,
    spec: HdivSpaceKind,
    mesh: Optional[TriMesh] = None,
    h: Optional[float] = None,
    allow_invalid: bool = False,
) -> CanonicalBasis:
    """Construct the canonical basis, sharing one mesh for all solves."""
    diag = validate_shape(polygon)
    if diag.violations and not allow_invalid:
        raise ShapeViolation(diag)
    if mesh is None:
        mesh = triangulate(polygon, h if h is not None else default_mesh_size(polygon))

    k = spec.k
    n = polygon.n_edges
    hull = (polygon.hull_barycenter, polygon.hull_area)
    rule_degree = 2 * k + 4

    def h_source(i: int, j: int) -> Callable:
        return lambda x, y, i=i, j=j: inner_poly(spec.inner_constructor, i, j, x, y, hull)

    # one batch of Poisson problems: edge f-functions, harmonic g's, then
    # the homogeneous internal h-functions
    problems: List[Tuple[Optional[Callable], BoundaryData]] = []
    f_index: Dict[Tuple[int, int], int] = {}
    boundary_source = h_source(k - 1, k - 1) if k >= 1 else None
    lagr_sets = [lagrange_set(e, k) for e in polygon.edges]
    for e in polygon.edges:
        for m in range(k + 1):
            trace = _boundary_constructor_trace(
                spec.boundary_constructor, lagr_sets[e.index], m, e.length
            )
            f_index[(e.index, m)] = len(problems)
            problems.append((boundary_source, BoundaryData.indicator(polygon, e.index, trace)))
    g_index: Dict[int, int] = {}
    if spec.tag is SpaceTag.REDUCED_NATURAL:
        shared = len(problems)
        problems.append((None, BoundaryData.constant(polygon, 2.0)))
        for e in polygon.edges:
            g_index[e.index] = shared
    else:
        for e in polygon.edges:
            g_index[e.index] = len(problems)
            problems.append((None, BoundaryData.indicator(polygon, e.index, 2.0)))
    hfield_index: Dict[Tuple[int, int], int] = {}
    for l in range(k):
        for m in range(k):
            hfield_index[(l, m)] = len(problems)
            problems.append((h_source(l, m), BoundaryData.zero(polygon)))

    fields = solve_poisson_many(mesh, problems, rule_degree=rule_degree)
    n_fields = len(fields)

    # each function is one coefficient row [P | Cx | Cy]: the position term
    # (x, y) u_pos plus the constant-vector term vec u_const
    rows: List[np.ndarray] = []
    origins: List[FunctionOrigin] = []

    def add(label: str, pos: Optional[int] = None, vec=(0.0, 0.0), const: Optional[int] = None, edge: int = -1):
        row = np.zeros(3 * n_fields)
        if pos is not None:
            row[pos] = 1.0
        if const is not None:
            row[n_fields + const], row[2 * n_fields + const] = vec
        rows.append(row)
        origins.append(FunctionOrigin("normal" if edge >= 0 else "internal", edge, label))

    for e in polygon.edges:
        i, g = e.index, g_index[e.index]
        for m in range(k + 1):
            add(f"edge{i}:core{m}", f_index[(i, m)], e.normal, g, edge=i)
        if spec.tag is SpaceTag.CLASSICAL:
            e3, e4 = _misc_vectors(e)
            m_last = max(k - 1, 0)  # f_{i,k} stands in for f_{i,k+1}
            add(f"edge{i}:misc-x", f_index[(i, 0)], -e3, g, edge=i)
            add(f"edge{i}:misc-y", f_index[(i, m_last)], -e4, g, edge=i)

    for l in range(k - 1):  # F_l, sources h_{l, k-1}
        add(f"F{l}", hfield_index[(l, k - 1)])
    for l in range(k):      # G_l, sources h_{k-1, l}
        add(f"G{l}", hfield_index[(k - 1, l)])
    for l in range(k):
        for m in range(k):
            add(f"Hx{l}{m}", vec=(1.0, 0.0), const=hfield_index[(l, m)])
    for l in range(k):
        for m in range(k):
            add(f"Hy{l}{m}", vec=(0.0, 1.0), const=hfield_index[(l, m)])

    gs = [fields[g_index[e.index]] for e in polygon.edges]
    tau = _measure_tau_bc(gs, polygon, mesh)

    basis = CanonicalBasis(
        polygon=polygon,
        spec=spec,
        mesh=mesh,
        bank=FieldBank(mesh, fields),
        coefficients=np.array(rows),
        origins=origins,
        tau_bc=tau,
    )
    expected = spec.dimension(n)
    if basis.size != expected:
        raise AssertionError(f"basis size {basis.size} != space dimension {expected}")
    return basis


def normal_trace(v: VectorField, e: Edge, s) -> np.ndarray:
    """q . n on the edge at arc parameter(s) s, from the exact trace."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < -1e-12) or np.any(s_arr > e.length + 1e-12):
        raise OutOfRange(f"arc parameter outside [0, {e.length}]")
    out = v.normal_trace_on(e, np.clip(s_arr, 0.0, e.length))
    return out if out.shape else float(out)


def export_traces(
    functions: Sequence[VectorField],
    polygon: Polygon,
    path,
    samples_per_edge: int = 33,
) -> None:
    """CSV of sampled normal traces: columns edge, s, value, function_id."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["edge", "s", "value", "function_id"])
        for fid, fn in enumerate(functions):
            for e in polygon.edges:
                s = np.linspace(0.0, e.length, samples_per_edge)
                vals = fn.normal_trace_on(e, s)
                for si, vi in zip(s, vals):
                    w.writerow([e.index, repr(float(si)), repr(float(vi)), fid])


def export_interior(
    functions: Sequence[VectorField],
    mesh: TriMesh,
    path,
    rule_degree: int = 2,
) -> None:
    """CSV of interior samples: columns x, y, vx, vy, function_id."""
    rule = triangle_rule(rule_degree)
    x, y, _ = mesh.rule_points(rule)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "vx", "vy", "function_id"])
        for fid, fn in enumerate(functions):
            qx, qy = fn.values_at_rule(rule)
            for xi, yi, vx, vy in zip(x, y, qx, qy):
                w.writerow([repr(float(xi)), repr(float(yi)), repr(float(vx)), repr(float(vy)), fid])
