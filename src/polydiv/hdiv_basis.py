"""Canonical bases of the polygonal H(div) spaces.

Normal functions stitch the vectors (x, y) and n_i (plus the two rescaled
misc vectors) to Poisson solutions driven by edge-indicator boundary data;
internal functions use homogeneous Dirichlet solves with monomial-family
sources.  Three space variants are provided: the classical space, the
reduced space with per-edge Lagrange boundary data, and the reduced space
with the natural globally-constant harmonic part.

A basis has one representation: the bank of F solved scalar fields u_f
(``poisson.FieldBank``, from one batch solve) and a coefficient matrix
[P | Cx | Cy] with one row per function,

    phi_j = sum_f P[j, f] (x, y) u_f + sum_f (Cx[j, f], Cy[j, f]) u_f.

Every evaluation is a product of coefficient rows with a bank table.  On
the boundary the table holds the prescribed Dirichlet data, the exact trace
of each field; in the interior it holds the finite-element values.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import orjson

from .geometry import Edge, Polygon, ShapeViolation, validate_shape
from .polyfam import (
    LagrangeSet,
    PolyFamily,
    SpaceFamily,
    SpaceSpec,
    boundary_projector,
    inner_poly,
    lagrange_set,
    space_dimension,
)
from .poisson import (
    BoundaryData,
    FieldBank,
    MeshFailure,
    ScalarField,
    TriMesh,
    solve_poisson_many,
    triangulate,
)
from .quadrature import QuadRule2D, triangle_rule

__all__ = [
    "SpaceTag",
    "HdivSpaceKind",
    "VectorField",
    "CanonicalBasis",
    "canonical_basis",
    "export_traces",
    "export_interior",
    "write_over",
]


class SpaceTag(Enum):
    CLASSICAL = "classical"
    REDUCED_LAGRANGE_BC = "reduced"
    REDUCED_NATURAL = "reduced-natural"


@dataclass(frozen=True)
class HdivSpaceKind:
    """Space variant, order, and the constructor families used for the
    Poisson problems (boundary data g and second members h); a boundary
    constructor of None is the edge's Lagrange set.  The space owns the
    layout that its basis, DOF sets and transfer matrices share (``layout``)
    and the triangle rule of the Poisson loads and the interior moments."""

    tag: SpaceTag
    k: int
    boundary_constructor: Optional[PolyFamily] = None
    inner_constructor: PolyFamily = PolyFamily.HERMITE

    @property
    def rule_degree(self) -> int:
        return 2 * self.k + 4

    def dimension(self, n_edges: int) -> int:
        family = SpaceFamily.HK_CLASSICAL if self.tag is SpaceTag.CLASSICAL else SpaceFamily.HK_REDUCED
        return space_dimension(SpaceSpec(family, self.k, n=n_edges))

    def layout(self, n_edges: int) -> Tuple[List[slice], slice]:
        """The slice of each edge's normal group, in edge order, and the
        slice of the internal group that follows them."""
        c = self.k + 3 if self.tag is SpaceTag.CLASSICAL else self.k + 1
        return [slice(i * c, (i + 1) * c) for i in range(n_edges)], slice(n_edges * c, self.dimension(n_edges))


class VectorField:
    """Functions sum((x, y) P_f u_f) + sum((Cx_f, Cy_f) u_f) over a field
    bank, stored as coefficient rows [P | Cx | Cy]: one row, or a stack of
    rows that every evaluation treats as one block (one function per row).
    Indexing a stack, and so iterating it, gives views of its rows."""

    __slots__ = ("bank", "rows")

    def __init__(self, bank: FieldBank, rows: np.ndarray):
        self.bank = bank
        self.rows = np.asarray(rows, dtype=float)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index) -> "VectorField":
        return VectorField(self.bank, self.rows[index])

    @property
    def mesh(self) -> TriMesh:
        return self.bank.mesh

    def combine(self, x, y, table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(q_x, q_y) at the points (x, y), given the bank table there.
        Every block of every row is its own vector-matrix product, so a
        function in a stack gets the bits it gets alone (a GEMM would not)."""
        blocks = self.rows.reshape(self.rows.shape[:-1] + (3, 1, len(self.bank)))
        u, cx, cy = np.moveaxis((blocks @ table)[..., 0, :], -2, 0)
        return x * u + cx, y * u + cy

    def trace_components(self, edge: Edge, s) -> Tuple[np.ndarray, np.ndarray]:
        """Exact boundary trace (q_x, q_y) on the edge at arc parameters s."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        pts = edge.point_at(s)
        return self.combine(pts[:, 0], pts[:, 1], self.bank.edge_samples(edge.index, s))

    def normal_trace_on(self, edge: Edge, s) -> np.ndarray:
        qx, qy = self.trace_components(edge, s)
        nx, ny = edge.normal
        return qx * nx + qy * ny

    def values_at_rule(self, rule: QuadRule2D) -> Tuple[np.ndarray, np.ndarray]:
        """(q_x, q_y) at the mesh quadrature points of ``rule``."""
        x, y, _ = self.mesh.rule_points(rule)
        return self.combine(x, y, self.bank.rule_samples(rule))


@dataclass
class CanonicalBasis:
    """Canonical basis of one polygonal H(div) space on a shared mesh.

    Function j is row j of ``coefficients`` = [P | Cx | Cy] over ``bank``,
    named ``labels[j]``: normal functions first, grouped by edge, then the
    internal ones, as the space's layout places them (``owners``).
    ``derived`` keeps what is computed from the basis alone (the DOF row
    blocks of ``elements.assemble_transfer``, the sampled normal traces of
    ``elements.classify_degenerate``), keyed by what defines it within this
    polygon and space, for as long as the basis lives."""

    polygon: Polygon
    spec: HdivSpaceKind
    mesh: TriMesh
    bank: FieldBank
    coefficients: np.ndarray
    labels: List[str]
    tau_bc: float
    derived: Dict[Hashable, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    @property
    def functions(self) -> VectorField:
        """All functions as one stack of coefficient rows."""
        return VectorField(self.bank, self.coefficients)

    @property
    def normal_groups(self) -> List[VectorField]:
        fns = self.functions
        return [fns[rows] for rows in self.spec.layout(self.polygon.n_edges)[0]]

    @property
    def internal_group(self) -> VectorField:
        return self.functions[self.spec.layout(self.polygon.n_edges)[1]]

    @property
    def owners(self) -> np.ndarray:
        """The edge that owns each function, -1 for an internal one."""
        owner = np.full(self.size, -1)
        for i, rows in enumerate(self.spec.layout(self.polygon.n_edges)[0]):
            owner[rows] = i
        return owner

    @property
    def size(self) -> int:
        return len(self.coefficients)


def _boundary_constructor_trace(family: Optional[PolyFamily], lagr: LagrangeSet, m: int, L: float) -> Callable:
    if family is None:
        return lambda s, m=m: lagr.eval(m, s)
    return lambda s, m=m: boundary_projector(family, m, s, L)


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
    solves against their Dirichlet data in the bank's edge table, floored
    at 1e-12.

    Samples stay clear of the corner cells: the discontinuous data is
    resolved there by the corner rule, so the deviation within one mesh cell
    of a vertex is a modelling choice, not solver error.  A sample the mesh
    does not cover evaluates to NaN and is skipped; when none lands, the
    error is unmeasured and ``MeshFailure`` is raised."""
    samples = []  # (edge, arc parameters): the same for every field
    for e in polygon.edges:
        margin = max(2.0 * mesh.h, 0.05 * e.length)
        short = 2.0 * margin >= e.length
        samples.append((e, np.array([e.length / 2.0]) if short else np.linspace(margin, e.length - margin, 16)))
    pts = np.concatenate([e.point_at(s) for e, s in samples])
    err = 0.0
    landed = 0
    for g in gs:
        v, _ = g.value_and_grad(pts[:, 0], pts[:, 1])
        data = np.concatenate([g.bank.edge_samples(e.index, s)[g.index] for e, s in samples])
        inside = ~np.isnan(v)
        landed += int(np.count_nonzero(inside))
        err = max(err, float(np.max(np.abs(v[inside] - data[inside]), initial=0.0)))
    if not landed:
        raise MeshFailure(
            f"tau_bc: none of the {len(gs) * len(pts)} boundary samples lies inside the mesh (h={mesh.h})"
        )
    return 10.0 * max(err, 1e-12)


def canonical_basis(
    polygon: Polygon,
    spec: HdivSpaceKind,
    mesh: Optional[TriMesh] = None,
    h: Optional[float] = None,
    allow_invalid: bool = False,
) -> CanonicalBasis:
    """Construct the canonical basis, sharing one mesh for all solves: the
    given mesh of ``polygon``, or a new one at target size ``h``."""
    if mesh is not None and h is not None:
        raise ValueError("h is given beside a mesh, which has its own")
    if mesh is not None and mesh.polygon != polygon:
        raise ValueError("the mesh belongs to another polygon than the basis")
    diag = validate_shape(polygon)
    if diag.violations and not allow_invalid:
        raise ShapeViolation(diag)
    if mesh is None:
        mesh = triangulate(polygon, h)

    k = spec.k
    n = polygon.n_edges
    hull = (polygon.hull_barycenter, polygon.hull_area)

    @functools.cache  # one source object per degree pair: its problems share one load
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

    bank = solve_poisson_many(mesh, problems, rule_degree=spec.rule_degree)
    n_fields = len(bank)

    # each function is one coefficient row [P | Cx | Cy]: the position term
    # (x, y) u_pos plus the constant-vector term vec u_const
    rows: List[np.ndarray] = []
    labels: List[str] = []

    def add(label: str, pos: Optional[int] = None, vec=(0.0, 0.0), const: Optional[int] = None):
        row = np.zeros(3 * n_fields)
        if pos is not None:
            row[pos] = 1.0
        if const is not None:
            row[n_fields + const], row[2 * n_fields + const] = vec
        rows.append(row)
        labels.append(label)

    for e in polygon.edges:
        i, g = e.index, g_index[e.index]
        for m in range(k + 1):
            add(f"edge{i}:core{m}", f_index[(i, m)], e.normal, g)
        if spec.tag is SpaceTag.CLASSICAL:
            e3, e4 = _misc_vectors(e)
            m_last = max(k - 1, 0)  # f_{i,k} stands in for f_{i,k+1}
            add(f"edge{i}:misc-x", f_index[(i, 0)], -e3, g)
            add(f"edge{i}:misc-y", f_index[(i, m_last)], -e4, g)

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

    gs = [bank[g_index[e.index]] for e in polygon.edges]
    tau = _measure_tau_bc(gs, polygon, mesh)

    basis = CanonicalBasis(
        polygon=polygon,
        spec=spec,
        mesh=mesh,
        bank=bank,
        coefficients=np.array(rows),
        labels=labels,
        tau_bc=tau,
    )
    expected = spec.dimension(n)
    if basis.size != expected:
        raise AssertionError(f"basis size {basis.size} != space dimension {expected}")
    return basis


def write_over(path, chunks: Iterable[bytes]) -> None:
    """Write the byte chunks over the file at ``path``, then cut the file at
    the end of what was written.

    The file is opened without truncation, so a rerun writes over the old
    blocks in place rather than freeing them and allocating new ones; a new
    file gets the mode that ``open(path, "w")`` gives.  The cut runs also
    when a chunk raises: the file then ends at the last chunk written."""
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        try:
            for chunk in chunks:
                fh.write(chunk)
        finally:
            fh.truncate()


# Rows per block of export_interior: one row template and one formatting
# pass per block, so the bytes held besides the file are bounded whatever
# the point count.
_BLOCK_ROWS = 4096


_DIGITS = [b"%d" % d for d in range(1, 10)]


def _dumps(v: np.ndarray) -> bytes:
    """orjson's text of a flat float array, each value followed by a comma."""
    return orjson.dumps(v, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] + b","


def _e05(v: np.ndarray) -> List[bytes]:
    """``repr`` of values with 1e-5 <= |v| < 1e-4: orjson writes them
    0.0000ddd, ``repr`` d.dde-05 (de-05 for a single digit)."""
    text = _dumps(v)
    for d in _DIGITS:
        text = text.replace(b"0.0000" + d, d + b".")
    return text.replace(b".,", b",").replace(b",", b"e-05,").split(b",")[:-1]


def _exponent(v: np.ndarray) -> List[bytes]:
    """``repr`` of finite values with 0 < |v| < 1e-5 or |v| >= 1e16: orjson
    writes them d.ddde-N or d.dddeN, ``repr`` writes the exponent with its
    sign and at least two digits."""
    text = _dumps(v).replace(b"e", b"e+").replace(b"e+-", b"e-")
    for d in _DIGITS:
        text = text.replace(b"e-" + d + b",", b"e-0" + d + b",")
    return text.split(b",")[:-1]


def _repr_values(values) -> List[bytes]:
    """Each value of a float array, in C order, as ``repr`` writes it.

    orjson writes a flat array in one call with Ryu's shortest round-trip
    digits, the digits of ``repr``.  Its layout differs from ``repr`` only
    where ``repr`` uses exponent form (nonzero |v| < 1e-4 or |v| >= 1e16)
    and for non-finite values.  The finite ones are laid out again from
    orjson's digits by byte replacements (``_e05``, ``_exponent``); a
    non-finite value, which orjson writes as null, is written by ``repr``
    itself."""
    v = np.ascontiguousarray(values, dtype=float).ravel()
    if not v.size:
        return []
    out = orjson.dumps(v, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    a = np.abs(v)
    e05 = (a >= 1e-5) & (a < 1e-4)
    exponent = ((a > 0.0) & (a < 1e-5)) | ((a >= 1e16) & (a < np.inf))
    for relayout, mask in ((_e05, e05), (_exponent, exponent)):
        idx = np.flatnonzero(mask)
        if idx.size:
            for i, s in zip(idx.tolist(), relayout(v[idx])):
                out[i] = s
    for i in np.flatnonzero(~np.isfinite(v)).tolist():
        out[i] = repr(float(v[i])).encode()
    return out


def _template(prefix: bytes, block: np.ndarray, slots: int) -> bytes:
    """One CSV row per row of the 2-D float ``block``: ``prefix``, the row's
    values, ``slots`` ``%b`` slots for ``bytes %`` to fill, and a NUL byte
    where the rest of the row (``,function_id`` and CRLF) goes."""
    row = prefix + b",".join([b"%b"] * block.shape[1] + [b"%%b"] * slots) + b"\0"
    return row * len(block) % tuple(_repr_values(block))


def _fill(template: bytes, fid: int, values: np.ndarray) -> bytes:
    """The template's rows for function ``fid``, its slots filled with
    ``values`` in C order."""
    return template.replace(b"\0", b",%d\r\n" % fid) % tuple(_repr_values(values))


def export_traces(functions: VectorField, polygon: Polygon, path) -> None:
    """CSV of the normal traces of a stack of functions at 33 equispaced
    points of each edge: columns edge, s, value, function_id; rows by
    function, then edge, then s.  The ``edge, s`` columns are formatted
    once, into one row template that each function's values fill."""
    templates = []
    columns = []
    for e in polygon.edges:
        s = np.linspace(0.0, e.length, 33)
        templates.append(_template(b"%d," % e.index, s[:, None], 1))
        columns.append(functions.normal_trace_on(e, s))
    template = b"".join(templates)
    values = np.hstack(columns)

    def chunks():
        yield b"edge,s,value,function_id\r\n"
        for fid, row in enumerate(values):
            yield _fill(template, fid, row)

    write_over(path, chunks())


def export_interior(functions: VectorField, mesh: TriMesh, path) -> None:
    """CSV of interior samples at the points of the degree-2 triangle rule:
    columns x, y, vx, vy, function_id.  The points are formatted once, into
    one ``x, y`` row template per block of ``_BLOCK_ROWS`` points.  Each
    function is evaluated alone into one (points, 2) ``[vx, vy]`` buffer,
    and each of its blocks is formatted in one pass and written as one
    chunk, so the file's values are never all held."""
    rule = triangle_rule(2)
    x, y, _ = mesh.rule_points(rule)
    blocks = [slice(i, i + _BLOCK_ROWS) for i in range(0, len(x), _BLOCK_ROWS)]
    templates = [_template(b"", np.column_stack([x[b], y[b]]), 2) for b in blocks]

    def chunks():
        yield b"x,y,vx,vy,function_id\r\n"
        q = np.empty((len(x), 2))
        for fid, fn in enumerate(functions):
            q[:, 0], q[:, 1] = fn.values_at_rule(rule)
            for b, template in zip(blocks, templates):
                yield _fill(template, fid, q[b])

    write_over(path, chunks())
