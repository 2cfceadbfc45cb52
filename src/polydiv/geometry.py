"""Polygon geometry: vertices, edges, outward normals, hull statistics and
shape admissibility checks.

Everything downstream (basis construction, degrees of freedom, meshing) works
on the immutable ``Polygon`` built here.  Edges carry the constant ``x . n``
of their supporting line, which drives both the basis-function slopes and the
shape restrictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Point2",
    "Edge",
    "Polygon",
    "ShapeDiagnostics",
    "DiagnosticRecord",
    "GeometryError",
    "DegenerateEdge",
    "SelfIntersecting",
    "ClockwiseInput",
    "OutOfRange",
    "ShapeViolation",
    "build_polygon",
    "validate_shape",
    "edge_point",
    "convex_hull",
    "point_in_polygon",
    "TOL_AXIS",
    "TOL_ORIGIN",
    "TOL_V",
    "W1_THRESHOLD",
]

# Admissibility tolerances.  The source material gives no numbers; these are
# engineering choices sized so every catalog "failing" shape triggers and
# every "working" shape passes.
TOL_AXIS = 1e-8     # relative, axis-collinear edge normal component
TOL_ORIGIN = 1e-8   # absolute, |x . n| on an edge
TOL_V = 1e-8        # relative, normal collinear with the misc vector v
W1_THRESHOLD = 0.05  # |x . n| below this is a conditioning warning


class GeometryError(ValueError):
    """Base class for polygon construction/validation errors."""


class DegenerateEdge(GeometryError):
    pass


class SelfIntersecting(GeometryError):
    pass


class ClockwiseInput(GeometryError):
    pass


class OutOfRange(GeometryError):
    pass


class ShapeViolation(GeometryError):
    """Raised when a construction requires an admissible shape and the
    diagnostics report violations."""

    def __init__(self, diagnostics: "ShapeDiagnostics"):
        self.diagnostics = diagnostics
        super().__init__(f"shape violates admissibility rules: {diagnostics.violations}")


@dataclass(frozen=True)
class Point2:
    """A point of the plane with finite coordinates."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite coordinates ({self.x}, {self.y})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    def __iter__(self):
        yield self.x
        yield self.y


@dataclass(frozen=True)
class Edge:
    """Straight edge from ``a`` to ``b`` with unit outward normal.

    ``xn`` is the value of ``x . n`` on the supporting line, constant along
    the edge.
    """

    index: int
    a: Point2
    b: Point2
    normal: Tuple[float, float]
    length: float
    xn: float

    @property
    def tangent(self) -> Tuple[float, float]:
        return ((self.b.x - self.a.x) / self.length, (self.b.y - self.a.y) / self.length)

    def point_at(self, s) -> np.ndarray:
        """Coordinates of the edge point at arc parameter ``s`` (vectorized)."""
        t = np.asarray(s, dtype=float) / self.length
        x = self.a.x + t * (self.b.x - self.a.x)
        y = self.a.y + t * (self.b.y - self.a.y)
        return np.stack([x, y], axis=-1)

    def normal_array(self) -> np.ndarray:
        return np.array(self.normal, dtype=float)


@dataclass(frozen=True)
class Polygon:
    """Simple CCW polygon with derived edge data and convex-hull statistics."""

    vertices: Tuple[Point2, ...]
    edges: Tuple[Edge, ...]
    area: float
    hull_barycenter: Point2
    hull_area: float

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def diameter(self) -> float:
        pts = np.array([[v.x, v.y] for v in self.vertices])
        d = 0.0
        for i in range(len(pts)):
            d = max(d, float(np.max(np.hypot(pts[:, 0] - pts[i, 0], pts[:, 1] - pts[i, 1]))))
        return d

    def vertex_array(self) -> np.ndarray:
        return np.array([[v.x, v.y] for v in self.vertices], dtype=float)

    def contains(self, x, y):
        return point_in_polygon(self.vertex_array(), x, y)


@dataclass(frozen=True)
class DiagnosticRecord:
    edge: int
    rule: str
    value: float


@dataclass
class ShapeDiagnostics:
    """Outcome of the admissibility rules.

    ``violations`` empty  <=>  the polygon is usable for the requested
    element kind.  ``warnings`` flag conditioning risks only.
    """

    violations: List[DiagnosticRecord] = field(default_factory=list)
    warnings: List[DiagnosticRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _shoelace(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segments_intersect(p1, p2, p3, p4) -> bool:
    """Proper intersection test for open segments (shared endpoints excluded)."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    return False


def convex_hull(pts: np.ndarray) -> np.ndarray:
    """Convex hull (CCW, no repeated endpoint) by the monotone chain method."""
    pts = np.unique(np.asarray(pts, dtype=float), axis=0)
    if len(pts) < 3:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: List[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def point_in_polygon(verts: np.ndarray, x, y):
    """Even-odd crossing test of the points ``(x, y)`` against the loop ``verts``.

    ``x`` and ``y`` are scalars or arrays of one shape; the result is a bool
    or a boolean array of that shape.  Points on the boundary fall on either
    side.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
    for (xi, yi), (xj, yj) in zip(verts, np.roll(verts, 1, axis=0)):
        if yi == yj:
            continue  # a horizontal edge is never crossed
        straddle = (yi > y) != (yj > y)
        inside ^= straddle & (x < xi + (y - yi) / (yj - yi) * (xj - xi))
    return bool(inside) if inside.ndim == 0 else inside


def build_polygon(vertices: Sequence[Sequence[float]], auto_reverse: bool = True) -> Polygon:
    """Build a ``Polygon`` from a CCW vertex loop.

    Clockwise input is reversed when ``auto_reverse`` is set, otherwise
    rejected with ``ClockwiseInput``.  Raises ``DegenerateEdge`` on zero-length
    edges and ``SelfIntersecting`` on non-simple loops.
    """
    pts = np.array([[float(p[0]), float(p[1])] for p in vertices], dtype=float)
    if len(pts) < 3:
        raise GeometryError("a polygon needs at least 3 vertices")
    if len(np.unique(pts, axis=0)) != len(pts):
        raise DegenerateEdge("repeated vertices")

    area = _shoelace(pts)
    if area < 0:
        if not auto_reverse:
            raise ClockwiseInput("vertex loop is clockwise")
        pts = pts[::-1]
        area = -area
    if area == 0.0:
        raise DegenerateEdge("zero signed area")

    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share a vertex
            if _segments_intersect(pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]):
                raise SelfIntersecting(f"edges {i} and {j} cross")

    verts = tuple(Point2(float(p[0]), float(p[1])) for p in pts)
    edges: List[Edge] = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        dx, dy = b.x - a.x, b.y - a.y
        length = math.hypot(dx, dy)
        if length == 0.0:
            raise DegenerateEdge(f"edge {i} has zero length")
        # outward normal of a CCW loop: rotate the tangent by -90 degrees
        nx, ny = dy / length, -dx / length
        xn = a.x * nx + a.y * ny
        edges.append(Edge(index=i, a=a, b=b, normal=(nx, ny), length=length, xn=xn))

    hull = convex_hull(pts)
    hull_area = abs(_shoelace(hull))
    bary = hull.mean(axis=0)
    return Polygon(
        vertices=verts,
        edges=tuple(edges),
        area=area,
        hull_barycenter=Point2(float(bary[0]), float(bary[1])),
        hull_area=hull_area,
    )


_I_FAMILY = {"Ia", "Ib", "IbShifted"}


def validate_shape(
    p: Polygon,
    kind: Optional[str] = None,
    v: Sequence[float] = (1.0, 1.0),
) -> ShapeDiagnostics:
    """Run the admissibility rules for the element ``kind``.

    Violations:
      R1  an edge collinear with an axis (component-wise moments vanish),
      R2  an edge whose supporting line passes through the origin (x.n = 0),
      R3  (I-family only) an edge normal collinear with the misc vector v.

    Warnings:
      W1  |x . n| small but nonzero (conditioning risk),
      W2  edge normal collinear with the position vector of the edge midpoint,
      W3  parallel / aligned similar edges and hanging nodes (limit cases).
    """
    diag = ShapeDiagnostics()
    v_arr = np.asarray(v, dtype=float)
    v_norm = float(np.linalg.norm(v_arr))
    for e in p.edges:
        nx, ny = e.normal
        if abs(nx) < TOL_AXIS or abs(ny) < TOL_AXIS:
            diag.violations.append(DiagnosticRecord(e.index, "R1", float(min(abs(nx), abs(ny)))))
        if abs(e.xn) < TOL_ORIGIN:
            diag.violations.append(DiagnosticRecord(e.index, "R2", float(abs(e.xn))))
        elif abs(e.xn) < W1_THRESHOLD:
            diag.warnings.append(DiagnosticRecord(e.index, "W1", float(abs(e.xn))))
        if kind in _I_FAMILY and v_norm > 0:
            cross = abs(nx * v_arr[1] - ny * v_arr[0]) / v_norm
            if cross < TOL_V:
                diag.violations.append(DiagnosticRecord(e.index, "R3", float(cross)))
        # W2: normal collinear with the position vector of the midpoint
        mid = e.point_at(e.length / 2.0)
        mid_norm = float(np.hypot(mid[0], mid[1]))
        if mid_norm > 0:
            cross_m = abs(nx * mid[1] - ny * mid[0]) / mid_norm
            if cross_m < W1_THRESHOLD:
                diag.warnings.append(DiagnosticRecord(e.index, "W2", float(cross_m)))
    # W3 limit cases: similar parallel / aligned edges, hanging nodes
    n = p.n_edges
    for i in range(n):
        ei = p.edges[i]
        for j in range(i + 1, n):
            ej = p.edges[j]
            cross = abs(ei.normal[0] * ej.normal[1] - ei.normal[1] * ej.normal[0])
            same_dir = ei.normal[0] * ej.normal[0] + ei.normal[1] * ej.normal[1] > 0
            similar_len = abs(ei.length - ej.length) <= 0.05 * max(ei.length, ej.length)
            if cross < 1e-8 and similar_len:
                if same_dir and abs(ei.xn - ej.xn) < TOL_ORIGIN:
                    tag = "W3-hanging-node" if j == i + 1 or (i == 0 and j == n - 1) else "W3-aligned-similar"
                else:
                    tag = "W3-parallel-similar"
                diag.warnings.append(DiagnosticRecord(j, tag, float(cross)))
    return diag


def edge_point(e: Edge, s: float) -> Point2:
    """Point at arc parameter ``s`` in [0, length] along the edge."""
    if s < -1e-12 or s > e.length + 1e-12:
        raise OutOfRange(f"arc parameter {s} outside [0, {e.length}]")
    s = min(max(s, 0.0), e.length)
    xy = e.point_at(s)
    return Point2(float(xy[0]), float(xy[1]))
