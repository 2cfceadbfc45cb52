"""Triangulation of (possibly non-convex) polygons and an internal Poisson
solver with edge-wise discontinuous Dirichlet data.

The sign convention is ``laplace(u) = source`` (no minus).  Solutions are
quadratic finite-element fields by default; all solves on one mesh share a
single factorized stiffness matrix.  The Dirichlet trace of a solution is the
prescribed data itself, so ``ScalarField.boundary_value`` returns it exactly
while interior values come from the finite-element interpolation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import GeometryError, Polygon, point_in_polygon
from .quadrature import QuadRule2D, triangle_rule

__all__ = [
    "MeshFailure",
    "OutsideDomain",
    "TriMesh",
    "BoundaryData",
    "ScalarField",
    "triangulate",
    "solve_poisson",
    "solve_poisson_many",
    "default_mesh_size",
    "MIN_ANGLE_FLOOR",
]

MIN_ANGLE_FLOOR = 20.0  # degrees


class MeshFailure(RuntimeError):
    pass


class OutsideDomain(ValueError):
    pass


def default_mesh_size(polygon: Polygon, divisor: int = 64) -> float:
    """Default target size: diameter / 64, overridable via POLYDIV_MESH_H."""
    env = os.environ.get("POLYDIV_MESH_H")
    if env:
        return float(env)
    return polygon.diameter / divisor


@dataclass
class TriMesh:
    """Conforming triangulation of a polygon.

    Boundary segments are unions of mesh edges; ``node_edge`` carries the
    polygon edge index for boundary nodes interior to an edge (-1 for mesh
    interior nodes), ``node_corner`` the polygon vertex index for corners
    (-1 otherwise) and ``node_arc`` the arc parameter along ``node_edge``.
    """

    polygon: Polygon
    nodes: np.ndarray            # (N, 2)
    triangles: np.ndarray        # (M, 3) CCW
    node_edge: np.ndarray        # (N,) int
    node_corner: np.ndarray      # (N,) int
    node_arc: np.ndarray         # (N,) float
    boundary_segments: np.ndarray  # (S, 2) node pairs along the boundary
    segment_edge: np.ndarray     # (S,) polygon edge index
    segment_arc: np.ndarray      # (S, 2) arc parameters of the endpoints
    h: float

    _caches: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_vertices(self) -> np.ndarray:
        return self.nodes[self.triangles]  # (M, 3, 2)

    def jacobians(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-triangle Jacobian determinant (2 * area) and inverse-transpose."""
        key = "jacobians"
        if key not in self._caches:
            tv = self.triangle_vertices()
            j11 = tv[:, 1, 0] - tv[:, 0, 0]
            j12 = tv[:, 2, 0] - tv[:, 0, 0]
            j21 = tv[:, 1, 1] - tv[:, 0, 1]
            j22 = tv[:, 2, 1] - tv[:, 0, 1]
            det = j11 * j22 - j12 * j21
            inv_t = np.empty((self.n_triangles, 2, 2))
            inv_t[:, 0, 0] = j22 / det
            inv_t[:, 0, 1] = -j21 / det
            inv_t[:, 1, 0] = -j12 / det
            inv_t[:, 1, 1] = j11 / det
            self._caches[key] = (det, inv_t)
        return self._caches[key]

    def rule_points(self, rule: QuadRule2D) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Quadrature points of ``rule`` mapped to every triangle.

        Returns flat arrays (x, y, w) with w summing to the polygon area.
        """
        key = ("rule_points", rule.degree, len(rule.weights))
        if key not in self._caches:
            tv = self.triangle_vertices()
            xi = rule.points[:, 0][None, :]
            eta = rule.points[:, 1][None, :]
            x = (
                tv[:, 0, 0][:, None] * (1 - xi - eta)
                + tv[:, 1, 0][:, None] * xi
                + tv[:, 2, 0][:, None] * eta
            )
            y = (
                tv[:, 0, 1][:, None] * (1 - xi - eta)
                + tv[:, 1, 1][:, None] * xi
                + tv[:, 2, 1][:, None] * eta
            )
            det, _ = self.jacobians()
            w = det[:, None] * rule.weights[None, :]
            self._caches[key] = (x.ravel(), y.ravel(), w.ravel())
        return self._caches[key]

    def min_angle(self) -> float:
        tv = self.triangle_vertices()
        angles = []
        for shift in range(3):
            a = tv[:, shift]
            b = tv[:, (shift + 1) % 3]
            c = tv[:, (shift + 2) % 3]
            u = b - a
            v = c - a
            cosang = np.sum(u * v, axis=1) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
            )
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1, 1))))
        return float(np.min(np.stack(angles)))

    def fe_space(self, degree: int) -> "_FESpace":
        key = ("fe", degree)
        if key not in self._caches:
            self._caches[key] = _FESpace(self, degree)
        return self._caches[key]

    def dump(self) -> str:
        """Plain-text node/triangle listing for debugging."""
        lines = [f"# nodes {self.n_nodes}"]
        for i, (x, y) in enumerate(self.nodes):
            lines.append(f"{i} {x!r} {y!r} edge={self.node_edge[i]} corner={self.node_corner[i]}")
        lines.append(f"# triangles {self.n_triangles}")
        for t in self.triangles:
            lines.append(f"{t[0]} {t[1]} {t[2]}")
        return "\n".join(lines)


def _boundary_points(polygon: Polygon, h: float):
    """Subdivide every polygon edge into chunks of length <= h."""
    nodes: List[Tuple[float, float]] = [(v.x, v.y) for v in polygon.vertices]
    node_edge = [-1] * len(nodes)
    node_corner = list(range(len(nodes)))
    node_arc = [0.0] * len(nodes)
    segments: List[Tuple[int, int]] = []
    seg_edge: List[int] = []
    seg_arc: List[Tuple[float, float]] = []
    n = polygon.n_edges
    for e in polygon.edges:
        m = max(1, int(round(e.length / h)))
        prev_idx = e.index
        prev_s = 0.0
        for j in range(1, m + 1):
            s = e.length * j / m
            if j == m:
                idx = (e.index + 1) % n
            else:
                pt = e.point_at(s)
                idx = len(nodes)
                nodes.append((float(pt[0]), float(pt[1])))
                node_edge.append(e.index)
                node_corner.append(-1)
                node_arc.append(s)
            segments.append((prev_idx, idx))
            seg_edge.append(e.index)
            seg_arc.append((prev_s, s))
            prev_idx, prev_s = idx, s
    return nodes, node_edge, node_corner, node_arc, segments, seg_edge, seg_arc


def _interior_candidates(polygon: Polygon, h: float, boundary: np.ndarray, segments) -> np.ndarray:
    verts = polygon.vertex_array()
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    dy = h * math.sqrt(3.0) / 2.0
    rows = int(np.floor((ymax - ymin) / dy)) + 1
    pts = []
    for r in range(rows + 1):
        y = ymin + r * dy
        offset = 0.5 * h if r % 2 else 0.0
        x = np.arange(xmin + offset, xmax + 0.5 * h, h)
        pts.extend((xi, y) for xi in x)
    if not pts:
        return np.empty((0, 2))
    pts = np.array(pts)
    # deterministic jitter breaks the cocircular ties of the regular grid
    rng = np.random.default_rng(1234)
    pts = pts + rng.uniform(-0.02, 0.02, pts.shape) * h
    keep = np.array([point_in_polygon(verts, px, py) for px, py in pts])
    pts = pts[keep]
    if len(pts) == 0:
        return pts
    # clearance from the boundary polyline and from the diametral disks of
    # the boundary segments (this keeps every segment a Delaunay edge)
    seg_a = boundary[[s[0] for s in segments]]
    seg_b = boundary[[s[1] for s in segments]]
    mid = 0.5 * (seg_a + seg_b)
    rad = 0.5 * np.linalg.norm(seg_b - seg_a, axis=1)
    ab = seg_b - seg_a
    ab2 = np.sum(ab * ab, axis=1)
    keep = np.ones(len(pts), dtype=bool)
    for i, p in enumerate(pts):
        d2 = np.sum((mid - p) ** 2, axis=1)
        if np.any(d2 <= (rad * 1.05) ** 2):
            keep[i] = False
            continue
        t = np.clip(np.sum((p - seg_a) * ab, axis=1) / ab2, 0.0, 1.0)
        proj = seg_a + t[:, None] * ab
        dist = np.min(np.linalg.norm(proj - p, axis=1))
        if dist < 0.45 * h:
            keep[i] = False
    return pts[keep]


def _delaunay_inside(polygon: Polygon, points: np.ndarray) -> np.ndarray:
    from scipy.spatial import Delaunay

    tri = Delaunay(points)
    simplices = tri.simplices
    verts = polygon.vertex_array()
    cent = points[simplices].mean(axis=1)
    keep = np.array([point_in_polygon(verts, cx, cy) for cx, cy in cent])
    tv = points[simplices]
    areas = 0.5 * np.abs(
        (tv[:, 1, 0] - tv[:, 0, 0]) * (tv[:, 2, 1] - tv[:, 0, 1])
        - (tv[:, 2, 0] - tv[:, 0, 0]) * (tv[:, 1, 1] - tv[:, 0, 1])
    )
    keep &= areas > 1e-12 * max(areas.max(), 1e-300)
    simplices = simplices[keep]
    # enforce CCW orientation
    tv = points[simplices]
    det = (tv[:, 1, 0] - tv[:, 0, 0]) * (tv[:, 2, 1] - tv[:, 0, 1]) - (
        tv[:, 2, 0] - tv[:, 0, 0]
    ) * (tv[:, 1, 1] - tv[:, 0, 1])
    flip = det < 0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]
    return simplices


def _conforming(segments, triangles) -> bool:
    edge_set = set()
    for t in triangles:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            edge_set.add((min(a, b), max(a, b)))
    return all((min(a, b), max(a, b)) in edge_set for a, b in segments)


def triangulate(polygon: Polygon, h: Optional[float] = None) -> TriMesh:
    """Triangulate the polygon with target mesh size ``h``.

    Boundary points are spread at spacing <= h on every edge; interior points
    come from a staggered grid filtered away from the boundary segments'
    diametral disks so that the Delaunay triangulation conforms to the
    boundary.  Interior points are Laplace-smoothed.  Retries on a finer h
    when the quality floor or conformity fails.
    """
    if h is None:
        h = default_mesh_size(polygon)
    if h <= 0:
        raise GeometryError("mesh size must be positive")

    h_eff = float(h)
    last_reason = ""
    for _attempt in range(4):
        nodes, node_edge, node_corner, node_arc, segments, seg_edge, seg_arc = _boundary_points(
            polygon, h_eff
        )
        bpts = np.array(nodes)
        ipts = _interior_candidates(polygon, h_eff, bpts, segments)
        pts = np.vstack([bpts, ipts]) if len(ipts) else bpts
        n_bnd = len(bpts)

        simplices = _delaunay_inside(polygon, pts)
        # Laplace smoothing of the interior points, then re-triangulate
        for _ in range(2):
            if len(ipts) == 0:
                break
            neigh: Dict[int, set] = {}
            for t in simplices:
                for a in t:
                    neigh.setdefault(int(a), set()).update(int(b) for b in t if b != a)
            verts = polygon.vertex_array()
            moved = pts.copy()
            for idx in range(n_bnd, len(pts)):
                nb = neigh.get(idx)
                if not nb:
                    continue
                target = pts[list(nb)].mean(axis=0)
                if point_in_polygon(verts, target[0], target[1]):
                    moved[idx] = target
            pts = moved
            simplices = _delaunay_inside(polygon, pts)

        mesh = TriMesh(
            polygon=polygon,
            nodes=pts,
            triangles=simplices,
            node_edge=np.array(node_edge + [-1] * (len(pts) - n_bnd), dtype=int),
            node_corner=np.array(node_corner + [-1] * (len(pts) - n_bnd), dtype=int),
            node_arc=np.array(node_arc + [0.0] * (len(pts) - n_bnd), dtype=float),
            boundary_segments=np.array(segments, dtype=int),
            segment_edge=np.array(seg_edge, dtype=int),
            segment_arc=np.array(seg_arc, dtype=float),
            h=h_eff,
        )
        if not _conforming(segments, simplices):
            last_reason = "boundary not recovered"
        elif len(simplices) == 0:
            last_reason = "empty triangulation"
        elif mesh.min_angle() < MIN_ANGLE_FLOOR and len(pts) > n_bnd:
            last_reason = f"min angle {mesh.min_angle():.1f} below floor"
        else:
            area = float(np.sum(mesh.jacobians()[0]) / 2.0)
            if abs(area - polygon.area) > 1e-8 * max(1.0, polygon.area):
                last_reason = f"covered area {area} != polygon area {polygon.area}"
            else:
                return mesh
        h_eff *= 0.7
    raise MeshFailure(f"could not mesh polygon at target h={h}: {last_reason}")


_ZERO = ("zero",)


class BoundaryData:
    """Edge-wise Dirichlet data: zero, a constant, or a trace of the arc
    parameter.  Discontinuities at polygon vertices are allowed."""

    def __init__(self, polygon: Polygon, per_edge: Sequence):
        if len(per_edge) != polygon.n_edges:
            raise GeometryError("one datum per polygon edge required")
        self.polygon = polygon
        self.per_edge = list(per_edge)

    @classmethod
    def zero(cls, polygon: Polygon) -> "BoundaryData":
        return cls(polygon, [0.0] * polygon.n_edges)

    @classmethod
    def constant(cls, polygon: Polygon, c: float) -> "BoundaryData":
        return cls(polygon, [float(c)] * polygon.n_edges)

    @classmethod
    def indicator(cls, polygon: Polygon, edge_index: int, value: Union[float, Callable]) -> "BoundaryData":
        data: List = [0.0] * polygon.n_edges
        data[edge_index] = value
        return cls(polygon, data)

    def eval(self, edge_index: int, s):
        datum = self.per_edge[edge_index]
        s = np.asarray(s, dtype=float)
        if callable(datum):
            return np.broadcast_to(np.asarray(datum(s), dtype=float), s.shape).copy()
        return np.full_like(s, float(datum))

    def __add__(self, other: "BoundaryData") -> "BoundaryData":
        def combine(a, b):
            if callable(a) or callable(b):
                fa = a if callable(a) else (lambda s, c=a: np.full_like(np.asarray(s, float), c))
                fb = b if callable(b) else (lambda s, c=b: np.full_like(np.asarray(s, float), c))
                return lambda s: np.asarray(fa(s)) + np.asarray(fb(s))
            return a + b

        return BoundaryData(
            self.polygon, [combine(a, b) for a, b in zip(self.per_edge, other.per_edge)]
        )


# P2 reference shape functions: vertex nodes then mid-edge nodes (12, 23, 31)
def _p2_shape(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    lam1 = 1.0 - xi - eta
    lam2 = xi
    lam3 = eta
    return np.stack(
        [
            lam1 * (2 * lam1 - 1),
            lam2 * (2 * lam2 - 1),
            lam3 * (2 * lam3 - 1),
            4 * lam1 * lam2,
            4 * lam2 * lam3,
            4 * lam3 * lam1,
        ],
        axis=-1,
    )


def _p2_grad(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    lam1 = 1.0 - xi - eta
    z = np.zeros_like(xi)
    dxi = np.stack(
        [1 - 4 * lam1, 4 * xi - 1, z, 4 * (lam1 - xi), 4 * eta, -4 * eta], axis=-1
    )
    deta = np.stack(
        [1 - 4 * lam1, z, 4 * eta - 1, -4 * xi, 4 * xi, 4 * (lam1 - eta)], axis=-1
    )
    return np.stack([dxi, deta], axis=-2)  # (..., 2, 6)


def _p1_shape(xi, eta):
    return np.stack([1.0 - xi - eta, xi, eta], axis=-1)


def _p1_grad(xi, eta):
    one = np.ones_like(xi)
    z = np.zeros_like(xi)
    dxi = np.stack([-one, one, z], axis=-1)
    deta = np.stack([-one, z, one], axis=-1)
    return np.stack([dxi, deta], axis=-2)


class _FESpace:
    """Lagrange P1/P2 space on a TriMesh with a factorized interior
    stiffness block shared by all solves."""

    def __init__(self, mesh: TriMesh, degree: int):
        if degree not in (1, 2):
            raise ValueError("only linear and quadratic elements are supported")
        self.mesh = mesh
        self.degree = degree
        tris = mesh.triangles
        if degree == 1:
            self.conn = tris.copy()
            self.dof_xy = mesh.nodes.copy()
            self.dof_edge = mesh.node_edge.copy()
            self.dof_corner = mesh.node_corner.copy()
            self.dof_arc = mesh.node_arc.copy()
        else:
            edges: Dict[Tuple[int, int], int] = {}
            conn = np.empty((len(tris), 6), dtype=int)
            mid_xy: List[Tuple[float, float]] = []
            base = mesh.n_nodes
            for m, t in enumerate(tris):
                conn[m, :3] = t
                for loc, (a, b) in enumerate(((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))):
                    key = (min(a, b), max(a, b))
                    if key not in edges:
                        edges[key] = base + len(mid_xy)
                        mid_xy.append(tuple(0.5 * (mesh.nodes[a] + mesh.nodes[b])))
                    conn[m, 3 + loc] = edges[key]
            self.conn = conn
            self.dof_xy = np.vstack([mesh.nodes, np.array(mid_xy)]) if mid_xy else mesh.nodes.copy()
            n_dof = len(self.dof_xy)
            self.dof_edge = np.full(n_dof, -1, dtype=int)
            self.dof_corner = np.full(n_dof, -1, dtype=int)
            self.dof_arc = np.zeros(n_dof)
            self.dof_edge[: mesh.n_nodes] = mesh.node_edge
            self.dof_corner[: mesh.n_nodes] = mesh.node_corner
            self.dof_arc[: mesh.n_nodes] = mesh.node_arc
            for (a, b), idx in edges.items():
                seg = (min(a, b), max(a, b))
                self._tag_midside(seg, idx)
        self.n_dof = len(self.dof_xy)
        self.boundary_mask = (self.dof_edge >= 0) | (self.dof_corner >= 0)
        self.interior = np.where(~self.boundary_mask)[0]
        self.boundary = np.where(self.boundary_mask)[0]
        self._assemble()

    def _tag_midside(self, seg: Tuple[int, int], idx: int) -> None:
        mesh = self.mesh
        seg_map = getattr(mesh, "_seg_lookup", None)
        if seg_map is None:
            seg_map = {
                (min(a, b), max(a, b)): i
                for i, (a, b) in enumerate(mesh.boundary_segments)
            }
            mesh._seg_lookup = seg_map  # type: ignore[attr-defined]
        i = seg_map.get(seg)
        if i is None:
            return
        self.dof_edge[idx] = mesh.segment_edge[i]
        self.dof_arc[idx] = 0.5 * (mesh.segment_arc[i, 0] + mesh.segment_arc[i, 1])

    def _assemble(self) -> None:
        mesh = self.mesh
        det, inv_t = mesh.jacobians()
        rule = triangle_rule(2 * (self.degree - 1) if self.degree > 1 else 0)
        xi = rule.points[:, 0]
        eta = rule.points[:, 1]
        dref = _p2_grad(xi, eta) if self.degree == 2 else _p1_grad(xi, eta)  # (q, 2, nb)
        # physical gradients: G[m, q] = inv_t[m] @ dref[q]
        G = np.einsum("mij,qjb->mqib", inv_t, dref)
        W = det[:, None] * rule.weights[None, :]
        Ke = np.einsum("mq,mqib,mqic->mbc", W, G, G)
        nb = Ke.shape[1]
        rows = np.repeat(self.conn, nb, axis=1).ravel()
        cols = np.tile(self.conn, (1, nb)).ravel()
        K = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(self.n_dof, self.n_dof)).tocsr()
        self.K = K
        ii = self.interior
        bb = self.boundary
        self.K_ii = K[ii][:, ii].tocsc()
        self.K_ib = K[ii][:, bb].tocsr()
        self._lu = spla.splu(self.K_ii) if len(ii) else None

    def dirichlet_values(self, bc: BoundaryData, corner_rule: str) -> np.ndarray:
        polygon = self.mesh.polygon
        n = polygon.n_edges
        vals = np.zeros(self.n_dof)
        on_edge = self.dof_edge >= 0
        for e in range(n):
            sel = np.where(on_edge & (self.dof_edge == e) & (self.dof_corner < 0))[0]
            if len(sel):
                vals[sel] = bc.eval(e, self.dof_arc[sel])
        for idx in np.where(self.dof_corner >= 0)[0]:
            v = int(self.dof_corner[idx])
            prev_e = (v - 1) % n
            next_e = v
            lim_prev = float(bc.eval(prev_e, polygon.edges[prev_e].length))
            lim_next = float(bc.eval(next_e, 0.0))
            if corner_rule == "average":
                vals[idx] = 0.5 * (lim_prev + lim_next)
            elif corner_rule == "zero":
                vals[idx] = 0.0
            elif corner_rule == "first-edge":
                vals[idx] = lim_prev if prev_e < next_e else lim_next
            else:
                raise ValueError(f"unknown corner rule {corner_rule!r}")
        return vals

    def load_vector(self, source: Optional[Callable], rule_degree: int) -> np.ndarray:
        if source is None:
            return np.zeros(self.n_dof)
        mesh = self.mesh
        rule = triangle_rule(rule_degree)
        x, y, w = mesh.rule_points(rule)
        nq = len(rule.weights)
        fvals = np.asarray(source(x, y), dtype=float).reshape(mesh.n_triangles, nq)
        N = (_p2_shape if self.degree == 2 else _p1_shape)(rule.points[:, 0], rule.points[:, 1])
        det, _ = mesh.jacobians()
        W = det[:, None] * rule.weights[None, :]
        Fe = np.einsum("mq,mq,qb->mb", W, fvals, N)
        F = np.zeros(self.n_dof)
        np.add.at(F, self.conn.ravel(), Fe.ravel())
        return F

    def solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        if len(self.interior) == 0:
            return rhs
        return self._lu.solve(rhs)


@dataclass(eq=False)
class ScalarField:
    """Finite-element solution of one Poisson problem, evaluable with
    gradient anywhere in the polygon.

    ``boundary_value`` returns the prescribed Dirichlet data, the exact trace
    of the continuous solution.
    """

    mesh: TriMesh
    degree: int
    coefficients: np.ndarray
    source: Optional[Callable]
    bc: BoundaryData
    corner_rule: str = "average"

    @property
    def space(self) -> _FESpace:
        return self.mesh.fe_space(self.degree)

    def boundary_value(self, edge_index: int, s):
        return self.bc.eval(edge_index, s)

    def value_and_grad(self, x: float, y: float) -> Tuple[float, np.ndarray]:
        m, xi, eta = _locate(self.mesh, x, y)
        space = self.space
        coef = self.coefficients[space.conn[m]]
        if self.degree == 2:
            N = _p2_shape(np.array(xi), np.array(eta))
            dref = _p2_grad(np.array(xi), np.array(eta))
        else:
            N = _p1_shape(np.array(xi), np.array(eta))
            dref = _p1_grad(np.array(xi), np.array(eta))
        _, inv_t = self.mesh.jacobians()
        grad_ref = dref @ coef
        grad = inv_t[m] @ grad_ref
        return float(N @ coef), grad

    def values_at_rule(self, rule: QuadRule2D) -> np.ndarray:
        """Field values at the mapped rule points, flattened per triangle."""
        N = (_p2_shape if self.degree == 2 else _p1_shape)(rule.points[:, 0], rule.points[:, 1])
        return (self.coefficients[self.space.conn] @ N.T).ravel()  # (M, nq) per triangle


def _locate(mesh: TriMesh, x: float, y: float) -> Tuple[int, float, float]:
    """Containing triangle and reference coordinates of a point."""
    key = "locator"
    if key not in mesh._caches:
        tv = mesh.triangle_vertices()
        lo = tv.min(axis=1)
        hi = tv.max(axis=1)
        cell = max(mesh.h, 1e-12)
        origin = mesh.nodes.min(axis=0)
        grid: Dict[Tuple[int, int], List[int]] = {}
        for m in range(mesh.n_triangles):
            i0, j0 = np.floor((lo[m] - origin) / cell).astype(int)
            i1, j1 = np.floor((hi[m] - origin) / cell).astype(int)
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    grid.setdefault((i, j), []).append(m)
        mesh._caches[key] = (grid, origin, cell)
    grid, origin, cell = mesh._caches[key]
    i = int(math.floor((x - origin[0]) / cell))
    j = int(math.floor((y - origin[1]) / cell))
    det, inv_t = mesh.jacobians()
    tv = mesh.triangle_vertices()
    best = None
    for di in (0, -1, 1):
        for dj in (0, -1, 1):
            for m in grid.get((i + di, j + dj), ()):
                rx = x - tv[m, 0, 0]
                ry = y - tv[m, 0, 1]
                xi = inv_t[m, 0, 0] * rx + inv_t[m, 1, 0] * ry
                eta = inv_t[m, 0, 1] * rx + inv_t[m, 1, 1] * ry
                margin = min(xi, eta, 1.0 - xi - eta)
                if best is None or margin > best[3]:
                    best = (m, xi, eta, margin)
    if best is None or best[3] < -1e-9:
        raise OutsideDomain(f"point ({x}, {y}) is outside the meshed polygon")
    m, xi, eta, _ = best
    xi = min(max(xi, 0.0), 1.0)
    eta = min(max(eta, 0.0), 1.0 - xi)
    return m, xi, eta


def solve_poisson(
    mesh: TriMesh,
    source: Optional[Callable],
    bc: BoundaryData,
    degree: int = 2,
    corner_rule: str = "average",
    rule_degree: int = 6,
) -> ScalarField:
    """Galerkin solution of ``laplace(u) = source`` with Dirichlet data
    imposed nodally (corner discontinuities resolved by ``corner_rule``)."""
    space = mesh.fe_space(degree)
    u = np.zeros(space.n_dof)
    u[space.boundary] = space.dirichlet_values(bc, corner_rule)[space.boundary]
    F = space.load_vector(source, rule_degree)
    rhs = -F[space.interior] - space.K_ib @ u[space.boundary]
    u[space.interior] = space.solve_interior(rhs)
    return ScalarField(
        mesh=mesh, degree=degree, coefficients=u, source=source, bc=bc, corner_rule=corner_rule
    )


def solve_poisson_many(
    mesh: TriMesh,
    problems: Sequence[Tuple[Optional[Callable], BoundaryData]],
    degree: int = 2,
    corner_rule: str = "average",
    rule_degree: int = 6,
) -> List[ScalarField]:
    """Solve independent Poisson problems on one mesh; all share the one
    factorized stiffness matrix of the mesh."""
    return [
        solve_poisson(mesh, src, bc, degree=degree, corner_rule=corner_rule, rule_degree=rule_degree)
        for src, bc in problems
    ]
