"""Triangulation of (possibly non-convex) polygons and an internal Poisson
solver with edge-wise discontinuous Dirichlet data.

The sign convention is ``laplace(u) = source`` (no minus).  Solutions are
quadratic finite-element fields; all solves on one mesh share a
single factorized stiffness matrix, and a batch of solves is one
``FieldBank`` of coefficient rows, each viewed as a ``ScalarField``.  The
Dirichlet trace of a solution is the prescribed data itself, so a bank's
edge table (``FieldBank.edge_samples``) holds it exactly while interior
values come from the finite-element interpolation.

scipy is imported inside the functions that mesh and factor, so that
importing the package, and every command that builds no mesh, loads none
of it.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import GeometryError, Polygon, point_in_polygon
from .quadrature import QuadRule2D, triangle_rule

__all__ = [
    "MeshFailure",
    "TriMesh",
    "BoundaryData",
    "ScalarField",
    "FieldBank",
    "triangulate",
    "solve_poisson_many",
    "default_mesh_size",
    "DEFAULT_H_DIVISOR",
    "MIN_ANGLE_FLOOR",
]

MIN_ANGLE_FLOOR = 20.0  # degrees
DEFAULT_H_DIVISOR = 64

_log = logging.getLogger("polydiv")


class MeshFailure(RuntimeError):
    pass


def default_mesh_size(polygon: Polygon) -> float:
    """Default target size: diameter / DEFAULT_H_DIVISOR."""
    return polygon.diameter / DEFAULT_H_DIVISOR


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
        """The quadratic Lagrange space of the mesh, built once; 2 is the
        only degree."""
        if degree != 2:
            raise ValueError(f"only quadratic elements are supported, not degree {degree!r}")
        if "fe" not in self._caches:
            self._caches["fe"] = _FESpace(self)
        return self._caches["fe"]


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
        arcs = (e.length * np.arange(1, m + 1) / m).tolist()  # the last is the next corner
        first = len(nodes)
        nodes.extend(map(tuple, e.point_at(arcs[:-1]).tolist()))
        node_edge.extend([e.index] * (m - 1))
        node_corner.extend([-1] * (m - 1))
        node_arc.extend(arcs[:-1])
        ends = [e.index, *range(first, first + m - 1), (e.index + 1) % n]
        segments.extend(zip(ends[:-1], ends[1:]))
        seg_edge.extend([e.index] * m)
        seg_arc.extend(zip([0.0] + arcs[:-1], arcs))
    return nodes, node_edge, node_corner, node_arc, segments, seg_edge, seg_arc


def _interior_candidates(polygon: Polygon, h: float, boundary: np.ndarray, segments: np.ndarray) -> np.ndarray:
    from scipy.spatial import cKDTree

    verts = polygon.vertex_array()
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    dy = h * math.sqrt(3.0) / 2.0
    rows = int(np.floor((ymax - ymin) / dy)) + 1
    grid = []
    for r in range(rows + 1):
        x = np.arange(xmin + (0.5 * h if r % 2 else 0.0), xmax + 0.5 * h, h)
        grid.append(np.column_stack([x, np.full_like(x, ymin + r * dy)]))
    pts = np.concatenate(grid)
    # deterministic jitter breaks the cocircular ties of the regular grid
    rng = np.random.default_rng(1234)
    pts = pts + rng.uniform(-0.02, 0.02, pts.shape) * h
    pts = pts[point_in_polygon(verts, pts[:, 0], pts[:, 1])]
    # clearance from the boundary polyline and from the diametral disks of
    # the boundary segments (this keeps every segment a Delaunay edge)
    seg_a = boundary[segments[:, 0]]
    seg_b = boundary[segments[:, 1]]
    mid = 0.5 * (seg_a + seg_b)
    rad = 0.5 * np.linalg.norm(seg_b - seg_a, axis=1)
    ab = seg_b - seg_a
    ab2 = np.sum(ab * ab, axis=1)
    # a segment whose disk holds a point, or that lies within 0.45 h of it,
    # has its midpoint within this reach (padded against rounding), so only
    # those pairs are tested and the mask is that of the all-pairs test
    rad_max = float(rad.max())
    reach = max(1.05 * rad_max, rad_max + 0.45 * h) * (1.0 + 1e-9)
    pairs = cKDTree(pts).sparse_distance_matrix(cKDTree(mid), reach, output_type="ndarray")
    i, j = pairs["i"], pairs["j"]
    p = pts[i]
    in_disk = np.sum((mid[j] - p) ** 2, axis=1) <= (rad[j] * 1.05) ** 2
    t = np.clip(np.sum((p - seg_a[j]) * ab[j], axis=1) / ab2[j], 0.0, 1.0)
    dist = np.linalg.norm(seg_a[j] + t[:, None] * ab[j] - p, axis=1)
    keep = np.ones(len(pts), dtype=bool)
    keep[i[in_disk | (dist < 0.45 * h)]] = False
    return pts[keep]


def _delaunay_inside(verts: np.ndarray, points: np.ndarray, on_edge: np.ndarray) -> np.ndarray:
    """Delaunay triangles of ``points`` inside the polygon, CCW.  A simplex
    whose three nodes lie on one polygon edge (``on_edge[node, edge]``) is
    flat; its centroid lies on the boundary, where the even-odd test may
    count it inside, so it is dropped."""
    from scipy.spatial import Delaunay

    tri = Delaunay(points)
    simplices = tri.simplices
    cent = points[simplices].mean(axis=1)
    keep = point_in_polygon(verts, cent[:, 0], cent[:, 1])
    keep &= ~on_edge[simplices].all(axis=1).any(axis=1)
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


def _triangle_edges(triangles: np.ndarray) -> np.ndarray:
    """(3M, 2) node pairs of the local edges (0,1), (1,2), (2,0) of every triangle."""
    return triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)


def _edge_keys(pairs: np.ndarray, n_nodes: int) -> np.ndarray:
    """One int64 key per undirected edge: min * n_nodes + max."""
    pairs = np.sort(pairs.astype(np.int64), axis=1)
    return pairs[:, 0] * n_nodes + pairs[:, 1]


def _conforming(segments: np.ndarray, triangles: np.ndarray, n_nodes: int) -> bool:
    mesh_edges = np.unique(_edge_keys(_triangle_edges(triangles), n_nodes))
    return bool(np.all(np.isin(_edge_keys(segments, n_nodes), mesh_edges, assume_unique=True)))


def _smoothed(pts: np.ndarray, triangles: np.ndarray, n_bnd: int, verts: np.ndarray) -> np.ndarray:
    """One Laplace step: every interior point with a neighbour moves to the
    mean of its neighbours, unless that mean lies outside the polygon."""
    import scipy.sparse as sp

    n = len(pts)
    e = _triangle_edges(triangles)
    adj = sp.csr_matrix(
        (np.ones(2 * len(e)), (np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]]))),
        shape=(n, n),
    )
    adj.data[:] = 1.0  # an edge shared by two triangles is one neighbour
    degree = np.asarray(adj.sum(axis=1)).ravel()
    target = (adj @ pts) / np.maximum(degree, 1.0)[:, None]
    move = (np.arange(n) >= n_bnd) & (degree > 0)
    move[move] = point_in_polygon(verts, target[move, 0], target[move, 1])
    moved = pts.copy()
    moved[move] = target[move]
    return moved


def triangulate(polygon: Polygon, h: Optional[float] = None) -> TriMesh:
    """Triangulate the polygon with target mesh size ``h``.

    Boundary points are spread at spacing <= h on every edge; interior points
    come from a staggered grid filtered away from the boundary segments'
    diametral disks so that the Delaunay triangulation conforms to the
    boundary.  Interior points are Laplace-smoothed.  Retries at 0.7 h, up to
    four attempts, when an attempt is rejected; each rejected attempt and its
    reason is logged at INFO on the ``polydiv`` logger.  The checks, in
    order: every boundary segment is a mesh edge ("boundary not recovered",
    which also rejects an empty triangulation), the minimum angle reaches
    ``MIN_ANGLE_FLOOR`` when there are interior points, and the triangles
    cover the polygon's area.
    """
    if h is None:
        h = default_mesh_size(polygon)
    if not 0 < h < math.inf:
        raise GeometryError(f"mesh size {h!r} is not positive and finite")

    verts = polygon.vertex_array()
    h_eff = float(h)
    last_reason = ""
    for attempt in range(4):
        nodes, node_edge, node_corner, node_arc, segments, seg_edge, seg_arc = _boundary_points(
            polygon, h_eff
        )
        bpts = np.array(nodes)
        segments = np.array(segments, dtype=int)
        ipts = _interior_candidates(polygon, h_eff, bpts, segments)
        pts = np.vstack([bpts, ipts])
        n_bnd = len(bpts)
        # the polygon edges each node lies on: its own, or both at a corner
        edge_of, corner_of = np.array(node_edge), np.array(node_corner)
        on_edge = np.zeros((len(pts), polygon.n_edges), dtype=bool)
        i = np.flatnonzero(edge_of >= 0)
        on_edge[i, edge_of[i]] = True
        c = np.flatnonzero(corner_of >= 0)
        on_edge[c, corner_of[c]] = on_edge[c, corner_of[c] - 1] = True

        simplices = _delaunay_inside(verts, pts, on_edge)
        # Laplace smoothing of the interior points, then re-triangulate
        for _ in range(2):
            pts = _smoothed(pts, simplices, n_bnd, verts)
            simplices = _delaunay_inside(verts, pts, on_edge)

        mesh = TriMesh(
            polygon=polygon,
            nodes=pts,
            triangles=simplices,
            node_edge=np.array(node_edge + [-1] * (len(pts) - n_bnd), dtype=int),
            node_corner=np.array(node_corner + [-1] * (len(pts) - n_bnd), dtype=int),
            node_arc=np.array(node_arc + [0.0] * (len(pts) - n_bnd), dtype=float),
            boundary_segments=segments,
            segment_edge=np.array(seg_edge, dtype=int),
            segment_arc=np.array(seg_arc, dtype=float),
            h=h_eff,
        )
        if not _conforming(segments, simplices, len(pts)):
            last_reason = "boundary not recovered"
        elif mesh.min_angle() < MIN_ANGLE_FLOOR and len(pts) > n_bnd:
            last_reason = f"min angle {mesh.min_angle():.1f} below floor"
        else:
            area = float(np.sum(mesh.jacobians()[0]) / 2.0)
            if abs(area - polygon.area) > 1e-8 * max(1.0, polygon.area):
                last_reason = f"covered area {area} != polygon area {polygon.area}"
            else:
                return mesh
        _log.info("triangulate: attempt %d at h=%g rejected: %s", attempt + 1, h_eff, last_reason)
        h_eff *= 0.7
    raise MeshFailure(f"could not mesh polygon at target h={h}: {last_reason}")


class BoundaryData:
    """Edge-wise Dirichlet data: one datum per edge, a number (a constant
    trace) or a trace of the arc parameter.  Discontinuities at polygon
    vertices are allowed."""

    def __init__(self, polygon: Polygon, per_edge: Sequence[Union[float, Callable]]):
        if len(per_edge) != polygon.n_edges:
            raise GeometryError("one datum per polygon edge required")
        self.polygon = polygon
        self.per_edge = [d if callable(d) else float(d) for d in per_edge]

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

    @staticmethod
    def table(data: Sequence["BoundaryData"], edge_index: int, s) -> np.ndarray:
        """(len(data),) + shape(s) table of each datum on the edge at arc
        parameters ``s``.  The constants fill their rows in one broadcast;
        only the traces are called."""
        s = np.asarray(s, dtype=float)
        per_edge = [d.per_edge[edge_index] for d in data]
        out = np.empty((len(per_edge),) + s.shape)
        out[...] = np.array([0.0 if callable(c) else c for c in per_edge]).reshape((-1,) + (1,) * s.ndim)
        for row, c in zip(out, per_edge):
            if callable(c):
                row[...] = c(s)  # broadcasts a scalar trace
        return out


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


class _FESpace:
    """Quadratic Lagrange space on a TriMesh with a factorized interior
    stiffness block shared by all solves."""

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        tris = mesh.triangles
        # one midside node per distinct mesh edge, numbered by edge key
        n = mesh.n_nodes
        keys, local = np.unique(_edge_keys(_triangle_edges(tris), n), return_inverse=True)
        self.conn = np.hstack([tris, n + local.reshape(-1, 3)])
        self.dof_edge = np.concatenate([mesh.node_edge, np.full(len(keys), -1)])
        self.dof_corner = np.concatenate([mesh.node_corner, np.full(len(keys), -1)])
        self.dof_arc = np.concatenate([mesh.node_arc, np.zeros(len(keys))])
        # the midside node of every boundary segment carries its edge tag
        seg_keys = _edge_keys(mesh.boundary_segments, n)
        pos = np.searchsorted(keys, seg_keys)
        found = np.append(keys, -1)[pos] == seg_keys  # -1 pads pos == len(keys)
        if not found.all():
            raise MeshFailure(f"{np.count_nonzero(~found)} boundary segments are not mesh edges")
        self.dof_edge[n + pos] = mesh.segment_edge
        self.dof_arc[n + pos] = 0.5 * (mesh.segment_arc[:, 0] + mesh.segment_arc[:, 1])
        self.n_dof = len(self.dof_edge)
        self.boundary_mask = (self.dof_edge >= 0) | (self.dof_corner >= 0)
        self.interior = np.where(~self.boundary_mask)[0]
        self.boundary = np.where(self.boundary_mask)[0]
        # where the Dirichlet data goes: the non-corner DOFs of each polygon
        # edge with their arc parameters, followed by the edge's two ends
        # (0 and its length), and each corner DOF with the edge ending there
        # and the edge starting there
        edges = mesh.polygon.edges
        side = self.dof_corner < 0
        self._edge_dofs = []
        for e in edges:
            sel = np.where((self.dof_edge == e.index) & side)[0]
            self._edge_dofs.append((sel, np.append(self.dof_arc[sel], [0.0, e.length])))
        self._corner_edges = []
        for idx in np.where(~side)[0]:
            v = int(self.dof_corner[idx])
            self._corner_edges.append((idx, (v - 1) % len(edges), v))
        import scipy.sparse as sp

        # column j sends entry j of the flat connectivity to its global dof
        flat = self.conn.ravel()
        self._scatter = sp.csr_matrix((np.ones(flat.size), (flat, np.arange(flat.size))), shape=(self.n_dof, flat.size))
        self._assemble()

    def _assemble(self) -> None:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        mesh = self.mesh
        det, inv_t = mesh.jacobians()
        rule = triangle_rule(2)
        dref = _p2_grad(rule.points[:, 0], rule.points[:, 1])  # (q, 2, 6)
        # physical gradients: G[m, q] = inv_t[m] @ dref[q]
        G = np.einsum("mij,qjb->mqib", inv_t, dref)
        W = det[:, None] * rule.weights[None, :]
        Ke = np.einsum("mq,mqib,mqic->mbc", W, G, G)
        nb = Ke.shape[1]
        rows = np.repeat(self.conn, nb, axis=1).ravel()
        cols = np.tile(self.conn, (1, nb)).ravel()
        K = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(self.n_dof, self.n_dof)).tocsr()
        K_i = K[self.interior]
        self.K_ii = K_i[:, self.interior].tocsc()
        self.K_ib = K_i[:, self.boundary].tocsr()
        # K_ii is symmetric positive definite: SuperLU's symmetric mode, a
        # minimum-degree ordering of A^T + A and diagonal pivots
        self._lu = (
            spla.splu(self.K_ii, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
            if len(self.interior)
            else None
        )

    def dirichlet_values(self, bcs: Sequence[BoundaryData]) -> np.ndarray:
        """(len(bcs), n_dof) nodal Dirichlet data; a polygon corner takes the
        average of the limits of its two edges' data.  Each edge's data is
        one ``BoundaryData.table``, which also gives the limits at its two
        ends."""
        vals = np.zeros((len(bcs), self.n_dof))
        ends = []  # per edge, the data at 0 and at its length
        for e, (sel, s) in enumerate(self._edge_dofs):
            data = BoundaryData.table(bcs, e, s)
            vals[:, sel] = data[:, :-2]
            ends.append(data[:, -2:])
        for idx, prev_e, next_e in self._corner_edges:
            vals[:, idx] = 0.5 * (ends[prev_e][:, 1] + ends[next_e][:, 0])
        return vals

    def load_vectors(self, values, rule: QuadRule2D) -> np.ndarray:
        """(n, n_dof) load vectors of n functions, given their (n, points)
        values at ``mesh.rule_points(rule)``; the element vectors are summed
        in connectivity order by one sparse product."""
        mesh = self.mesh
        _, _, w = mesh.rule_points(rule)
        nq = len(rule.weights)
        fvals = np.asarray(values, dtype=float).reshape(len(values), mesh.n_triangles, nq)
        # contiguous rows of N^T for the sum over q; (m, b) rows for the scatter
        NT = np.ascontiguousarray(_p2_shape(rule.points[:, 0], rule.points[:, 1]).T)
        Fe = np.einsum("mq,nmq,bq->mbn", w.reshape(-1, nq), fvals, NT)
        return (self._scatter @ Fe.reshape(-1, len(fvals))).T

    def solve(self, problems: Sequence[Tuple[Optional[Callable], BoundaryData]], rule_degree: int) -> "FieldBank":
        """Galerkin solutions of the batch ``laplace(u) = source`` with
        Dirichlet data imposed nodally, as one bank.  Problems that share a
        source object share its load vector; the boundary lift of the whole
        batch is one sparse product.  Each column is its own ``splu`` solve:
        a multi-column solve moves the last bits of U."""
        problems = list(problems)
        U = np.zeros((len(problems), self.n_dof))
        U[:, self.boundary] = self.dirichlet_values([bc for _, bc in problems])[:, self.boundary]
        rule = triangle_rule(rule_degree)
        x, y, _ = self.mesh.rule_points(rule)
        sources = {id(src): src for src, _ in problems}
        zero = np.zeros_like(x)  # the values of a missing source
        loads = {key: self.load_vectors([zero if src is None else src(x, y)], rule)[0] for key, src in sources.items()}
        lift = self.K_ib @ U[:, self.boundary].T  # (interior, problems)
        rhs = -np.array([loads[id(src)][self.interior] for src, _ in problems]) - lift.T
        if self._lu is not None:
            for row, b in zip(U, rhs):
                row[self.interior] = self._lu.solve(b)
        return FieldBank(self, U, problems)


class FieldBank:
    """The solved fields of a batch of Poisson problems on one FE space.

    Row f of ``U`` holds the coefficients of u_f, the solution of
    ``problems[f]`` = (source, boundary data), and ``bank[f]`` is a view of
    it.  Row f of a sample table holds u_f at the sample points: the exact
    Dirichlet data on an edge, or the finite-element values at the mapped
    points of a triangle rule.  Tables are cached per set of sample points;
    an integral of u_f against g is U[f] . b(g), with ``space.load_vectors``.
    """

    def __init__(self, space: _FESpace, U: np.ndarray, problems: Sequence[Tuple[Optional[Callable], BoundaryData]]):
        self.space = space
        self.U = U
        self.problems = list(problems)
        self._tables: Dict[tuple, np.ndarray] = {}

    @property
    def mesh(self) -> TriMesh:
        return self.space.mesh

    def __len__(self) -> int:
        return len(self.U)

    def __getitem__(self, index: int) -> "ScalarField":
        return ScalarField(self, range(len(self))[index])  # IndexError past the end stops iteration

    def edge_samples(self, edge_index: int, s: np.ndarray) -> np.ndarray:
        """(F, len(s)) table of the boundary data at arc parameters ``s``."""
        key = ("edge", edge_index, s.tobytes())
        if key not in self._tables:
            self._tables[key] = BoundaryData.table([bc for _, bc in self.problems], edge_index, s)
        return self._tables[key]

    def rule_samples(self, rule: QuadRule2D) -> np.ndarray:
        """(F, points) table of the field values at the points of ``rule``,
        flattened per triangle."""
        key = ("rule", rule.degree, len(rule.weights))
        if key not in self._tables:
            N = _p2_shape(rule.points[:, 0], rule.points[:, 1])
            # one (triangles, 6) @ (6, nq) product per field
            self._tables[key] = (self.U[:, self.space.conn] @ N.T).reshape(len(self), -1)
        return self._tables[key]


@dataclass(eq=False)
class ScalarField:
    """Finite-element solution of one Poisson problem: a view of row
    ``index`` of a ``FieldBank``, evaluable with gradient anywhere in the
    polygon."""

    bank: FieldBank
    index: int

    @property
    def mesh(self) -> TriMesh:
        return self.bank.mesh

    @property
    def coefficients(self) -> np.ndarray:
        return self.bank.U[self.index]

    def value_and_grad(self, x, y):
        """Values and gradients at the points (x, y), coordinate arrays of
        one shape: an array of values and a (..., 2) array of gradients,
        NaN at the points outside the mesh."""
        px, py = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        m, xi, eta = _locate(self.mesh, px.ravel(), py.ravel())
        # a point outside (m = -1) is evaluated on the last triangle, then masked
        coef = self.coefficients[self.bank.space.conn[m]][:, :, None]  # (points, 6, 1)
        _, inv_t = self.mesh.jacobians()
        # one dot product per point: each value has the bits of N @ coef there
        values = (_p2_shape(xi, eta)[:, None, :] @ coef)[:, 0, 0]
        grads = (inv_t[m] @ (_p2_grad(xi, eta) @ coef))[:, :, 0]
        values[m < 0] = grads[m < 0] = np.nan
        return values.reshape(px.shape), grads.reshape(px.shape + (2,))


def _centroid_tree(mesh: TriMesh):
    """A k-d tree of the triangle centroids and its reach: every triangle
    whose smallest barycentric coordinate at a point is >= -1e-9 has its
    centroid within the reach of that point."""
    key = "centroid_tree"
    if key not in mesh._caches:
        from scipy.spatial import cKDTree

        tv = mesh.triangle_vertices()
        centroids = tv.mean(axis=1)
        radius = float(np.sqrt(np.max(np.sum((tv - centroids[:, None]) ** 2, axis=2))))
        # the -1e-9 region of a triangle is the triangle scaled by 1 + 3e-9
        # about its centroid; the rest of the pad covers rounding
        mesh._caches[key] = (cKDTree(centroids), radius * (1.0 + 1e-6))
    return mesh._caches[key]


def _locate(mesh: TriMesh, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Containing triangle and clamped reference coordinates of each point
    (x, y): the triangle whose smallest barycentric coordinate is largest
    (the lowest index on a tie), or -1 where even that one is below -1e-9
    (the point is outside).  Only the triangles whose centroids lie within
    the tree's reach are tested."""
    tree, reach = _centroid_tree(mesh)
    near = tree.query_ball_point(np.column_stack([x, y]), reach)
    i = np.repeat(np.arange(len(x)), [len(js) for js in near])
    t = np.fromiter(itertools.chain.from_iterable(near), dtype=int, count=len(i))
    _, inv_t = mesh.jacobians()
    origin = mesh.nodes[mesh.triangles[t, 0]]
    rx = x[i] - origin[:, 0]
    ry = y[i] - origin[:, 1]
    a = inv_t[t, 0, 0] * rx + inv_t[t, 1, 0] * ry
    b = inv_t[t, 0, 1] * rx + inv_t[t, 1, 1] * ry
    c = np.minimum(np.minimum(a, b), 1.0 - a - b)
    # per point the largest c, then the lowest triangle index, as np.argmax
    order = np.lexsort((t, -c, i))
    first = np.diff(i[order], prepend=-1) != 0
    best = order[first]
    pt = i[best]
    m = np.full(len(x), -1)
    xi, eta, margin = np.zeros(len(x)), np.zeros(len(x)), np.full(len(x), -np.inf)
    m[pt], xi[pt], eta[pt], margin[pt] = t[best], a[best], b[best], c[best]
    m[margin < -1e-9] = -1
    xi = np.minimum(np.maximum(xi, 0.0), 1.0)
    eta = np.minimum(np.maximum(eta, 0.0), 1.0 - xi)
    return m, xi, eta


def solve_poisson_many(
    mesh: TriMesh,
    problems: Sequence[Tuple[Optional[Callable], BoundaryData]],
    rule_degree: int = 6,
) -> FieldBank:
    """Solve a batch of P2 Poisson problems on one mesh as one bank; all
    share the one factorized stiffness matrix of the mesh."""
    return mesh.fe_space(2).solve(problems, rule_degree)
