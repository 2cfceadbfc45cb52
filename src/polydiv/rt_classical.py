"""Exact-polynomial Raviart-Thomas elements on the reference triangle and
the reference unit square: basis construction (local and globally-Lagrangian
variants), the classical degrees of freedom, and Piola transforms.

These elements cross-validate the tuning machinery used for the polygonal
spaces and provide the comparison targets for the reduced elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .geometry import Edge, Polygon, build_polygon
from .polyfam import lagrange_set
from .quadrature import edge_rule_points

__all__ = [
    "Poly2",
    "PolyVec2",
    "RTBasis",
    "RTDof",
    "DegenerateMap",
    "rt_basis",
    "rt_dofs",
    "reference_polygon",
    "AffineMap",
    "BilinearMap",
    "piola",
    "in_rt_space",
    "edge_flux_pairing",
]


class DegenerateMap(ValueError):
    pass


class Poly2:
    """Bivariate polynomial as a sparse map (i, j) -> coefficient."""

    __slots__ = ("coef",)

    def __init__(self, coef: Optional[Dict[Tuple[int, int], float]] = None):
        self.coef = {k: float(v) for k, v in (coef or {}).items() if v != 0.0}

    @classmethod
    def constant(cls, c: float) -> "Poly2":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i: int, j: int, c: float = 1.0) -> "Poly2":
        return cls({(i, j): c})

    @classmethod
    def affine(cls, cx: float, cy: float, c0: float) -> "Poly2":
        return cls({(1, 0): cx, (0, 1): cy, (0, 0): c0})

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.coef)
        for k, v in other.coef.items():
            out[k] = out.get(k, 0.0) + v
        return Poly2(out)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + other.scaled(-1.0)

    def scaled(self, c: float) -> "Poly2":
        return Poly2({k: c * v for k, v in self.coef.items()})

    def __mul__(self, other):
        if isinstance(other, Poly2):
            out: Dict[Tuple[int, int], float] = {}
            for (i1, j1), v1 in self.coef.items():
                for (i2, j2), v2 in other.coef.items():
                    k = (i1 + i2, j1 + j2)
                    out[k] = out.get(k, 0.0) + v1 * v2
            return Poly2(out)
        return self.scaled(float(other))

    __rmul__ = __mul__

    def eval(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        for (i, j), v in self.coef.items():
            out = out + v * x ** i * y ** j
        return out

    def partial(self, var: int) -> "Poly2":
        out: Dict[Tuple[int, int], float] = {}
        for (i, j), v in self.coef.items():
            if var == 0 and i > 0:
                out[(i - 1, j)] = out.get((i - 1, j), 0.0) + i * v
            elif var == 1 and j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), 0.0) + j * v
        return Poly2(out)

    def deg_total(self) -> int:
        return max((i + j for i, j in self.coef), default=-1)

    def deg_x(self) -> int:
        return max((i for i, _ in self.coef), default=-1)

    def deg_y(self) -> int:
        return max((j for _, j in self.coef), default=-1)

    def compose_affine(self, a11, a12, b1, a21, a22, b2) -> "Poly2":
        """Substitute x -> a11 X + a12 Y + b1, y -> a21 X + a22 Y + b2."""
        px = Poly2.affine(a11, a12, b1)
        py = Poly2.affine(a21, a22, b2)
        out = Poly2()
        for (i, j), v in self.coef.items():
            term = Poly2.constant(v)
            for _ in range(i):
                term = term * px
            for _ in range(j):
                term = term * py
            out = out + term
        return out

    def prune(self, eps: float = 1e-14) -> "Poly2":
        scale = max((abs(v) for v in self.coef.values()), default=0.0)
        return Poly2({k: v for k, v in self.coef.items() if abs(v) > eps * scale})


@dataclass
class PolyVec2:
    """Vector field with exact bivariate polynomial components."""

    x: Poly2
    y: Poly2

    def __add__(self, other: "PolyVec2") -> "PolyVec2":
        return PolyVec2(self.x + other.x, self.y + other.y)

    def __mul__(self, c) -> "PolyVec2":
        return PolyVec2(self.x.scaled(float(c)), self.y.scaled(float(c)))

    __rmul__ = __mul__

    def eval(self, x, y) -> np.ndarray:
        return np.stack([self.x.eval(x, y), self.y.eval(x, y)], axis=-1)

    def div(self) -> Poly2:
        return self.x.partial(0) + self.y.partial(1)

    def normal_component(self, e: Edge) -> Callable:
        """Trace q . n on the edge as a function of the arc parameter."""
        nx, ny = e.normal

        def trace(s):
            pts = e.point_at(s)
            return nx * self.x.eval(pts[..., 0], pts[..., 1]) + ny * self.y.eval(
                pts[..., 0], pts[..., 1]
            )

        return trace


_REFERENCE_VERTICES = {
    "triangle": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    "quad": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
}


def reference_polygon(shape: str) -> Polygon:
    try:
        verts = _REFERENCE_VERTICES[shape]
    except KeyError:
        raise ValueError(f"shape must be 'triangle' or 'quad', got {shape!r}") from None
    return build_polygon(verts)


def _lagrange_polys(e: Edge, k: int) -> Tuple[List[Poly2], Tuple[float, ...]]:
    """Bivariate polynomials restricting to the edge Lagrange set.

    The arc-length projection lambda(x, y) = ((x, y) - a) . t is affine, so
    each trace extends to a polynomial of total degree k whose restriction to
    the edge is the Lagrange function.
    """
    ls = lagrange_set(e, k)
    tx, ty = e.tangent
    lam = Poly2.affine(tx, ty, -(e.a.x * tx + e.a.y * ty))
    polys = []
    for m in range(k + 1):
        p = Poly2.constant(1.0)
        for l, sl in enumerate(ls.nodes):
            if l == m:
                continue
            p = p * (lam - Poly2.constant(sl)).scaled(1.0 / (ls.nodes[m] - sl))
        polys.append(p.prune())
    return polys, ls.nodes


def _edge_vectors(polygon: Polygon, shape: str, variant: str) -> List[PolyVec2]:
    x = Poly2.monomial(1, 0)
    y = Poly2.monomial(0, 1)
    vecs: List[PolyVec2] = []
    if variant == "global":
        if shape == "triangle":
            for e in polygon.edges:
                nx, ny = e.normal
                if abs(nx) > 1e-12 and abs(ny) > 1e-12:
                    # hypotenuse: sqrt(2) * position vector
                    vecs.append(PolyVec2(x.scaled(math.sqrt(2.0)), y.scaled(math.sqrt(2.0))))
                else:
                    vecs.append(PolyVec2(x + Poly2.constant(nx), y + Poly2.constant(ny)))
        else:
            # one nonzero component per axis-aligned edge of the unit square:
            # bottom (0, y-1), right (x, 0), top (0, y), left (x-1, 0)
            for e in polygon.edges:
                nx, ny = e.normal
                if abs(ny) > 0.5:
                    comp = y - Poly2.constant(1.0) if ny < 0 else y
                    vecs.append(PolyVec2(Poly2(), comp))
                else:
                    comp = x - Poly2.constant(1.0) if nx < 0 else x
                    vecs.append(PolyVec2(comp, Poly2()))
        return vecs
    # local variant
    for i, e in enumerate(polygon.edges):
        nx, ny = e.normal
        if shape == "quad" and i == len(polygon.edges) - 1:
            # break the sign coupling on the last edge to keep the set free
            sx = 1.0 if nx >= 0 else -1.0
            sy = 1.0 if ny >= 0 else -1.0
            vecs.append(
                PolyVec2(
                    x.scaled(sx) + Poly2.constant(abs(nx)),
                    y.scaled(sy) + Poly2.constant(abs(ny)),
                )
            )
        else:
            vecs.append(PolyVec2(x + Poly2.constant(nx), y + Poly2.constant(ny)))
    return vecs


def _internal_vectors(shape: str) -> Tuple[PolyVec2, PolyVec2]:
    x = Poly2.monomial(1, 0)
    y = Poly2.monomial(0, 1)
    if shape == "triangle":
        # x (x - 1, y)^T and y (x, y - 1)^T vanish normally on all edges
        return (
            PolyVec2(x * (x - Poly2.constant(1.0)), x * y),
            PolyVec2(x * y, y * (y - Poly2.constant(1.0))),
        )
    return (
        PolyVec2(x * (x - Poly2.constant(1.0)), y * (y - Poly2.constant(1.0))),
        PolyVec2((Poly2.constant(1.0) - x) * x, y * (y - Poly2.constant(1.0))),
    )


@dataclass
class RTBasis:
    shape: str
    k: int
    variant: str
    polygon: Polygon
    normal_groups: List[List[PolyVec2]]
    internal_group: List[PolyVec2]
    sample_nodes: List[Tuple[float, ...]]  # per edge, arc parameters

    @property
    def functions(self) -> List[PolyVec2]:
        out: List[PolyVec2] = []
        for group in self.normal_groups:
            out.extend(group)
        out.extend(self.internal_group)
        return out

    @property
    def size(self) -> int:
        return sum(len(g) for g in self.normal_groups) + len(self.internal_group)


def rt_basis(shape: str, k: int, variant: str = "local") -> RTBasis:
    """Raw Raviart-Thomas basis on the reference triangle or square.

    The ``global`` variant uses the edge vectors that give the basis a global
    Lagrangian property at the boundary sampling points.
    """
    if variant not in ("local", "global"):
        raise ValueError("variant must be 'local' or 'global'")
    if k < 0:
        raise ValueError("order must be non-negative")
    polygon = reference_polygon(shape)
    vecs = _edge_vectors(polygon, shape, variant)
    normal_groups: List[List[PolyVec2]] = []
    sample_nodes: List[Tuple[float, ...]] = []
    for e, vec in zip(polygon.edges, vecs):
        lps, nodes = _lagrange_polys(e, k)
        normal_groups.append([PolyVec2(lp * vec.x, lp * vec.y) for lp in lps])
        sample_nodes.append(nodes)
    internal: List[PolyVec2] = []
    if k > 0:
        e1, e2 = _internal_vectors(shape)
        if shape == "triangle":
            monos = [
                Poly2.monomial(i, j)
                for i in range(k)
                for j in range(k - i)
            ]
            for vec in (e1, e2):
                internal.extend(PolyVec2(m * vec.x, m * vec.y) for m in monos)
        else:
            # basis of P_{k-1,k}; the second component uses b(y, x)
            pairs = [(a, b) for a in range(k) for b in range(k + 1)]
            for vec in (e1, e2):
                for a, b in pairs:
                    internal.append(
                        PolyVec2(
                            Poly2.monomial(a, b) * vec.x,
                            Poly2.monomial(b, a) * vec.y,
                        )
                    )
    return RTBasis(
        shape=shape,
        k=k,
        variant=variant,
        polygon=polygon,
        normal_groups=normal_groups,
        internal_group=internal,
        sample_nodes=sample_nodes,
    )


# exact monomial integrals over the reference shapes
def _tri_monomial(i: int, j: int) -> float:
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


def _quad_monomial(i: int, j: int) -> float:
    return 1.0 / ((i + 1) * (j + 1))


@dataclass(frozen=True)
class RTDof:
    """Classical RT degree of freedom, exact on polynomial arguments."""

    kind: str          # "normal" or "internal"
    label: str
    edge: Optional[Edge] = None
    moment: int = 0          # s^m weight on the edge
    component: int = 0       # internal moments: 0 -> x kernel, 1 -> y kernel
    ij: Tuple[int, int] = (0, 0)
    shape: str = "triangle"

    def apply(self, q: PolyVec2) -> float:
        if self.kind == "normal":
            e = self.edge
            trace = q.normal_component(e)
            deg = max(q.x.deg_total(), q.y.deg_total()) + self.moment
            npts = deg // 2 + 2
            s, w = edge_rule_points(e, npts)
            return float(np.dot(w, trace(s) * s ** self.moment))
        mono = _tri_monomial if self.shape == "triangle" else _quad_monomial
        comp = q.x if self.component == 0 else q.y
        i, j = self.ij
        return float(sum(v * mono(a + i, b + j) for (a, b), v in comp.coef.items()))


def rt_dofs(shape: str, k: int) -> List[RTDof]:
    """Classical RT degrees of freedom: per-edge arc-moment normal moments of
    degrees 0..k, then internal component moments."""
    polygon = reference_polygon(shape)
    dofs: List[RTDof] = []
    for e in polygon.edges:
        for m in range(k + 1):
            dofs.append(
                RTDof(kind="normal", label=f"edge{e.index}:s^{m}", edge=e, moment=m, shape=shape)
            )
    if k > 0:
        if shape == "triangle":
            index_sets = [
                [(i, j) for i in range(k) for j in range(k - i)],
                [(i, j) for i in range(k) for j in range(k - i)],
            ]
        else:
            index_sets = [
                [(a, b) for a in range(k) for b in range(k + 1)],
                [(a, b) for a in range(k + 1) for b in range(k)],
            ]
        for comp, idx in enumerate(index_sets):
            for (i, j) in idx:
                dofs.append(
                    RTDof(
                        kind="internal",
                        label=f"int:{'xy'[comp]}:x^{i}y^{j}",
                        component=comp,
                        ij=(i, j),
                        shape=shape,
                    )
                )
    return dofs


@dataclass
class AffineMap:
    """F(x) = v1 + J (x, y)^T from the reference triangle onto a target."""

    vertices: np.ndarray  # (3, 2)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        self.J = np.array([[v[1, 0] - v[0, 0], v[2, 0] - v[0, 0]], [v[1, 1] - v[0, 1], v[2, 1] - v[0, 1]]])
        self.det = float(np.linalg.det(self.J))
        if abs(self.det) < 1e-14:
            raise DegenerateMap("affine map has vanishing Jacobian")
        self.Jinv = np.linalg.inv(self.J)

    def forward(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        v0 = self.vertices[0]
        return (
            v0[0] + self.J[0, 0] * x + self.J[0, 1] * y,
            v0[1] + self.J[1, 0] * x + self.J[1, 1] * y,
        )

    def inverse(self, X, Y):
        v0 = self.vertices[0]
        rx = np.asarray(X, dtype=float) - v0[0]
        ry = np.asarray(Y, dtype=float) - v0[1]
        return (
            self.Jinv[0, 0] * rx + self.Jinv[0, 1] * ry,
            self.Jinv[1, 0] * rx + self.Jinv[1, 1] * ry,
        )


@dataclass
class BilinearMap:
    """F(xi, eta) = sum_i N_i(xi, eta) v_i from the unit square onto a
    quadrilateral; the Jacobian varies with the point."""

    vertices: np.ndarray  # (4, 2), CCW

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        self.a = v[0]
        self.b = v[1] - v[0]
        self.c = v[3] - v[0]
        self.d = v[2] - v[1] - v[3] + v[0]
        # degeneracy check on a sample grid
        g = np.linspace(0.0, 1.0, 5)
        X, Y = np.meshgrid(g, g)
        det = self.jacobian_det(X, Y)
        if np.any(det <= 1e-14):
            raise DegenerateMap("bilinear map is degenerate inside the square")

    def forward(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (
            self.a[0] + self.b[0] * x + self.c[0] * y + self.d[0] * x * y,
            self.a[1] + self.b[1] * x + self.c[1] * y + self.d[1] * x * y,
        )

    def jacobian(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        J = np.empty(np.broadcast(x, y).shape + (2, 2))
        J[..., 0, 0] = self.b[0] + self.d[0] * y
        J[..., 0, 1] = self.c[0] + self.d[0] * x
        J[..., 1, 0] = self.b[1] + self.d[1] * y
        J[..., 1, 1] = self.c[1] + self.d[1] * x
        return J

    def jacobian_det(self, x, y):
        J = self.jacobian(x, y)
        return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]

    def inverse(self, X, Y, iters: int = 30):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        x = np.full(np.broadcast(X, Y).shape, 0.5)
        y = np.full_like(x, 0.5)
        for _ in range(iters):
            fx, fy = self.forward(x, y)
            rx, ry = fx - X, fy - Y
            J = self.jacobian(x, y)
            det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
            x = x - (J[..., 1, 1] * rx - J[..., 0, 1] * ry) / det
            y = y - (-J[..., 1, 0] * rx + J[..., 0, 0] * ry) / det
        return x, y


@dataclass
class PiolaField:
    """Piola push-forward of a field: (1/|det J|) J phi composed with F^-1."""

    mapping: object
    source: object  # PolyVec2 or anything with .eval(x, y)

    def eval(self, X, Y) -> np.ndarray:
        m = self.mapping
        x, y = m.inverse(X, Y)
        vals = self.source.eval(x, y)
        if isinstance(m, AffineMap):
            J = m.J
            out = vals @ J.T / abs(m.det)
            return out
        J = m.jacobian(x, y)
        det = np.abs(m.jacobian_det(x, y))
        out = np.einsum("...ij,...j->...i", J, vals) / det[..., None]
        return out


def piola(mapping, fld):
    """Apply the Piola transform to a field.

    Affine maps applied to ``PolyVec2`` return an exact ``PolyVec2``; bilinear
    maps (and sampled fields) return a ``PiolaField`` evaluable pointwise.
    """
    if isinstance(mapping, AffineMap) and isinstance(fld, PolyVec2):
        Ji = mapping.Jinv
        v0 = mapping.vertices[0]
        b1 = -(Ji[0, 0] * v0[0] + Ji[0, 1] * v0[1])
        b2 = -(Ji[1, 0] * v0[0] + Ji[1, 1] * v0[1])
        cx = fld.x.compose_affine(Ji[0, 0], Ji[0, 1], b1, Ji[1, 0], Ji[1, 1], b2)
        cy = fld.y.compose_affine(Ji[0, 0], Ji[0, 1], b1, Ji[1, 0], Ji[1, 1], b2)
        J = mapping.J
        s = 1.0 / abs(mapping.det)
        return PolyVec2(
            (cx.scaled(J[0, 0]) + cy.scaled(J[0, 1])).scaled(s),
            (cx.scaled(J[1, 0]) + cy.scaled(J[1, 1])).scaled(s),
        )
    return PiolaField(mapping, fld)


def in_rt_space(q: PolyVec2, shape: str, k: int, tol: float = 1e-10) -> bool:
    """Coefficient-level membership check in the declared RT space."""
    qx = q.x.prune(tol)
    qy = q.y.prune(tol)
    if shape == "quad":
        return (
            qx.deg_x() <= k + 1
            and qx.deg_y() <= k
            and qy.deg_x() <= k
            and qy.deg_y() <= k + 1
        )
    if qx.deg_total() > k + 1 or qy.deg_total() > k + 1:
        return False
    # the degree-(k+1) parts must combine into (x, y) * p for one homogeneous
    # polynomial p of degree k
    top_x = {key: v for key, v in qx.coef.items() if key[0] + key[1] == k + 1}
    top_y = {key: v for key, v in qy.coef.items() if key[0] + key[1] == k + 1}
    scale = max(
        max((abs(v) for v in qx.coef.values()), default=0.0),
        max((abs(v) for v in qy.coef.values()), default=0.0),
        1e-30,
    )
    px: Dict[Tuple[int, int], float] = {}
    for (i, j), v in top_x.items():
        if i == 0:
            if abs(v) > tol * scale:
                return False
            continue
        px[(i - 1, j)] = v
    py: Dict[Tuple[int, int], float] = {}
    for (i, j), v in top_y.items():
        if j == 0:
            if abs(v) > tol * scale:
                return False
            continue
        py[(i, j - 1)] = v
    keys = set(px) | set(py)
    return all(abs(px.get(kk, 0.0) - py.get(kk, 0.0)) <= tol * scale for kk in keys)


def edge_flux_pairing(values: Callable, e: Edge, weight: Callable, npoints: int = 12) -> float:
    """Quadrature of (q . n) * weight(s) along an edge; ``values`` maps point
    arrays to field values of shape (..., 2)."""
    s, w = edge_rule_points(e, npoints)
    pts = e.point_at(s)
    vals = np.asarray(values(pts[..., 0], pts[..., 1]))
    nx, ny = e.normal
    return float(np.dot(w, (vals[..., 0] * nx + vals[..., 1] * ny) * np.asarray(weight(s))))
