"""Exact-polynomial Raviart-Thomas elements on the reference triangle and
the reference unit square: basis construction (local and globally-Lagrangian
variants), the classical degrees of freedom, and Piola transforms, evaluated
pointwise through one map class for the affine and the bilinear map.

Every polynomial has one form, a coefficient grid ``C[c, i, j]``: the
coefficient of x^i y^j in component c, of shape (2, k+2, k+2) at order k.
A basis is one (n, 2, k+2, k+2) array.  The degrees of freedom are moment
rows over the same layout, so the transfer matrix is one product of the
rows with the flattened grids (``rt_transfer``) and tuning is ``A @ C``
(``rt_tune``).

These elements cross-validate the tuning machinery used for the polygonal
spaces and provide the comparison targets for the reduced elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .geometry import Edge, Polygon, build_polygon
from .polyfam import lagrange_set
from .quadrature import edge_rule_points

__all__ = [
    "RTBasis",
    "RTDofs",
    "DegenerateMap",
    "rt_basis",
    "rt_dofs",
    "rt_transfer",
    "rt_tune",
    "rt_eval",
    "rt_divergence",
    "reference_polygon",
    "ReferenceMap",
    "piola",
    "in_rt_space",
    "edge_flux_pairing",
]


class DegenerateMap(ValueError):
    pass


_REFERENCE_VERTICES = {
    "triangle": [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
    "quad": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
}


def _check_shape(shape: str) -> None:
    if shape not in _REFERENCE_VERTICES:
        raise ValueError(f"shape must be 'triangle' or 'quad', got {shape!r}")


def reference_polygon(shape: str) -> Polygon:
    _check_shape(shape)
    return build_polygon(_REFERENCE_VERTICES[shape])


def _check_order(k: int) -> None:
    if k < 0:
        raise ValueError(f"order must be non-negative, got {k!r}")


def _grid(n: int, *components: Dict[Tuple[int, int], float]) -> np.ndarray:
    """Grids of size n x n, one per ``{(i, j): coefficient}`` map, stacked."""
    g = np.zeros((len(components), n, n))
    for c, terms in enumerate(components):
        for (i, j), v in terms.items():
            g[c, i, j] = v
    return g


def _shift(g: np.ndarray, i: int, j: int) -> np.ndarray:
    """x^i y^j times the grid (or stack of grids) ``g``; the grid size is
    kept, so terms past it are dropped."""
    n = g.shape[-1]
    out = np.zeros_like(g)
    out[..., i:, j:] = g[..., : n - i, : n - j]
    return out


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of the grid (or stack) ``a`` with the scalar grid ``b``:
    one shifted add of ``a`` per nonzero coefficient of ``b``."""
    return sum((b[i, j] * _shift(a, i, j) for i, j in zip(*np.nonzero(b))), np.zeros_like(a))


def _prune(g: np.ndarray, eps: float) -> np.ndarray:
    """Zero the coefficients at most ``eps`` times the largest one."""
    return np.where(np.abs(g) > eps * np.max(np.abs(g), initial=0.0), g, 0.0)


def _lagrange_grids(e: Edge, k: int) -> List[np.ndarray]:
    """Scalar grids of size k+2 restricting to the edge Lagrange set.

    The arc-length projection lambda(x, y) = ((x, y) - a) . t is affine, so
    each trace extends to a polynomial of total degree k whose restriction to
    the edge is the Lagrange function.
    """
    ls = lagrange_set(e, k)
    tx, ty = e.tangent
    lam, one = _grid(k + 2, {(1, 0): tx, (0, 1): ty, (0, 0): -(e.a.x * tx + e.a.y * ty)}, {(0, 0): 1.0})
    polys = []
    for m, sm in enumerate(ls.nodes):
        p = one
        for l, sl in enumerate(ls.nodes):
            if l != m:
                p = _mul((lam - sl * one) * (1.0 / (sm - sl)), p)
        polys.append(_prune(p, 1e-14))
    return polys


_X, _Y, _ONE = (1, 0), (0, 1), (0, 0)


def _edge_vectors(polygon: Polygon, shape: str, variant: str, n: int) -> List[np.ndarray]:
    vecs: List[np.ndarray] = []
    if variant == "global":
        if shape == "triangle":
            for e in polygon.edges:
                nx, ny = e.normal
                if abs(nx) > 1e-12 and abs(ny) > 1e-12:
                    # hypotenuse: sqrt(2) * position vector
                    vecs.append(_grid(n, {_X: math.sqrt(2.0)}, {_Y: math.sqrt(2.0)}))
                else:
                    vecs.append(_grid(n, {_X: 1.0, _ONE: nx}, {_Y: 1.0, _ONE: ny}))
        else:
            # one nonzero component per axis-aligned edge of the unit square:
            # bottom (0, y-1), right (x, 0), top (0, y), left (x-1, 0)
            for e in polygon.edges:
                nx, ny = e.normal
                if abs(ny) > 0.5:
                    vecs.append(_grid(n, {}, {_Y: 1.0, _ONE: -1.0 if ny < 0 else 0.0}))
                else:
                    vecs.append(_grid(n, {_X: 1.0, _ONE: -1.0 if nx < 0 else 0.0}, {}))
        return vecs
    # local variant
    for i, e in enumerate(polygon.edges):
        nx, ny = e.normal
        if shape == "quad" and i == len(polygon.edges) - 1:
            # break the sign coupling on the last edge to keep the set free
            sx = 1.0 if nx >= 0 else -1.0
            sy = 1.0 if ny >= 0 else -1.0
            vecs.append(_grid(n, {_X: sx, _ONE: abs(nx)}, {_Y: sy, _ONE: abs(ny)}))
        else:
            vecs.append(_grid(n, {_X: 1.0, _ONE: nx}, {_Y: 1.0, _ONE: ny}))
    return vecs


def _internal_vectors(shape: str, n: int) -> Tuple[np.ndarray, np.ndarray]:
    x_x1 = {(2, 0): 1.0, (1, 0): -1.0}  # x (x - 1)
    y_y1 = {(0, 2): 1.0, (0, 1): -1.0}  # y (y - 1)
    if shape == "triangle":
        # x (x - 1, y)^T and y (x, y - 1)^T vanish normally on all edges
        return _grid(n, x_x1, {(1, 1): 1.0}), _grid(n, {(1, 1): 1.0}, y_y1)
    return _grid(n, x_x1, y_y1), _grid(n, {(2, 0): -1.0, (1, 0): 1.0}, y_y1)


@dataclass
class RTBasis:
    """The basis functions as one coefficient array (size, 2, k+2, k+2):
    k+1 normal functions per edge in edge order (``normal_groups``), then
    the internal ones, the rows past the normal groups.  The global
    variant's sample points on an edge are the nodes of its
    ``polyfam.lagrange_set``."""

    shape: str
    k: int
    polygon: Polygon
    coefficients: np.ndarray

    @property
    def normal_groups(self) -> List[np.ndarray]:
        m = self.k + 1
        return [self.coefficients[e * m : (e + 1) * m] for e in range(len(self.polygon.edges))]

    @property
    def size(self) -> int:
        return len(self.coefficients)


def rt_basis(shape: str, k: int, variant: str = "local") -> RTBasis:
    """Raw Raviart-Thomas basis on the reference triangle or square.

    The ``global`` variant uses the edge vectors that give the basis a global
    Lagrangian property at the boundary sampling points.
    """
    if variant not in ("local", "global"):
        raise ValueError("variant must be 'local' or 'global'")
    _check_order(k)
    polygon = reference_polygon(shape)
    n = k + 2
    functions: List[np.ndarray] = []
    for e, vec in zip(polygon.edges, _edge_vectors(polygon, shape, variant, n)):
        functions.extend(_mul(vec, lp) for lp in _lagrange_grids(e, k))
    if k > 0:
        e1, e2 = _internal_vectors(shape, n)
        for vec in (e1, e2):
            if shape == "triangle":
                functions.extend(_shift(vec, i, j) for i in range(k) for j in range(k - i))
            else:
                # basis of P_{k-1,k}; the second component uses b(y, x)
                functions.extend(
                    np.stack([_shift(vec[0], a, b), _shift(vec[1], b, a)])
                    for a in range(k)
                    for b in range(k + 1)
                )
    return RTBasis(shape, k, polygon, np.array(functions))


# exact monomial integrals over the reference shapes
def _tri_monomial(i: int, j: int) -> float:
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


def _quad_monomial(i: int, j: int) -> float:
    return 1.0 / ((i + 1) * (j + 1))


@dataclass(frozen=True)
class RTDofs:
    """Classical RT degrees of freedom as moment rows over the grid layout:
    DOF r of a grid C is the sum of ``rows[r] * C``."""

    labels: Tuple[str, ...]
    rows: np.ndarray  # (len(labels), 2, k+2, k+2)

    def __len__(self) -> int:
        return len(self.labels)


def rt_dofs(shape: str, k: int) -> RTDofs:
    """Classical RT degrees of freedom: per-edge arc-moment normal moments of
    degrees 0..k, then internal component moments.

    The row of the edge moment of degree m holds n_c times the edge integral
    of x^i y^j s^m, from a Gauss rule exact for the highest degree on the
    grid, 2(k+1) + k; an internal row holds the exact monomial integrals.
    """
    _check_order(k)
    polygon = reference_polygon(shape)
    powers = np.arange(k + 2)
    labels: List[str] = []
    rows: List[np.ndarray] = []
    for e in polygon.edges:
        s, w = edge_rule_points(e, (3 * k + 2) // 2 + 1)
        xp, yp = e.point_at(s).T[..., None] ** powers
        moments = np.einsum("q,qm,qi,qj->mij", w, s[:, None] ** powers[: k + 1], xp, yp)
        rows.extend(np.array(e.normal)[:, None, None] * moments[:, None])
        labels.extend(f"edge{e.index}:s^{m}" for m in range(k + 1))
    if shape == "triangle":
        mono = _tri_monomial
        index_sets = [[(i, j) for i in range(k) for j in range(k - i)]] * 2
    else:
        mono = _quad_monomial
        index_sets = [
            [(a, b) for a in range(k) for b in range(k + 1)],
            [(a, b) for a in range(k + 1) for b in range(k)],
        ]
    for comp, idx in enumerate(index_sets):
        for i, j in idx:
            row = np.zeros((2, k + 2, k + 2))
            row[comp] = [[mono(a + i, b + j) for b in powers] for a in powers]
            rows.append(row)
            labels.append(f"int:{'xy'[comp]}:x^{i}y^{j}")
    return RTDofs(tuple(labels), np.array(rows))


def rt_transfer(dofs: RTDofs, coefficients: np.ndarray) -> np.ndarray:
    """Lambda_ij = sigma_i(phi_j): the moment rows times the flattened grids."""
    if len(dofs) != len(coefficients):
        raise ValueError(f"{len(dofs)} DOFs vs {len(coefficients)} functions")
    return dofs.rows.reshape(len(dofs), -1) @ coefficients.reshape(len(coefficients), -1).T


def rt_tune(coefficients: np.ndarray, A: np.ndarray) -> np.ndarray:
    """phi'_j = sum_m A_jm phi_m: the grids of the tuned basis, A @ C."""
    return (A @ coefficients.reshape(len(coefficients), -1)).reshape(coefficients.shape)


def rt_eval(coefficients: np.ndarray, x, y) -> np.ndarray:
    """Values at the points (x, y) of one grid (2, n, n) or of a stack of
    grids (..., 2, n, n); the shape is (*stack, *points, 2)."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    powers = np.arange(coefficients.shape[-1])
    vals = np.einsum("...cij,qi,qj->...qc", coefficients, x.reshape(-1, 1) ** powers, y.reshape(-1, 1) ** powers)
    return vals.reshape(coefficients.shape[:-3] + x.shape + (2,))


def rt_divergence(coefficients: np.ndarray) -> np.ndarray:
    """Scalar grid of d(q_x)/dx + d(q_y)/dy for one grid (2, n, n)."""
    p = np.arange(1, coefficients.shape[-1])
    d = np.zeros(coefficients.shape[-2:])
    d[:-1, :] += p[:, None] * coefficients[0, 1:, :]
    d[:, :-1] += p * coefficients[1, :, 1:]
    return d


@dataclass
class ReferenceMap:
    """F(x, y) = a + b x + c y + d x y from a reference shape onto a target:
    the affine map of the reference triangle (the images of (0, 0), (1, 0),
    (0, 1); d = 0) or the bilinear map of the unit square (the images of
    its corners in order from (0, 0)).  One Jacobian, one determinant and
    one Newton inverse serve both Piola transforms; a map whose determinant
    vanishes or changes sign on a 5 x 5 grid of the square is refused."""

    vertices: np.ndarray  # (3, 2) or (4, 2)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if len(v) not in (3, 4):
            raise ValueError(f"a reference map takes 3 or 4 vertices, got {len(v)}")
        self.a, self.b, self.c = v[0], v[1] - v[0], v[-1] - v[0]  # v[-1]: the image of (0, 1)
        self.d = v[2] - v[1] - v[3] + v[0] if len(v) == 4 else np.zeros(2)
        g = np.linspace(0.0, 1.0, 5)
        det = self.jacobian_det(*np.meshgrid(g, g))
        if not (np.all(det > 1e-14) or np.all(det < -1e-14)):
            raise DegenerateMap("the map's Jacobian vanishes or changes sign")

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

    def inverse(self, X, Y):
        """Thirty Newton steps from the centre of the square; with d = 0 the
        first step lands."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        x = np.full(np.broadcast(X, Y).shape, 0.5)
        y = np.full_like(x, 0.5)
        for _ in range(30):
            fx, fy = self.forward(x, y)
            rx, ry = fx - X, fy - Y
            J = self.jacobian(x, y)
            det = self.jacobian_det(x, y)
            x = x - (J[..., 1, 1] * rx - J[..., 0, 1] * ry) / det
            y = y - (-J[..., 1, 0] * rx + J[..., 0, 0] * ry) / det
        return x, y


def piola(mapping, f: Callable) -> Callable:
    """Piola push-forward (1/|det J|) J f composed with F^-1 of a field
    ``f(x, y) -> (..., 2)`` under a ``ReferenceMap``; the result is a field
    of the same form."""

    def pushed(X, Y) -> np.ndarray:
        x, y = mapping.inverse(X, Y)
        Jv = np.einsum("...ij,...j->...i", mapping.jacobian(x, y), f(x, y))
        return Jv / np.abs(mapping.jacobian_det(x, y))[..., None]

    return pushed


def in_rt_space(coefficients: np.ndarray, shape: str, k: int) -> bool:
    """Coefficient-level membership check of one grid (2, n, n), of any size
    n, in the declared RT space; terms below 1e-10 of the largest coefficient
    of their component count as zero."""
    _check_shape(shape)
    tol = 1e-10
    pad = max(0, k + 2 - coefficients.shape[-1])
    qx, qy = (_prune(g, tol) for g in np.pad(coefficients, ((0, 0), (0, pad), (0, pad))))
    i, j = np.indices(qx.shape)
    if shape == "quad":
        return not (qx[(i > k + 1) | (j > k)].any() or qy[(i > k) | (j > k + 1)].any())
    if qx[i + j > k + 1].any() or qy[i + j > k + 1].any():
        return False
    # the degree-(k+1) parts must combine into (x, y) * p for one homogeneous
    # polynomial p of degree k: p's x^a y^(k-a) coefficient is both q_x's
    # x^(a+1) y^(k-a) and q_y's x^a y^(k+1-a) coefficient
    bound = tol * max(np.abs(coefficients).max(), 1e-30)
    a = np.arange(k + 1)
    return bool(
        abs(qx[0, k + 1]) <= bound
        and abs(qy[k + 1, 0]) <= bound
        and np.all(np.abs(qx[a + 1, k - a] - qy[a, k + 1 - a]) <= bound)
    )


def edge_flux_pairing(values: Callable, e: Edge, weight: Callable, npoints: int = 12) -> float:
    """Quadrature of (q . n) * weight(s) along an edge; ``values`` maps point
    arrays to field values of shape (..., 2)."""
    s, w = edge_rule_points(e, npoints)
    pts = e.point_at(s)
    vals = np.asarray(values(pts[..., 0], pts[..., 1]))
    nx, ny = e.normal
    return float(np.dot(w, (vals[..., 0] * nx + vals[..., 1] * ny) * np.asarray(weight(s))))
