"""Polynomial families used as projectors and constructors, per-edge Lagrange
sets generated from Gauss-Legendre nodes, and the dimension formulas of every
discretisation space handled by the package.

Conventions: Hermite polynomials follow the physicists' normalisation
(H0 = 1, H1 = 2z), Laguerre the standard one (L0 = 1, L1 = 1 - z).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .geometry import Edge, Point2

__all__ = [
    "BoundaryProjectorKind",
    "InnerPolyKind",
    "BoundaryConstructorKind",
    "INNER_CONSTRUCTOR_KINDS",
    "UnknownKind",
    "InvalidSpec",
    "chebyshev_t",
    "legendre_p",
    "hermite_h",
    "laguerre_l",
    "boundary_projector",
    "inner_poly",
    "LagrangeSet",
    "lagrange_set",
    "SpaceFamily",
    "SpaceSpec",
    "space_dimension",
    "gauss_legendre_nodes",
]


class UnknownKind(ValueError):
    pass


class InvalidSpec(ValueError):
    pass


class BoundaryProjectorKind(Enum):
    """1D projector families on an edge, keyed by their table codes."""

    CANONICAL_CENTERED_SCALED = 1
    CHEBYSHEV = 2
    HERMITE = 3
    LEGENDRE = 4
    LAGUERRE = 5
    CANONICAL_CENTERED_UNSCALED = 6
    CANONICAL_UNSCALED = 7

    @property
    def code(self) -> int:
        return self.value


class InnerPolyKind(Enum):
    """2D tensor-product families on the polygon, keyed by their table codes."""

    CANONICAL_CENTERED_SCALED = 1
    CHEBYSHEV = 2
    HERMITE = 3
    LEGENDRE = 4
    LAGUERRE = 5
    CANONICAL_CENTERED_UNSCALED = 6
    CANONICAL_UNSCALED = 7

    @property
    def code(self) -> int:
        return self.value


class BoundaryConstructorKind(Enum):
    """Families defining Dirichlet data of the edge Poisson problems."""

    LAGRANGIAN = 1
    CANONICAL_CENTERED_SCALED = 2
    CANONICAL_CENTERED_UNSCALED = 3

    @property
    def code(self) -> int:
        return self.value


# Inner constructor families (Poisson second members), with their own codes.
INNER_CONSTRUCTOR_KINDS: dict[int, InnerPolyKind] = {
    1: InnerPolyKind.CHEBYSHEV,
    2: InnerPolyKind.HERMITE,
    3: InnerPolyKind.LEGENDRE,
    4: InnerPolyKind.CANONICAL_CENTERED_SCALED,
    5: InnerPolyKind.CANONICAL_CENTERED_UNSCALED,
}


def chebyshev_t(n: int, z):
    z = np.asarray(z, dtype=float)
    if n == 0:
        return np.ones_like(z)
    prev, cur = np.ones_like(z), z.copy()
    for _ in range(1, n):
        prev, cur = cur, 2.0 * z * cur - prev
    return cur


def legendre_p(n: int, z):
    z = np.asarray(z, dtype=float)
    if n == 0:
        return np.ones_like(z)
    prev, cur = np.ones_like(z), z.copy()
    for m in range(1, n):
        prev, cur = cur, ((2 * m + 1) * z * cur - m * prev) / (m + 1)
    return cur


def hermite_h(n: int, z):
    z = np.asarray(z, dtype=float)
    if n == 0:
        return np.ones_like(z)
    prev, cur = np.ones_like(z), 2.0 * z
    for m in range(1, n):
        prev, cur = cur, 2.0 * z * cur - 2.0 * m * prev
    return cur


def laguerre_l(n: int, z):
    z = np.asarray(z, dtype=float)
    if n == 0:
        return np.ones_like(z)
    prev, cur = np.ones_like(z), 1.0 - z
    for m in range(1, n):
        prev, cur = cur, ((2 * m + 1 - z) * cur - m * prev) / (m + 1)
    return cur


def boundary_projector(kind: BoundaryProjectorKind, i: int, s, L: float):
    """Evaluate the degree-``i`` projector of ``kind`` at arc parameter ``s``
    on an edge of length ``L``.  Vectorized in ``s``."""
    if i < 0:
        raise InvalidSpec("projector degree must be non-negative")
    if L <= 0:
        raise InvalidSpec("edge length must be positive")
    s = np.asarray(s, dtype=float)
    if kind is BoundaryProjectorKind.CANONICAL_CENTERED_SCALED:
        return (2.0 * s / L - 1.0) ** i
    if kind is BoundaryProjectorKind.CHEBYSHEV:
        return chebyshev_t(i, 2.0 * s / L - 1.0)
    if kind is BoundaryProjectorKind.HERMITE:
        return hermite_h(i, 4.0 * s / L - 2.0)
    if kind is BoundaryProjectorKind.LEGENDRE:
        return legendre_p(i, 2.0 * s / L - 1.0)
    if kind is BoundaryProjectorKind.LAGUERRE:
        return laguerre_l(i, 12.0 * s / L - 2.0)
    if kind is BoundaryProjectorKind.CANONICAL_CENTERED_UNSCALED:
        return (s - L / 2.0) ** i
    if kind is BoundaryProjectorKind.CANONICAL_UNSCALED:
        return s ** i
    raise UnknownKind(kind)


_ORTHO_2D = {
    InnerPolyKind.CHEBYSHEV: (chebyshev_t, 2.0),
    InnerPolyKind.HERMITE: (hermite_h, 4.0),
    InnerPolyKind.LEGENDRE: (legendre_p, 2.0),
}


def inner_poly(kind: InnerPolyKind, i: int, j: int, x, y, hull: Tuple[Point2, float]):
    """Tensor-product polynomial of ``kind`` with x-degree ``i``, y-degree
    ``j``, shifted/scaled with the convex-hull barycenter and area.
    Vectorized in ``x``, ``y``."""
    if i < 0 or j < 0:
        raise InvalidSpec("polynomial degrees must be non-negative")
    bary, area = hull
    if area <= 0:
        raise InvalidSpec("hull area must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if kind in _ORTHO_2D:
        fam, scale = _ORTHO_2D[kind]
        return fam(i, scale * (x - bary.x) / area) * fam(j, scale * (y - bary.y) / area)
    if kind is InnerPolyKind.LAGUERRE:
        return laguerre_l(i, 12.0 * (x - bary.x + 4.0) / area) * laguerre_l(
            j, 12.0 * (y - bary.y + 4.0) / area
        )
    if kind is InnerPolyKind.CANONICAL_CENTERED_SCALED:
        return (2.0 * (x - bary.x) / area) ** i * (2.0 * (y - bary.y) / area) ** j
    if kind is InnerPolyKind.CANONICAL_CENTERED_UNSCALED:
        return (x - bary.x) ** i * (y - bary.y) ** j
    if kind is InnerPolyKind.CANONICAL_UNSCALED:
        return x ** i * y ** j
    raise UnknownKind(kind)


@functools.lru_cache(maxsize=None)
def gauss_legendre_nodes(npoints: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``npoints``-point Gauss-Legendre rule on
    [-1, 1], nodes in increasing order.  Cached; the arrays are read-only."""
    if npoints < 1:
        raise InvalidSpec("need at least one quadrature point")
    nodes, weights = np.polynomial.legendre.leggauss(npoints)
    order = np.argsort(nodes)
    nodes, weights = nodes[order], weights[order]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class LagrangeSet:
    """k+1 Lagrange trace functions on an edge, nodes at the Gauss-Legendre
    points of the arc parameter.  Node ordering is by increasing arc
    parameter, which fixes the sampling permutation once and for all."""

    edge: Edge
    nodes: Tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.nodes) - 1

    def eval(self, m: int, s):
        """Value of the m-th Lagrange function at arc parameter ``s``."""
        s = np.asarray(s, dtype=float)
        nodes = self.nodes
        out = np.ones_like(s)
        sm = nodes[m]
        for l, sl in enumerate(nodes):
            if l == m:
                continue
            out = out * (s - sl) / (sm - sl)
        return out

    def eval_all(self, s) -> np.ndarray:
        """Matrix of all functions at the points ``s``: shape (k+1, len(s))."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.stack([self.eval(m, s) for m in range(len(self.nodes))])


def lagrange_set(e: Edge, k: int) -> LagrangeSet:
    """Lagrange set of order ``k`` on edge ``e`` with Gauss-Legendre nodes."""
    if k < 0:
        raise InvalidSpec("order must be non-negative")
    ref_nodes, _ = gauss_legendre_nodes(k + 1)
    nodes = tuple(float(e.length * (z + 1.0) / 2.0) for z in ref_nodes)
    return LagrangeSet(edge=e, nodes=nodes)


class SpaceFamily(Enum):
    PK_SIMPLEX = "Pk_simplex"
    QK = "Qk"
    PK1K2 = "Pk1k2"
    RK_BOUNDARY = "Rk_boundary"
    TK_BOUNDARY = "Tk_boundary"
    RT_TRI = "RT_tri"
    RT_QUAD = "RT_quad"
    HK_GENERAL = "Hk_general"
    HK_CLASSICAL = "Hk_classical"
    HK_REDUCED = "Hk_reduced"


@dataclass(frozen=True)
class SpaceSpec:
    """Parameters of one discretisation space; only the fields relevant to
    the family need to be set."""

    family: SpaceFamily
    k: int = 0
    d: int = 2
    n: int = 0                      # face count, boundary and polygonal spaces
    orders: Tuple[int, ...] = ()    # per-variable orders for Pk1k2
    l1: int = 0
    l2: int = 0
    m1: int = -1
    m2: int = -1


def _binom(a: int, b: int) -> int:
    if b < 0 or a < 0:
        return 0
    return math.comb(a, b)


def space_dimension(spec: SpaceSpec) -> int:
    """Dimension of the space described by ``spec``."""
    f, k, d, n = spec.family, spec.k, spec.d, spec.n
    if f is SpaceFamily.PK_SIMPLEX:
        if k < 0:
            return 0
        return _binom(k + d, k)
    if f is SpaceFamily.QK:
        if k < 0:
            return 0
        return (k + 1) ** d
    if f is SpaceFamily.PK1K2:
        out = 1
        for ki in spec.orders:
            out *= ki + 1
        return out
    if f is SpaceFamily.RK_BOUNDARY:
        return n * _binom(k + d - 1, k)
    if f is SpaceFamily.TK_BOUNDARY:
        return n * (k + 1) ** (d - 1)
    if f is SpaceFamily.RT_TRI:
        return d * _binom(k + d, k) + _binom(k + d - 1, k)
    if f is SpaceFamily.RT_QUAD:
        return d * (k + 2) * (k + 1) ** (d - 1)
    if f is SpaceFamily.HK_GENERAL:
        l1, l2, m1, m2 = spec.l1, spec.l2, spec.m1, spec.m2
        if m1 < -1 or m2 < -1 or l2 < -1 or not (-1 <= l1 <= 0):
            raise InvalidSpec(
                f"orders out of range: l1={l1} (need -1..0), l2={l2}, m1={m1}, m2={m2} (need >= -1)"
            )
        boundary = n * (d * (l1 + 1) ** (d - 1) + (l2 + 1) ** (d - 1))
        inner_a = d * (m1 + 1) ** d
        inner_b = 0 if m2 < 0 else (m2 + 1) ** d - m2 ** d
        return boundary + inner_a + inner_b
    if f is SpaceFamily.HK_CLASSICAL:
        if n < 3 or k < 0:
            raise InvalidSpec("classical space needs n >= 3, k >= 0")
        return n * (k + 3) + internal_count(k)
    if f is SpaceFamily.HK_REDUCED:
        if n < 3 or k < 0:
            raise InvalidSpec("reduced space needs n >= 3, k >= 0")
        return n * (k + 1) + internal_count(k)
    raise UnknownKind(f)


def internal_count(k: int) -> int:
    """Number of internal basis functions of the polygonal spaces:
    (k-1) + k + k^2 + k^2 = 2k(k+1) - 1 for k > 0, else 0."""
    return 2 * k * (k + 1) - 1 if k > 0 else 0
