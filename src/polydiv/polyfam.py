"""The polynomial families of the projector and constructor tables, per-edge
Lagrange sets generated from Gauss-Legendre nodes, and the dimension
formulas of every discretisation space handled by the package.

``PolyFamily`` is the one definition of the seven families, keyed by their
projector codes 1-7.  One table gives each family its degree-n 1-D
polynomial, its variable on an edge and its variable along one polygon
axis; ``boundary_projector`` (edge) and ``inner_poly`` (tensor product on
the polygon) read nothing else.  The constructor codes map onto the same
families: ``BOUNDARY_CONSTRUCTOR_KINDS`` (code 1 is the edge's Lagrange
set, written ``None``) and ``INNER_CONSTRUCTOR_KINDS``.

Conventions: Hermite polynomials follow the physicists' normalisation
(H0 = 1, H1 = 2z), Laguerre the standard one (L0 = 1, L1 = 1 - z).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .geometry import Edge, Point2

__all__ = [
    "PolyFamily",
    "BOUNDARY_CONSTRUCTOR_KINDS",
    "INNER_CONSTRUCTOR_KINDS",
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


class InvalidSpec(ValueError):
    pass


class PolyFamily(Enum):
    """The polynomial families of the projector tables, keyed by their codes."""

    CANONICAL_CENTERED_SCALED = 1
    CHEBYSHEV = 2
    HERMITE = 3
    LEGENDRE = 4
    LAGUERRE = 5
    CANONICAL_CENTERED_UNSCALED = 6
    CANONICAL_UNSCALED = 7


# Boundary constructor families (Dirichlet data of the edge Poisson
# problems); None is the edge's Lagrange set.
BOUNDARY_CONSTRUCTOR_KINDS: dict[int, Optional[PolyFamily]] = {
    1: None,
    2: PolyFamily.CANONICAL_CENTERED_SCALED,
    3: PolyFamily.CANONICAL_CENTERED_UNSCALED,
}

# Inner constructor families (Poisson second members), with their own codes.
INNER_CONSTRUCTOR_KINDS: dict[int, PolyFamily] = {
    1: PolyFamily.CHEBYSHEV,
    2: PolyFamily.HERMITE,
    3: PolyFamily.LEGENDRE,
    4: PolyFamily.CANONICAL_CENTERED_SCALED,
    5: PolyFamily.CANONICAL_CENTERED_UNSCALED,
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


def _power(n: int, z):
    return z ** n


# Per family: its degree-n polynomial poly(n, z); its variable on an edge,
# z(s, L) at arc parameter s of an edge of length L; and its variable along
# one polygon axis, z(t, c, a) at coordinate t, hull barycenter coordinate c
# and hull area a.  The operation order of each expression is part of the
# output, in the last digits: that of the edge variable fixes the edge rows
# of Lambda and the exported traces, and that of the axis variable the
# interior rows of Lambda and the Poisson sources of the inner constructors
# (so U).
_FAMILIES = {
    PolyFamily.CANONICAL_CENTERED_SCALED: (_power, lambda s, L: 2.0 * s / L - 1.0, lambda t, c, a: 2.0 * (t - c) / a),
    PolyFamily.CHEBYSHEV: (chebyshev_t, lambda s, L: 2.0 * s / L - 1.0, lambda t, c, a: 2.0 * (t - c) / a),
    PolyFamily.HERMITE: (hermite_h, lambda s, L: 4.0 * s / L - 2.0, lambda t, c, a: 4.0 * (t - c) / a),
    PolyFamily.LEGENDRE: (legendre_p, lambda s, L: 2.0 * s / L - 1.0, lambda t, c, a: 2.0 * (t - c) / a),
    PolyFamily.LAGUERRE: (laguerre_l, lambda s, L: 12.0 * s / L - 2.0, lambda t, c, a: 12.0 * (t - c + 4.0) / a),
    PolyFamily.CANONICAL_CENTERED_UNSCALED: (_power, lambda s, L: s - L / 2.0, lambda t, c, a: t - c),
    PolyFamily.CANONICAL_UNSCALED: (_power, lambda s, L: s, lambda t, c, a: t),
}


def boundary_projector(family: PolyFamily, i: int, s, L: float):
    """Evaluate the degree-``i`` projector of ``family`` at arc parameter
    ``s`` on an edge of length ``L``.  Vectorized in ``s``."""
    if i < 0:
        raise InvalidSpec("projector degree must be non-negative")
    if L <= 0:
        raise InvalidSpec("edge length must be positive")
    poly, edge_var, _ = _FAMILIES[family]
    return poly(i, edge_var(np.asarray(s, dtype=float), L))


def inner_poly(family: PolyFamily, i: int, j: int, x, y, hull: Tuple[Point2, float]):
    """Tensor-product polynomial of ``family`` with x-degree ``i``,
    y-degree ``j``, shifted/scaled with the convex-hull barycenter and
    area.  Vectorized in ``x``, ``y``."""
    if i < 0 or j < 0:
        raise InvalidSpec("polynomial degrees must be non-negative")
    bary, area = hull
    if area <= 0:
        raise InvalidSpec("hull area must be positive")
    poly, _, axis_var = _FAMILIES[family]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return poly(i, axis_var(x, bary.x, area)) * poly(j, axis_var(y, bary.y, area))


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

    nodes: Tuple[float, ...]

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


def lagrange_set(e: Edge, k: int) -> LagrangeSet:
    """Lagrange set of order ``k`` on edge ``e`` with Gauss-Legendre nodes."""
    if k < 0:
        raise InvalidSpec("order must be non-negative")
    ref_nodes, _ = gauss_legendre_nodes(k + 1)
    nodes = tuple(float(e.length * (z + 1.0) / 2.0) for z in ref_nodes)
    return LagrangeSet(nodes=nodes)


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
    # HK_REDUCED, the last family
    if n < 3 or k < 0:
        raise InvalidSpec("reduced space needs n >= 3, k >= 0")
    return n * (k + 1) + internal_count(k)


def internal_count(k: int) -> int:
    """Number of internal basis functions of the polygonal spaces:
    (k-1) + k + k^2 + k^2 = 2k(k+1) - 1 for k > 0, else 0."""
    return 2 * k * (k + 1) - 1 if k > 0 else 0
