"""Gauss-Legendre rules, edge line integrals in the arc-length measure, and
polygon-domain integrals through a triangulation."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .geometry import Edge
from .polyfam import gauss_legendre_nodes

__all__ = [
    "QuadRule1D",
    "QuadRule2D",
    "gauss_legendre",
    "edge_integral",
    "edge_rule_points",
    "triangle_rule",
    "polygon_integral",
]


@dataclass(frozen=True)
class QuadRule1D:
    """Nodes and weights on [-1, 1]; exact for degree <= 2*npoints - 1."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def npoints(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class QuadRule2D:
    """Rule on the reference triangle {x, y >= 0, x + y <= 1}.

    Built by collapsing a tensor Gauss-Legendre rule through the Duffy map,
    so the declared exactness degree is guaranteed.
    """

    points: np.ndarray   # (npts, 2) reference coordinates
    weights: np.ndarray  # sums to 1/2, the reference-triangle area
    degree: int


def gauss_legendre(npoints: int) -> QuadRule1D:
    nodes, weights = gauss_legendre_nodes(npoints)
    return QuadRule1D(nodes=nodes, weights=weights)


def edge_rule_points(e: Edge, npoints: int) -> Tuple[np.ndarray, np.ndarray]:
    """Arc parameters and weights of the mapped Gauss rule on [0, length]."""
    rule = gauss_legendre(npoints)
    s = (rule.nodes + 1.0) * (e.length / 2.0)
    w = rule.weights * (e.length / 2.0)
    return s, w


def edge_integral(f: Callable, e: Edge, npoints: int) -> float:
    """Integrate ``f(s)`` over the edge arc [0, length].

    ``f`` must accept a vector of arc parameters.
    """
    s, w = edge_rule_points(e, npoints)
    return float(np.dot(w, np.asarray(f(s), dtype=float)))


@functools.lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadRule2D:
    """Rule on the reference triangle exact for total degree <= ``degree``.
    Cached; the arrays are read-only."""
    degree = max(0, int(degree))
    # Duffy map (u, v) -> (u, v(1-u)) with Jacobian (1-u): a degree-d
    # integrand becomes degree d+1 in u and d in v.
    nu = (degree + 1) // 2 + 1
    nv = degree // 2 + 1
    xu, wu = gauss_legendre_nodes(nu)
    xv, wv = gauss_legendre_nodes(nv)
    u = (xu + 1.0) / 2.0
    v = (xv + 1.0) / 2.0
    wu = wu / 2.0
    wv = wv / 2.0
    U, V = np.meshgrid(u, v, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    X = U
    Y = V * (1.0 - U)
    W = WU * WV * (1.0 - U)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    W = W.ravel()
    pts.setflags(write=False)
    W.setflags(write=False)
    return QuadRule2D(points=pts, weights=W, degree=degree)


def polygon_integral(f: Callable, mesh, degree: int = 4) -> float:
    """Integrate ``f(x, y)`` over the polygon covered by ``mesh``.

    Applies the reference-triangle rule on every mesh triangle; exact for
    piecewise polynomials of the declared degree on the mesh.  ``f`` must
    accept coordinate arrays.
    """
    rule = triangle_rule(degree)
    x, y, w = mesh.rule_points(rule)
    vals = np.asarray(f(x, y), dtype=float)
    return float(np.dot(w, vals))
