"""Quadrature rules built on the barycentric bases.

One weight integral, w_j = int L_j(s) (t_n - s)^(-alpha) ds over the
cardinal functions of a basis, gives both rule families: alpha = 1/2 is
the product-integration row that absorbs the Abel-type endpoint
singularity exactly, and alpha = 0 is the interpolatory (BRQ) rule
omega_j = int L_j(t) dt for smooth integrands.  The panels use numpy's
Gauss-Legendre rules.

Every function is pure and returns bare read-only arrays; the weight
functions integrate over the span of the basis they are given.
Gauss-Legendre rules are cached per order; weight rows are independent of
each other and may be computed concurrently.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .barycentric import BaryBasis, basis_matrix

__all__ = [
    "gauss_legendre",
    "brq_weights",
    "product_weights",
]

_PRODUCT_POINTS = 64  # per product panel, one panel per four subintervals


@lru_cache(maxsize=256)
def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of numpy's m-point Gauss-Legendre rule on [-1, 1].

    Exact to polynomial degree 2m-1.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    x, w = np.polynomial.legendre.leggauss(m)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def brq_weights(basis: BaryBasis) -> np.ndarray:
    """Interpolatory quadrature weights omega_i = int L_i(t) dt over the basis span.

    These are the product weights with alpha = 0 (Klein & Berrut 2012).
    """
    return product_weights(basis, alpha=0.0)


def product_weights(basis: BaryBasis, alpha: float = 0.5) -> np.ndarray:
    """Weights w_j = int_{t_0}^{t_n} L_j(s) (t_n - s)^(-alpha) ds, n = ``basis.n``.

    The substitution u = (t_n - s)^(1-alpha) removes the singularity,
    leaving a smooth integrand handled by composite 64-point Gauss-Legendre
    panels; the panel count grows with the basis so every weight is
    accurate to about 1e-12 absolute.  The solver uses alpha = 1/2 for the
    singular kernel and alpha = 0 (:func:`brq_weights`) for the smooth term.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    panels = max(1, math.ceil(basis.n / 4))
    power = 1.0 - alpha
    t_top = float(basis.nodes[-1])
    u_max = (t_top - float(basis.nodes[0])) ** power
    weights = np.zeros(basis.nodes.size)
    x, w = gauss_legendre(_PRODUCT_POINTS)
    edges = np.linspace(0.0, u_max, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        u = half * x + 0.5 * (lo + hi)
        s = t_top - u ** (1.0 / power)
        weights += (half * w / power) @ basis_matrix(basis, s)
    if not np.all(np.isfinite(weights)):
        raise ValueError("product weights must be finite")
    weights.setflags(write=False)
    return weights
