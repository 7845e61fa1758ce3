"""Quadrature rules built on the barycentric bases.

Three layers: Gauss-Legendre node/weight generation (Newton iteration on
the Legendre recurrence), interpolatory quadrature weights
omega_i = int L_i(t) dt for smooth integrands, and product-integration
weights w_j = int L_j(s) (t_n - s)^(-alpha) ds that absorb an Abel-type
endpoint singularity exactly.

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

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100
_BRQ_POINTS = 32  # Gauss-Legendre points per basis subinterval
_PRODUCT_POINTS = 64  # per product panel, one panel per four subintervals


@lru_cache(maxsize=256)
def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the m-point Gauss-Legendre rule on [-1, 1].

    Exact to polynomial degree 2m-1.  The roots are found by Newton
    iteration from Chebyshev-like initial guesses, polished to 1e-15 and
    symmetrized about zero.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    k = np.arange(1, m + 1)
    x = np.cos(math.pi * (4.0 * k - 1.0) / (4.0 * m + 2.0))
    dp = np.ones_like(x)
    for _ in range(_NEWTON_MAX_ITER):
        p_prev, p = np.ones_like(x), x.copy()
        for j in range(2, m + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = m * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Legendre root iteration did not converge for m={m}")
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_points(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = gauss_legendre(m)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


def brq_weights(basis: BaryBasis) -> np.ndarray:
    """Interpolatory quadrature weights omega_i = int L_i(t) dt over the basis span.

    Each cardinal function is integrated by Gauss-Legendre panels aligned
    with the subintervals of the basis, giving a rule whose degree of
    precision exceeds the blending order of any supported family.
    """
    weights = np.zeros(basis.nodes.size)
    for lo, hi in zip(basis.nodes[:-1], basis.nodes[1:]):
        pts, pw = _panel_points(lo, hi, _BRQ_POINTS)
        weights += pw @ basis_matrix(basis, pts)
    weights.setflags(write=False)
    return weights


def product_weights(basis: BaryBasis, alpha: float = 0.5) -> np.ndarray:
    """Weights w_j = int_{t_0}^{t_n} L_j(s) (t_n - s)^(-alpha) ds, n = ``basis.n``.

    The substitution u = (t_n - s)^(1-alpha) removes the singularity,
    leaving a smooth integrand handled by composite 64-point Gauss-Legendre
    panels; the panel count grows with the basis so every weight is
    accurate to about 1e-12 absolute.  Only alpha = 1/2 is exercised by the
    solver.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    panels = max(1, math.ceil(basis.n / 4))
    power = 1.0 - alpha
    t_top = float(basis.nodes[-1])
    u_max = (t_top - float(basis.nodes[0])) ** power
    weights = np.zeros(basis.nodes.size)
    edges = np.linspace(0.0, u_max, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        u, uw = _panel_points(lo, hi, _PRODUCT_POINTS)
        s = t_top - u ** (1.0 / power)
        weights += (uw / power) @ basis_matrix(basis, s)
    if not np.all(np.isfinite(weights)):
        raise ValueError("product weights must be finite")
    weights.setflags(write=False)
    return weights
