"""Quadrature rules built on the barycentric bases.

Three layers: Gauss-Legendre node/weight generation (Newton iteration on
the Legendre recurrence), interpolatory quadrature weights
omega_i = int L_i(t) dt for smooth integrands, and product-integration
weights w_j = int L_j(s) (t_i - s)^(-alpha) ds that absorb an Abel-type
endpoint singularity exactly.

Rule generation is cached per order; weight rows are independent of each
other and may be computed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .barycentric import BaryBasis, basis_matrix

__all__ = [
    "QuadratureRule",
    "ProductWeights",
    "gauss_legendre",
    "brq_weights",
    "product_weights",
]

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100
_BRQ_POINTS = 32  # Gauss-Legendre points per basis subinterval
_PRODUCT_POINTS = 64  # per product panel, one panel per four subintervals


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integration over ``interval``."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def apply(self, values) -> float:
        """Weighted sum of integrand samples at the rule's nodes."""
        return float(self.weights @ np.asarray(values, dtype=float))


@dataclass(frozen=True)
class ProductWeights:
    """Row of singular product-integration weights w_{i,j}, j = 0..i."""

    row: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        if not np.all(np.isfinite(weights)):
            raise ValueError("product weights must be finite")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)


@lru_cache(maxsize=256)
def _legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    # Newton iteration from the Chebyshev-like initial guesses; the roots
    # are polished to 1e-15 and the rule is symmetrized about zero.
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


def gauss_legendre(m: int) -> QuadratureRule:
    """m-point Gauss-Legendre rule on [-1, 1], exact to polynomial degree 2m-1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    x, w = _legendre_rule(m)
    return QuadratureRule(x, w, (-1.0, 1.0))


def _panel_points(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _legendre_rule(m)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


def brq_weights(basis: BaryBasis, interval: tuple[float, float]) -> QuadratureRule:
    """Interpolatory quadrature weights omega_i = int L_i(t) dt over ``interval``.

    Each cardinal function is integrated by Gauss-Legendre panels aligned
    with the subintervals of the basis, giving a rule whose degree of
    precision exceeds the blending order of any supported family.
    """
    a, b = float(interval[0]), float(interval[1])
    tol = 1e-12 * max(basis.span, abs(b - a))
    if abs(basis.nodes[0] - a) > tol or abs(basis.nodes[-1] - b) > tol:
        raise ValueError("basis nodes must span the integration interval")
    weights = np.zeros(basis.nodes.size)
    for lo, hi in zip(basis.nodes[:-1], basis.nodes[1:]):
        pts, pw = _panel_points(lo, hi, _BRQ_POINTS)
        weights += pw @ basis_matrix(basis, pts)
    return QuadratureRule(basis.nodes, weights, (a, b))


def product_weights(row: int, basis: BaryBasis, alpha: float = 0.5) -> ProductWeights:
    """Weights w_j = int_{t_0}^{t_row} L_j(s) (t_row - s)^(-alpha) ds.

    ``basis`` must be built on the subgrid {t_0, ..., t_row}, so ``row``
    equals the basis's highest node index.  The substitution
    u = (t_row - s)^(1-alpha) removes the singularity, leaving a smooth
    integrand handled by composite 64-point Gauss-Legendre panels; the
    panel count grows with the subgrid so every weight is accurate to about
    1e-12 absolute.  Only alpha = 1/2 is exercised by the solver.
    """
    if row < 1:
        raise ValueError("row must be >= 1; the first collocation row is handled analytically")
    if row != basis.n:
        raise ValueError(f"row {row} does not match the subgrid basis (n={basis.n})")
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
    return ProductWeights(row=row, weights=weights)
