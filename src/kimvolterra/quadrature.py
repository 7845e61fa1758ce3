"""Quadrature rules built on the barycentric bases.

One weight integral, w_j = int L_j(s) (e - s)^(-alpha) ds over the
cardinal functions of a basis on the nodes 0..e, gives both rule families:
alpha = 1/2 is the product-integration row that absorbs the Abel-type
endpoint singularity exactly, and alpha = 0 is the interpolatory (BRQ) rule
omega_j = int L_j(t) dt for smooth integrands.  After the substitution
u = (e - s)^(1-alpha), each unit subinterval e - s in [m - 1, m] gets 16
Gauss-Legendre points in u.  Their offsets v = e - s lie strictly inside
(m - 1, m) whatever the row end e, so every row shares one Cauchy table
T[(m, q), l] = 1 / (l - v_q(m)) over the lags l = e - j, and no point meets
a node.  Every function is pure and returns bare read-only arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .barycentric import BaryBasis, basis_matrix  # noqa: F401 (the benchmark tracer wraps it)

__all__ = [
    "brq_weights",
    "product_weights",
    "unit_weight_rows",
]

_POINTS = 16  # Gauss-Legendre points per unit subinterval
_BLOCK = 8  # subintervals per block of the Cauchy table
_gauss = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)  # an eigensolve per call


def brq_weights(basis: BaryBasis) -> np.ndarray:
    """Interpolatory weights omega_i = int L_i(t) dt over the basis span: the
    product weights with alpha = 0 (Klein & Berrut 2012)."""
    return product_weights(basis, alpha=0.0)


def product_weights(basis: BaryBasis, alpha: float = 0.5) -> np.ndarray:
    """Weights w_j = int_{t_0}^{t_n} L_j(s) (t_n - s)^(-alpha) ds, n = ``basis.n``: the
    one-row case of :func:`unit_weight_rows`, times h^(1-alpha) on the spacing h."""
    row = unit_weight_rows(basis.weights[None, :], alpha)[0]
    weights = (basis.span / basis.n) ** (1.0 - alpha) * row
    weights.setflags(write=False)
    return weights


def unit_weight_rows(betas: np.ndarray, alpha: float) -> np.ndarray:
    """Last k rows of the table W[e, j] = int_0^e L_j(s) (e - s)^(-alpha) ds, unit nodes.

    Row c of the (k, n + 1) array ``betas`` holds the barycentric weights of
    row e = n + 1 - k + c, zero beyond node e, as is W.  With B[l, c] those
    weights by lag l = e - j, each block of points adds ((g / D)^T @ T) * B^T
    to the rows, D = T @ B and g the Gauss weights of the points m <= e.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    width = betas.shape[1]
    ends = np.arange(width - len(betas), width)
    lags = (ends[:, None] - np.arange(width)) % width
    b = np.take_along_axis(betas, lags, axis=1)  # B^T, zero for l > e
    power = 1.0 - alpha
    x, w = _gauss(_POINTS)
    m = np.repeat(np.arange(1, width), _POINTS)  # subinterval of each point
    lo, hi = (m - 1.0) ** power, m**power
    v = (0.5 * (hi - lo) * np.resize(x, m.size) + 0.5 * (lo + hi)) ** (1.0 / power)
    g = 0.5 * (hi - lo) * np.resize(w, m.size) / power
    rows = np.zeros(b.shape)
    for blk in range(0, m.size, _BLOCK * _POINTS):
        pts = slice(blk, blk + _BLOCK * _POINTS)
        cauchy = 1.0 / (np.arange(width) - v[pts, None])
        live = np.searchsorted(ends, m[blk])  # rows that reach this block
        denom = cauchy @ b[live:].T
        scaled = np.divide(g[pts, None], denom, out=np.zeros_like(denom),
                           where=m[pts, None] <= ends[live:])
        rows[live:] += scaled.T @ cauchy
    rows *= b
    if not np.all(np.isfinite(rows)):
        raise ValueError("product weights must be finite")
    weights = np.take_along_axis(rows, lags, axis=1)
    weights.setflags(write=False)
    return weights
