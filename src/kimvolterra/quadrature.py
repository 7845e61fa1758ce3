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
a node.  The solve, pricing and the per-basis weights all read one cached
read-only table of rows 0..n, with its per-row lag sums, per (n, d, alpha), unit nodes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# the benchmark tracer wraps basis_matrix in this module
from .barycentric import BaryBasis, basis_matrix, fh_weights  # noqa: F401

__all__ = [
    "brq_weights",
    "product_weights",
    "unit_weight_rows",
]

_POINTS = 16  # Gauss-Legendre points per unit subinterval
_BLOCK = 8  # subintervals per block of the Cauchy table
_gauss = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)  # an eigensolve per call
_TAIL_U = 0.5 * (_gauss(_POINTS)[0] + 1.0)  # a price's tail g in z = sqrt(t - s) = sqrt(g) u:
_TAIL_W = _TAIL_U * _gauss(_POINTS)[1]  # time gaps g u^2 and weights g w u, as ds = 2 z dz


def brq_weights(basis: BaryBasis) -> np.ndarray:
    """Interpolatory weights omega_i = int L_i(t) dt over the basis span: the
    product weights with alpha = 0 (Klein & Berrut 2012)."""
    return product_weights(basis, alpha=0.0)


def product_weights(basis: BaryBasis, alpha: float = 0.5) -> np.ndarray:
    """Weights w_j = int_{t_0}^{t_n} L_j(s) (t_n - s)^(-alpha) ds, n = ``basis.n``:
    row n of the basis order's :func:`unit_weight_rows` table, times h^(1-alpha) on spacing h."""
    row = unit_weight_rows(basis.n, basis.degree, alpha)[0][basis.n]
    weights = (basis.span / basis.n) ** (1.0 - alpha) * row
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=None)
def unit_weight_rows(n: int, d: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only table W[e, j] = int_0^e L_j(s) (e - s)^(-alpha) ds on the unit nodes 0..n,
    and the read-only per-row lag sums S[e - 1] = sum_l |W[e, e - l]| (l^(-1/2), l^(-1)) over
    the lags l = 1..e of rows 1..n, from the same build: the curvature bound of a Newton row.

    Row e is on the Floater-Hormann basis of order min(d, e) over the nodes 0..e, zero beyond
    node e.  With B[l, e] its barycentric weights by lag l = e - j, each block of points adds
    ((g / D)^T @ T) * B^T to the rows, D = T @ B and g the Gauss weights of the points m <= e.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    width = n + 1
    lags = (np.arange(width)[:, None] - np.arange(width)) % width
    b = np.zeros((width, width))  # B^T, zero for l > e
    for e in range(n, -1, -1):  # slice writes; row n first, as its weights overflow first
        b[e, :e + 1] = fh_weights(e, min(d, e))[::-1]
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
        live = m[blk]  # rows e < live end before this block
        denom = cauchy @ b[live:].T
        scaled = np.divide(g[pts, None], denom, out=np.zeros_like(denom),
                           where=m[pts, None] <= np.arange(live, width))
        rows[live:] += scaled.T @ cauchy
    rows *= b
    if not np.all(np.isfinite(rows)):
        raise ValueError("product weights must be finite")
    sums = np.abs(rows[1:, 1:]) @ np.arange(1.0, width)[:, None] ** [-0.5, -1.0]  # by lag
    weights = np.take_along_axis(rows, lags, axis=1)
    weights.setflags(write=False)
    sums.setflags(write=False)
    return weights, sums
