"""Barycentric rational interpolation on equidistant nodes.

One weight family: the Floater-Hormann blend of local degree-d
polynomials, whose order d = 0 member is Berrut's weights (-1)^i.
Evaluation uses the barycentric quotient, which is invariant under
rescaling of the weights, and a Lebesgue-constant estimator bounds the
stability of interpolation and of the derived quadrature rules.

Bases are immutable after construction; all functions are pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BaryBasis",
    "fh_weights",
    "basis_matrix",
    "lebesgue_constant",
]

# relative tolerances, scaled by the node span
_EQUIDISTANT_RTOL = 1e-12
_NODE_HIT_RTOL = 1e-14


@dataclass(frozen=True, eq=False)
class BaryBasis:
    """Equidistant interpolation nodes with the Floater-Hormann weights of order d.

    ``degree`` is the blending order d, with 0 <= d <= n; d = 0 is Berrut's
    basis.  Nodes must be finite, their spacing uniform to within 1e-12 of
    the span.  The read-only ``weights`` are ``fh_weights(n, degree)``, set on
    construction.  A basis is equal only to itself.
    """

    nodes: np.ndarray
    degree: int
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least 2 one-dimensional nodes")
        if not np.isfinite(nodes).all():  # NaN fails no comparison below
            raise ValueError("nodes must be finite")
        steps = np.diff(nodes)
        if np.any(steps <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        span = nodes[-1] - nodes[0]
        h = span / (nodes.size - 1)
        if np.max(np.abs(steps - h)) > _EQUIDISTANT_RTOL * span:
            raise ValueError("nodes must be equidistant")
        weights = fh_weights(nodes.size - 1, self.degree)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        """Highest node index (node count minus one)."""
        return self.nodes.size - 1

    @property
    def span(self) -> float:
        return float(self.nodes[-1] - self.nodes[0])


def fh_weights(n: int, d: int) -> np.ndarray:
    """Floater-Hormann weights for blending order d on n+1 equidistant nodes.

    beta_i = (-1)^(i-d) * sum_{j in J_i} C(d, i-j) with
    J_i = {max(0, i-d) <= j <= min(i, n-d)}; d = 0 reduces to Berrut's
    weights and |beta_0| = |beta_n| = 1.  The sums over J_i are the full
    convolution of n - d + 1 ones with the binomials C(d, .).
    """
    if not all(isinstance(k, numbers.Integral) and not isinstance(k, bool)
               for k in (n, d)) or not 0 <= d <= n:
        raise ValueError(f"need integers n and 0 <= d <= n, got d={d!r}, n={n!r}")
    beta = np.convolve(np.ones(n - d + 1), [float(math.comb(d, k)) for k in range(d + 1)])
    beta[(d + 1) % 2::2] *= -1.0
    return beta


def basis_matrix(basis: BaryBasis, ts) -> np.ndarray:
    """Matrix L with L[p, j] = L_j(ts[p]) for the cardinal functions of the basis.

    Points within 1e-14 of the span of a node return the exact unit row.  Only
    the nearest node, found by rounding, can be that close: O(m) for m points.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    nodes, n, span = basis.nodes, basis.n, basis.span
    with np.errstate(divide="ignore", invalid="ignore"):
        c = basis.weights / (ts[:, None] - nodes)
        out = c / c.sum(axis=1, keepdims=True)
        # NaN and huge points cast to some index; their hit test below fails
        near = np.clip(np.rint((ts - nodes[0]) * (n / span)).astype(np.intp), 0, n)
    rows = np.flatnonzero(np.abs(ts - nodes[near]) <= _NODE_HIT_RTOL * span)
    if rows.size:
        out[rows] = 0.0
        out[rows, near[rows]] = 1.0
    return out


def lebesgue_constant(basis: BaryBasis, oversample: int) -> float:
    """Estimate the Lebesgue constant max_t sum_i |L_i(t)| by dense sampling.

    Samples ``oversample`` interior points per subinterval, so the estimate
    is a lower bound converging from below as ``oversample`` grows.
    """
    if isinstance(oversample, bool) or not isinstance(oversample, numbers.Integral) \
            or oversample < 10:
        raise ValueError(f"oversample must be an integer >= 10 per subinterval, got {oversample!r}")
    nodes = basis.nodes
    ts = np.concatenate([
        np.linspace(a, b, oversample + 2)[1:-1]
        for a, b in zip(nodes[:-1], nodes[1:])
    ])
    return float(np.abs(basis_matrix(basis, ts)).sum(axis=1).max())
