"""Barycentric interpolation on equidistant nodes.

Weight families: classical polynomial (Lagrange form), Berrut's rational
weights (-1)^i, and the Floater-Hormann blend of local degree-d
polynomials.  Evaluation uses the barycentric quotient, which is invariant
under rescaling of the weights, and a Lebesgue-constant estimator bounds
the stability of interpolation and of the derived quadrature rules.

Bases are immutable after construction; all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LAGRANGE",
    "BERRUT",
    "FLOATER_HORMANN",
    "BaryBasis",
    "lagrange_weights",
    "berrut_weights",
    "fh_weights",
    "lagrange_basis",
    "berrut_basis",
    "fh_basis",
    "basis_matrix",
    "eval_interpolant",
    "lebesgue_constant",
]

LAGRANGE = "lagrange"
BERRUT = "berrut"
FLOATER_HORMANN = "fh"

# relative tolerances, scaled by the node span
_EQUIDISTANT_RTOL = 1e-12
_NODE_HIT_RTOL = 1e-14


@dataclass(frozen=True)
class BaryBasis:
    """Equidistant interpolation nodes with barycentric weights.

    ``degree`` is the Floater-Hormann blending order and is None for the
    other families.  Node spacing must be uniform to within 1e-12 of the
    span; Berrut and Floater-Hormann weights must alternate in sign.
    """

    nodes: np.ndarray
    weights: np.ndarray
    family: str
    degree: int | None = None

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least 2 one-dimensional nodes")
        if weights.shape != nodes.shape:
            raise ValueError("weights must match nodes in length")
        steps = np.diff(nodes)
        if np.any(steps <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        span = nodes[-1] - nodes[0]
        h = span / (nodes.size - 1)
        if np.max(np.abs(steps - h)) > _EQUIDISTANT_RTOL * span:
            raise ValueError("nodes must be equidistant")
        if self.family not in (LAGRANGE, BERRUT, FLOATER_HORMANN):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == FLOATER_HORMANN:
            if self.degree is None or not 0 <= self.degree <= nodes.size - 1:
                raise ValueError("Floater-Hormann degree must satisfy 0 <= d <= n")
        elif self.degree is not None:
            raise ValueError(f"degree is only meaningful for the {FLOATER_HORMANN!r} family")
        if self.family in (BERRUT, FLOATER_HORMANN):
            if np.any(weights[:-1] * weights[1:] >= 0.0):
                raise ValueError("rational weights must alternate in sign")
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


def lagrange_weights(nodes) -> np.ndarray:
    """Classical barycentric weights 1 / prod_{j != i} (t_i - t_j).

    Computed in log space and rescaled so the largest magnitude is 1; the
    barycentric quotient is invariant under any common rescaling.
    """
    x = np.asarray(nodes, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least 2 one-dimensional nodes")
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)  # neutral element for the row products
    if np.any(diff == 0.0):
        raise ValueError("nodes must be distinct")
    signs = np.prod(np.sign(diff), axis=1)
    logmag = np.sum(np.log(np.abs(diff)), axis=1)
    beta = signs * np.exp(-(logmag - logmag.min()))
    return beta / np.max(np.abs(beta))


def berrut_weights(n: int) -> np.ndarray:
    """Alternating-sign rational weights (-1)^i for i = 0..n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (-1.0) ** np.arange(n + 1)


def fh_weights(n: int, d: int) -> np.ndarray:
    """Floater-Hormann weights for blending order d on n+1 equidistant nodes.

    beta_i = (-1)^(i-d) * sum_{j in J_i} C(d, i-j) with
    J_i = {max(0, i-d) <= j <= min(i, n-d)}; d = 0 reduces to Berrut's
    weights and |beta_0| = |beta_n| = 1.
    """
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    beta = np.empty(n + 1)
    for i in range(n + 1):
        total = sum(math.comb(d, i - j) for j in range(max(0, i - d), min(i, n - d) + 1))
        beta[i] = total if (i - d) % 2 == 0 else -total
    return beta


def lagrange_basis(nodes) -> BaryBasis:
    return BaryBasis(np.asarray(nodes, dtype=float), lagrange_weights(nodes), LAGRANGE)


def berrut_basis(nodes) -> BaryBasis:
    nodes = np.asarray(nodes, dtype=float)
    return BaryBasis(nodes, berrut_weights(nodes.size - 1), BERRUT)


def fh_basis(nodes, d: int) -> BaryBasis:
    nodes = np.asarray(nodes, dtype=float)
    return BaryBasis(nodes, fh_weights(nodes.size - 1, d), FLOATER_HORMANN, degree=d)


def basis_matrix(basis: BaryBasis, ts) -> np.ndarray:
    """Matrix L with L[p, j] = L_j(ts[p]) for the cardinal functions of the basis.

    Points within 1e-14 of the span of a node return the exact unit row.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    diff = ts[:, None] - basis.nodes[None, :]
    tol = _NODE_HIT_RTOL * basis.span
    hits = np.abs(diff) <= tol
    hit_rows = hits.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = basis.weights[None, :] / diff
        out = c / c.sum(axis=1, keepdims=True)
    if hit_rows.any():
        out[hit_rows] = 0.0
        rows, cols = np.nonzero(hits)
        out[rows, cols] = 1.0
    return out


def eval_interpolant(basis: BaryBasis, values, t):
    """Evaluate the barycentric interpolant of ``values`` at ``t``.

    ``t`` may be a scalar or an array; points coinciding with a node (to
    within 1e-14 of the span) return the stored value exactly.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != basis.nodes.shape:
        raise ValueError(f"expected {basis.nodes.size} values, got {values.size}")
    scalar = np.isscalar(t) or np.ndim(t) == 0
    result = basis_matrix(basis, t) @ values
    return float(result[0]) if scalar else result


def lebesgue_constant(basis: BaryBasis, oversample: int) -> float:
    """Estimate the Lebesgue constant max_t sum_i |L_i(t)| by dense sampling.

    Samples ``oversample`` interior points per subinterval, so the estimate
    is a lower bound converging from below as ``oversample`` grows.
    """
    if oversample < 10:
        raise ValueError(f"oversample must be >= 10 per subinterval, got {oversample}")
    nodes = basis.nodes
    ts = np.concatenate([
        np.linspace(a, b, oversample + 2)[1:-1]
        for a, b in zip(nodes[:-1], nodes[1:])
    ])
    return float(np.abs(basis_matrix(basis, ts)).sum(axis=1).max())
