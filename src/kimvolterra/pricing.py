"""American option prices from a solved exercise boundary.

The put value splits into its European part plus the early-exercise
premium, an integral of discounted exercise benefits against the boundary
over [0, t].  The premium integrand is written here once (the
value-matching equation is this formula at S = B), and the integral is
evaluated with the cached quadrature rows (``unit_weight_rows``) of the
curve's rational basis, scaled to the grid spacing; the integrand's
endpoint limit vanishes in the continuation region.  A result holds the
value and its two parts; ``error_bound_factor`` needs no curve.

Pricing is pure given an immutable curve; concurrent pricing across
spots and times is safe.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .boundary import BoundaryCurve, _perpetual_exponent, eval_boundary
from .market import MarketParams, _require_spot, european_put
from .quadrature import brq_weights, unit_weight_rows  # noqa: F401 (brq_weights is traced)

__all__ = [
    "PriceResult",
    "error_bound_factor",
    "american_put_price",
]


@dataclass(frozen=True)
class PriceResult:
    """Option value with its decomposition and runtime diagnostics.

    ``value`` always equals ``european_part + premium_part``.  The factor
    that turns a boundary error into a price error bound is not stored; it
    depends on the spot and market alone, so ``error_bound_factor`` gives it.
    """

    value: float
    european_part: float
    premium_part: float
    wall_time: float


def error_bound_factor(spot: float, p: MarketParams) -> float:
    """Price-error amplification factor (theta-1)/(sigma theta sqrt(2)) (sqrt(delta) S/K + sqrt(r)).

    theta is the negative perpetual-put exponent, so the factor is positive
    for every valid parameter set with r > 0.
    """
    _require_spot(spot)
    if p.rate <= 0.0:
        raise ValueError("error_bound_factor requires rate > 0")
    theta = _perpetual_exponent(p)
    scale = (theta - 1.0) / (p.volatility * theta * math.sqrt(2.0))
    return scale * (math.sqrt(p.dividend) * spot / p.strike + math.sqrt(p.rate))


def _premium_integrand(x: float, tau: np.ndarray, y: np.ndarray,
                       p: MarketParams) -> np.ndarray:
    """Early-exercise premium density r K e^(-r tau) N(-d2) - delta x e^(-delta tau) N(-d1).

    ``y`` holds the boundary values at the time gaps ``tau`` > 0; the
    pricing integral takes x = spot and the value-matching equation x = B.
    """
    sig_sqrt = p.volatility * np.sqrt(tau)
    d1 = (np.log(x / y) + (p.rate - p.dividend + 0.5 * p.volatility**2) * tau) / sig_sqrt
    d2 = d1 - sig_sqrt
    return (p.rate * p.strike * np.exp(-p.rate * tau) * ndtr(-d2)
            - p.dividend * x * np.exp(-p.dividend * tau) * ndtr(-d1))


def american_put_price(t: float, spot: float, curve: BoundaryCurve) -> PriceResult:
    """American put value at time-to-expiry t via the premium representation.

    The premium integral over [0, t] takes Floater-Hormann quadrature
    weights of the curve's own order on m equidistant subintervals: row m
    of the solver's unit table for the curve's grid, times t / m.  t must
    lie in (0, T], and one branch decides t = T, for any t within 1e-12 T
    of it: there the nodes are the curve's grid and the boundary its stored
    values.  Otherwise m = max(d + 1, ceil(t / h)) for the curve's spacing
    h, and one ``eval_boundary`` call reads the boundary at the m + 1 nodes.
    Either way the last node is t, so the read also gives B(t).  In the
    exercise region (spot at or below B(t)) the value is exactly the payoff
    K - spot.
    """
    start = time.perf_counter()
    p = curve.params
    _require_spot(spot)
    T, n, d = p.expiry, curve.basis.n, curve.basis.degree
    if not 0.0 < t <= T * (1.0 + 1e-12):
        raise ValueError(f"t must lie in (0, {T}], got {t}")
    if t >= T * (1.0 - 1e-12):
        # node hits interpolate to exact unit rows, so the stored values are bitwise eval_boundary
        t, nodes, ys = T, curve.grid, curve.values
    else:
        segments = max(d + 1, int(math.ceil(t / (T / n) - 1e-12)))
        nodes = np.linspace(0.0, t, segments + 1)
        ys = eval_boundary(curve, nodes)
    euro = european_put(t, spot, p)
    if spot <= ys[-1]:
        value = p.strike - spot
        premium = value - euro
    else:
        m = nodes.size - 1
        weights = (t / m) * unit_weight_rows(n, d, 0.0)[m, :m + 1]
        integrand = _premium_integrand(spot, t - nodes[:-1], ys[:-1], p)
        # the CDF factors' limit as the time gap closes: 1/2 on the boundary, 0 above it
        endpoint = ((0.5 if spot - ys[-1] <= 1e-9 * p.strike else 0.0)
                    * (p.rate * p.strike - p.dividend * spot))
        premium = float(weights[:-1].dot(integrand) + weights[-1] * endpoint)
        value = euro + premium
    return PriceResult(value=value, european_part=euro, premium_part=premium,
                       wall_time=time.perf_counter() - start)
