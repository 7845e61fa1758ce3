"""American option prices from a solved exercise boundary.

The put value splits into its European part plus the early-exercise premium, an
integral of discounted exercise benefits against the boundary over [0, t].  The
premium integrand is written here once (the value-matching equation is this
formula at S = B), and one quadrature rule takes its integral at every t (see
``american_put_price``).  A result holds the value and its two parts;
``error_bound_factor`` needs no curve.  Pricing is pure given an immutable
curve; concurrent pricing is safe.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .boundary import BoundaryCurve, _perpetual_exponent, eval_boundary
from .market import MarketParams, _require_spot, european_put
from .quadrature import _POINTS, _gauss, brq_weights, unit_weight_rows  # noqa: F401 (traced)

__all__ = [
    "PriceResult",
    "error_bound_factor",
    "american_put_price",
]

# z = sqrt(t - s) = sqrt(g) u, u in [0, 1], on a tail of length g: the alpha = 1/2 builder's
# Gauss points give time gaps g u^2 (then 0, for t itself) and weights g w u, as ds = 2 z dz
_TAIL_U = 0.5 * (_gauss(_POINTS)[0] + 1.0)
_TAIL_TAU, _TAIL_W = np.append(_TAIL_U * _TAIL_U, 0.0), _TAIL_U * _gauss(_POINTS)[1]


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

    theta is the negative perpetual-put exponent, so the factor is positive;
    a market without a finite negative theta (r = 0 among them) is rejected.
    """
    _require_spot(spot)
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
    """American put value at time-to-expiry t in (0, T] via the premium representation.

    t snaps to T within 1e-12 T.  With h the curve's spacing and k = max(0, floor(t/h) - 1),
    the premium over [0, kh] takes BRQ on the stored nodes 0..k (row k of the unit table,
    times h), and over [kh, t], one or two panels, 16-point Gauss-Legendre in z = sqrt(t - s):
    just above B(t) the CDF factors fall from 1/2 to 0 within (ln(S/B)/sigma)^2 of t, smoothly
    in z.  One ``eval_boundary`` call reads B at the tail's points and at t, its last point.
    At or below B(t) the value is exactly the payoff K - spot, unless the European price
    exceeds it: then the spot lies in the continuation region, below an interpolated B(t)
    that overshoots the true boundary (near expiry on coarse grids), and takes the premium.
    """
    start = time.perf_counter()
    p = curve.params
    _require_spot(spot)
    T, n, d = p.expiry, curve.basis.n, curve.basis.degree
    if not 0.0 < t <= T * (1.0 + 1e-12):
        raise ValueError(f"t must lie in (0, {T}], got {t}")
    t = T if t >= T * (1.0 - 1e-12) else t
    k = max(0, int(t * n / T + 1e-9) - 1)
    g = t - curve.grid[k]
    tail_tau = g * _TAIL_TAU
    ys = eval_boundary(curve, t - tail_tau)
    euro = european_put(t, spot, p)
    if spot <= ys[-1] and euro <= p.strike - spot:
        value = p.strike - spot
        premium = value - euro
    else:
        # above B(t), or below an interpolated B(t) that a European price over the payoff refutes
        weights = np.concatenate(((T / n) * unit_weight_rows(n, d, 0.0)[0][k, :k + 1], g * _TAIL_W))
        tau = np.concatenate((t - curve.grid[:k + 1], tail_tau[:-1]))
        y = np.concatenate((curve.values[:k + 1], ys[:-1]))
        premium = float(weights.dot(_premium_integrand(spot, tau, y, p)))
        value = euro + premium
    return PriceResult(value=value, european_part=euro, premium_part=premium,
                       wall_time=time.perf_counter() - start)
