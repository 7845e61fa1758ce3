"""American option prices from a solved exercise boundary.

The put value splits into its European part plus the early-exercise
premium, an integral of discounted exercise benefits against the boundary
over [0, t].  The premium integrand is written here once (the
value-matching equation is this formula at S = B), and the integral is
evaluated with the solver's cached quadrature rows of the curve's rational
basis, scaled to the grid spacing; the integrand's endpoint limit vanishes
in the continuation region.  Calls are priced through put-call symmetry
(strike and spot swap roles, as do rate and dividend yield), which also
gives the European call without dividends.

Pricing is pure given an immutable curve; concurrent pricing across
spots and times is safe.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .boundary import (BoundaryCurve, SolverConfig, _perpetual_exponent, _unit_rows,
                       eval_boundary, solve_boundary)
from .market import MarketParams, _require_spot, european_put
from .quadrature import brq_weights  # noqa: F401 (the benchmark tracer wraps it here)

__all__ = [
    "PriceResult",
    "error_bound_factor",
    "american_put_price",
    "american_call_price",
]


@dataclass(frozen=True)
class PriceResult:
    """Option value with its decomposition and runtime diagnostics.

    ``value`` always equals ``european_part + premium_part``;
    ``bound_factor`` is the multiplier that converts a boundary error into
    a price error bound, attached as a diagnostic.
    """

    value: float
    european_part: float
    premium_part: float
    bound_factor: float
    wall_time: float


def error_bound_factor(spot: float, p: MarketParams) -> float:
    """Price-error amplification factor (theta-1)/(sigma theta sqrt(2)) (sqrt(delta) S/K + sqrt(r)).

    theta is the negative perpetual-put exponent, so the factor is positive
    for every valid parameter set with r > 0.
    """
    if p.rate <= 0.0:
        raise ValueError("error_bound_factor requires rate > 0")
    theta = _perpetual_exponent(p)
    scale = (theta - 1.0) / (p.volatility * theta * math.sqrt(2.0))
    return scale * (math.sqrt(p.dividend) * spot / p.strike + math.sqrt(p.rate))


def _premium_grid(curve: BoundaryCurve, t: float, d: int) -> np.ndarray:
    """Equidistant quadrature nodes on [0, t]; the curve's own grid array at t = T."""
    horizon = curve.horizon
    if abs(t - horizon) <= 1e-12 * horizon:
        return curve.grid
    spacing = horizon / (curve.grid.size - 1)
    segments = max(d + 1, int(math.ceil(t / spacing - 1e-12)))
    return np.linspace(0.0, t, segments + 1)


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

    In the exercise region (spot at or below the boundary) the value is
    exactly the payoff K - spot.  Otherwise the premium integral over
    [0, t] is evaluated with Floater-Hormann quadrature weights of the
    curve's own order on m equidistant subintervals (the curve's own at
    t = T): row m of the solver's unit table for the curve's grid, times t / m.
    """
    start = time.perf_counter()
    p = curve.params
    _require_spot(spot)
    horizon = curve.horizon
    if not 0.0 < t <= horizon * (1.0 + 1e-12):
        raise ValueError(f"t must lie in (0, {horizon}], got {t}")
    t = min(t, horizon)
    d = curve.basis.degree

    boundary_at_t = float(curve.values[-1] if t == horizon else eval_boundary(curve, t))
    euro = european_put(t, spot, p)
    if spot <= boundary_at_t:
        value = p.strike - spot
        return PriceResult(value=value, european_part=euro,
                           premium_part=value - euro,
                           bound_factor=error_bound_factor(spot, p),
                           wall_time=time.perf_counter() - start)

    nodes = _premium_grid(curve, t, d)
    m = nodes.size - 1
    weights = (nodes[-1] / m) * _unit_rows(curve.grid.size - 1, d, 0.0)[m, :m + 1]
    # node hits interpolate to exact unit rows, so these (and B(T)) are bitwise eval_boundary
    boundary_vals = (curve.values[:-1] if nodes is curve.grid
                     else np.asarray(eval_boundary(curve, nodes[:-1])))
    integrand = _premium_integrand(spot, t - nodes[:-1], boundary_vals, p)
    # the CDF factors' limit as the time gap closes: 1/2 on the boundary, 0 above it
    endpoint = ((0.5 if spot - boundary_at_t <= 1e-9 * p.strike else 0.0)
                * (p.rate * p.strike - p.dividend * spot))
    premium = float(weights[:-1].dot(integrand) + weights[-1] * endpoint)
    return PriceResult(value=euro + premium, european_part=euro,
                       premium_part=premium,
                       bound_factor=error_bound_factor(spot, p),
                       wall_time=time.perf_counter() - start)


def american_call_price(t: float, spot: float, p: MarketParams,
                        cfg: SolverConfig) -> PriceResult:
    """American call value via put-call symmetry.

    call(spot, strike; r, delta) equals put(strike, spot; delta, r): the
    symmetric put boundary is solved internally with ``cfg`` and priced at
    the original strike.  Without dividends the call is never exercised
    early, so the symmetric European put is returned directly.
    """
    _require_spot(spot)
    if not 0.0 < t <= p.expiry * (1.0 + 1e-12):
        raise ValueError(f"t must lie in (0, {p.expiry}], got {t}")
    start = time.perf_counter()
    symmetric = MarketParams(strike=spot, expiry=p.expiry, rate=p.dividend,
                             dividend=p.rate, volatility=p.volatility)
    if p.dividend == 0.0:
        euro = european_put(t, p.strike, symmetric)
        return PriceResult(value=euro, european_part=euro, premium_part=0.0,
                           bound_factor=0.0,
                           wall_time=time.perf_counter() - start)
    curve = solve_boundary(cfg, symmetric)
    result = american_put_price(t, p.strike, curve)
    return replace(result, wall_time=time.perf_counter() - start)
