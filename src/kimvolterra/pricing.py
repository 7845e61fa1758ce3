"""American option prices from a solved exercise boundary.

The put value splits into its European part plus the early-exercise
premium, an integral of discounted exercise benefits against the boundary
over [0, t].  The premium integrand is the boundary solver's own (the
value-matching cross-check is this formula at S = B), and the integral is
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

from .boundary import (BoundaryCurve, SolverConfig, _perpetual_exponent, _premium_integrand,
                       _unit_rows, eval_boundary, solve_boundary)
from .market import MarketParams, european_put
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


def _endpoint_indicator(spot: float, boundary_value: float, strike: float) -> float:
    """Limit of the CDF factors as the time gap closes: 1 below the boundary,
    1/2 on it, 0 above."""
    if abs(spot - boundary_value) <= 1e-9 * strike:
        return 0.5
    return 1.0 if spot < boundary_value else 0.0


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
    if spot <= 0.0:
        raise ValueError(f"spot must be > 0, got {spot}")
    horizon = curve.horizon
    if not 0.0 < t <= horizon * (1.0 + 1e-12):
        raise ValueError(f"t must lie in (0, {horizon}], got {t}")
    t = min(t, horizon)
    d = curve.basis.degree

    boundary_at_t = float(eval_boundary(curve, t))
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
    # node hits interpolate to exact unit rows, so this is bitwise eval_boundary
    boundary_vals = (curve.values[:-1] if nodes is curve.grid
                     else np.asarray(eval_boundary(curve, nodes[:-1])))
    integrand = _premium_integrand(spot, t - nodes[:-1], boundary_vals, p)
    endpoint = (_endpoint_indicator(spot, boundary_at_t, p.strike)
                * (p.rate * p.strike - p.dividend * spot))
    premium = float(weights[:-1] @ integrand + weights[-1] * endpoint)
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
    if spot <= 0.0:
        raise ValueError(f"spot must be > 0, got {spot}")
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
