"""American option prices from a solved exercise boundary.

The put is its European part plus the early-exercise premium, Kim's (1990) density taken
against the boundary over [0, t] by one quadrature rule at every t.  ``_premium_factors``
writes the density once, as spot-free factors that one combine step sums for a spot; a curve
keeps them for T and its last t < T (``_premium``).  ``error_bound_factor`` needs no curve.
Pricing is pure given an immutable curve, the kept factors its alone; it is thread-safe.  A
curve's entry is replaced whole after a build, so a raise keeps nothing, and a race can cost a
rebuild but never returns another t's premium, as each t is its own key.
"""

from __future__ import annotations

import math
import time
import weakref
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .boundary import BoundaryCurve, _perpetual_exponent, _strike_scale, eval_boundary
from .market import MarketParams, _require_spot, _require_spots, european_put
from .quadrature import _TAIL_U, _TAIL_W, brq_weights, unit_weight_rows  # noqa: F401

__all__ = [
    "PriceResult",
    "error_bound_factor",
    "american_put_price",
]

_TAIL_TAU = np.append(_TAIL_U * _TAIL_U, 0.0)  # the tail's time gaps, then 0 for t itself
_PREMIUMS = weakref.WeakKeyDictionary()  # curve (hashed by identity) -> {t: its premium}


@dataclass(frozen=True)
class PriceResult:
    """Option value with its decomposition and runtime diagnostics.

    One spot gives floats, and a sequence read-only float arrays in its order, each entry the
    bits of a one-spot call, with one ``wall_time``.  ``value`` always equals ``european_part +
    premium_part``.  The factor that turns a boundary error into a price error bound is not
    stored; it depends on the spot and market alone, so ``error_bound_factor`` gives it.
    """

    value: float | np.ndarray
    european_part: float | np.ndarray
    premium_part: float | np.ndarray
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


def _premium_factors(p: MarketParams, s: float, w: np.ndarray, tau: np.ndarray,
                     y: np.ndarray) -> tuple:
    """Spot-free premium factors on the rows' scale K / s: 1/v, m/v, v, w (rK/s) e^(-r tau) and
    w delta e^(-delta tau) (None at delta = 0), v = sigma sqrt tau, m = (r - delta + sigma^2/2) tau
    - ln y, for weights w at time gaps tau > 0 and reads y on K / s.  With d1 = ln(S/s)/v + m/v,
    Kim's (1990) r K e^(-r tau) N(-d2) - delta S e^(-delta tau) N(-d1) sums to the premium."""
    v = p.volatility * np.sqrt(tau)
    m = (p.rate - p.dividend + 0.5 * p.volatility**2) * tau - np.log(y)
    return (1.0 / v, m / v, v, w * (p.rate * (p.strike / s)) * np.exp(-p.rate * tau),
            w * p.dividend * np.exp(-p.dividend * tau) if p.dividend else None)


def _premium(curve: BoundaryCurve, t: float) -> tuple:
    """A (curve, t)'s spot-free premium: s, B(t), then :func:`_premium_factors`' arrays, kept for
    T and the last t < T.  With k = max(0, floor(t/h) - 1): row k of the unit alpha = 0 table
    times h on nodes 0..k, then the tail's points on [kh, t], one ``eval_boundary`` call with
    B(t) (a read <= 0 raises).  At T, k = n - 1 and the read ends on the last node, so B(T) is
    that node."""
    if (arrays := (kept := _PREMIUMS.get(curve, {})).get(t)) is None:
        p, n, d = curve.params, curve.basis.n, curve.basis.degree
        T, s = p.expiry, _strike_scale(p.strike)
        k = max(0, int(t * n / T + 1e-9) - 1)
        b_t = (ys := eval_boundary(curve, t - (g := t - curve.grid[k]) * _TAIL_TAU))[-1]
        w = np.concatenate(((T / n) * unit_weight_rows(n, d, 0.0)[0][k, :k + 1], g * _TAIL_W))
        tau = np.concatenate((t - curve.grid[:k + 1], g * _TAIL_TAU[:-1]))
        y = np.append(curve.values[:k + 1], ys[:-1]) / s
        arrays = (s, b_t, *_premium_factors(p, s, w, tau, y))
        _PREMIUMS[curve] = {u: kept[u] for u in kept if T in (u, t)} | {t: arrays}
    return arrays


def american_put_price(t: float, spot: float | Sequence[float],
                       curve: BoundaryCurve) -> PriceResult:
    """American put value at time-to-expiry t in (0, T] via the premium representation.

    ``spot`` is a number or a non-empty 1-D sequence (see :class:`PriceResult`), all checked
    first.  t snaps to T within 1e-12 T.  The premium over [0, t] is BRQ on the stored nodes and,
    over the last one or two panels, 16-point Gauss-Legendre in z = sqrt(t - s) (the layout in
    :func:`_premium`): just above B(t) the CDF factors fall from 1/2 to 0 within
    (ln(S/B)/sigma)^2 of t, smoothly in z.  One combine step per spot sums the (curve, t)'s
    factors.  At or below B(t) the value is exactly the payoff K - spot, unless the European
    price exceeds it: then the spot lies in the continuation region, below an interpolated B(t)
    that overshoots the true boundary (near expiry on coarse grids), and takes the premium.
    """
    start, p, spots = time.perf_counter(), curve.params, _require_spots(spot)
    if not 0.0 < t <= p.expiry * (1.0 + 1e-12):
        raise ValueError(f"t must lie in (0, {p.expiry}], got {t}")
    t = p.expiry if t >= p.expiry * (1.0 - 1e-12) else t  # snapped, so B(T) is the last node
    s, b_t, inv_v, m_v, v, w_r, w_d = _premium(curve, t)
    parts = []  # (value, european, premium) per spot
    for x in spots if isinstance(spots, list) else [spots]:
        euro = european_put(t, x, p)
        if x <= b_t and euro <= p.strike - x:
            parts.append((p.strike - x, euro, p.strike - x - euro))
            continue
        # above B(t), or below an interpolated B(t) that a European price over the payoff refutes
        minus_d1 = -math.log(x / s) * inv_v - m_v  # -d1 bit for bit, one array op fewer
        premium = s * float(w_r.dot(ndtr(v + minus_d1)))
        if w_d is not None:
            premium -= x * float(w_d.dot(ndtr(minus_d1)))
        parts.append((euro + premium, euro, premium))
    if isinstance(spots, list):  # one array per field, read-only as it lies on immutable bytes
        parts = [[np.frombuffer(np.array(field).tobytes()) for field in zip(*parts)]]
    return PriceResult(*parts[0], time.perf_counter() - start)
