"""Market data, Black-Scholes primitives, and a CRR binomial oracle.

``d1d2`` (a plain (d1, d2) tuple) and ``european_put`` are the only scalar
Black-Scholes formulas: calls follow from put-call symmetry in the pricing
module, and the array d1/d2 and premium integrand along a boundary live in
the boundary solver.

The binomial tree updates one array in place and stops updating its
out-of-the-money tail: at each level, the top nodes whose value is below
``_TAIL_CUTOFF * K`` = 1e-290 K are set to an exact 0 and not touched again.
Node values are >= 0 and each node is qd v[j] + qu v[j+1] with
qu + qd = exp(-r dt) <= 1, so a dropped value moves the price by less than
its own size; the tests hold the price to |change| <= 1e-290 K against a
full sweep of every node, and to the same bits wherever it is >= 1e-280 K.
Without the cut, the Table-3 tree at S = 100 holds up to 1,202 subnormal
values in a level (levels 3,078 to 8,976 of 10,000), on which numpy
arithmetic runs about 13 times slower: the five Table-3 BIN(10000) trees
took 1.3-1.5 s with the full sweep and take 0.4-0.55 s with the cut
(2-core Xeon VM, Python 3.11, numpy 2.4).

Everything here is a pure function of its inputs; there is no shared
mutable state, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigurationError",
    "MarketParams",
    "norm_cdf",
    "d1d2",
    "european_put",
    "binomial_american_put",
]

_SQRT2 = math.sqrt(2.0)
# Tree nodes below this fraction of the strike are dropped as exact zeros.
_TAIL_CUTOFF = 1e-290


class ConfigurationError(ValueError):
    """A numerical configuration makes the requested computation ill-posed."""


@dataclass(frozen=True)
class MarketParams:
    """Constant-coefficient lognormal market data for one underlying.

    Parameters
    ----------
    strike : float
        Exercise price K, > 0.
    expiry : float
        Option lifetime T in years, > 0.
    rate : float
        Continuously compounded risk-free rate r, >= 0.
    dividend : float
        Continuous proportional dividend yield, >= 0.
    volatility : float
        Lognormal volatility sigma, > 0.
    """

    strike: float
    expiry: float
    rate: float
    dividend: float
    volatility: float

    def __post_init__(self) -> None:
        for name in ("strike", "expiry", "rate", "dividend", "volatility"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.strike <= 0.0:
            raise ValueError(f"strike must be > 0, got {self.strike}")
        if self.expiry <= 0.0:
            raise ValueError(f"expiry must be > 0, got {self.expiry}")
        if self.volatility <= 0.0:
            raise ValueError(f"volatility must be > 0, got {self.volatility}")
        if self.rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if self.dividend < 0.0:
            raise ValueError(f"dividend must be >= 0, got {self.dividend}")


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Absolute error is below 1e-15 on [-8, 8]; monotone pointwise.
    """
    if not math.isfinite(x):
        raise ValueError(f"norm_cdf requires finite input, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def d1d2(x: float, t: float, y: float, p: MarketParams) -> tuple[float, float]:
    """d1 = [ln(x/y) + (r - delta + sigma^2/2) t] / (sigma sqrt(t)), d2 = d1 - sigma sqrt(t).

    Returns the plain tuple (d1, d2).  Requires x > 0, y > 0 and t > 0; the
    t -> 0 limits are handled by the kernel routines in the boundary solver,
    not here.
    """
    if t <= 0.0:
        raise ValueError(f"d1d2 requires t > 0, got {t}")
    if x <= 0.0 or y <= 0.0:
        raise ValueError(f"d1d2 requires positive price arguments, got x={x}, y={y}")
    sig_sqrt_t = p.volatility * math.sqrt(t)
    d1 = (math.log(x / y) + (p.rate - p.dividend + 0.5 * p.volatility**2) * t) / sig_sqrt_t
    return d1, d1 - sig_sqrt_t


def _require_spot(spot: float) -> None:
    if not (math.isfinite(spot) and spot > 0.0):
        raise ValueError(f"spot must be finite and > 0, got {spot!r}")


def european_put(t: float, spot: float, p: MarketParams) -> float:
    """European put value at time-to-expiry t for the given spot.

    t = 0 returns the payoff max(K - spot, 0).
    """
    _require_spot(spot)
    if t < 0.0:
        raise ValueError(f"european_put requires t >= 0, got {t}")
    if t == 0.0:
        return max(p.strike - spot, 0.0)
    d1, d2 = d1d2(spot, t, p.strike, p)
    return (p.strike * math.exp(-p.rate * t) * norm_cdf(-d2)
            - spot * math.exp(-p.dividend * t) * norm_cdf(-d1))


def binomial_american_put(steps: int, spot: float, p: MarketParams) -> float:
    """American put value from a Cox-Ross-Rubinstein tree.

    Uses u = exp(sigma sqrt(dt)), d = 1/u, risk-neutral probability
    (exp((r - delta) dt) - d) / (u - d), and backward induction with the
    early-exercise maximum applied at every node.

    Node values never rise with the spot, so those below ``_TAIL_CUTOFF * K``
    form an out-of-the-money tail at the top of each level.  The tail is set
    to an exact 0 and never updated again; the module docstring bounds what
    that does to the price.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    _require_spot(spot)
    dt = p.expiry / steps
    u = math.exp(p.volatility * math.sqrt(dt))
    d = 1.0 / u
    growth = math.exp((p.rate - p.dividend) * dt)
    q = (growth - d) / (u - d)
    if not 0.0 < q < 1.0:
        raise ConfigurationError(
            f"risk-neutral probability {q:.6f} outside (0, 1); "
            f"reduce the step size relative to the volatility")
    disc = math.exp(-p.rate * dt)
    qu, qd = disc * q, disc * (1.0 - q)
    cutoff = _TAIL_CUTOFF * p.strike

    # payoff K - spot * u^k for k = -steps..steps; level i uses every other
    # entry from k = -i, node j (j up-moves) at k = 2j - i
    payoff = p.strike - spot * np.exp(p.volatility * math.sqrt(dt)
                                      * np.arange(-steps, steps + 1))
    values = np.maximum(payoff[0::2], 0.0)
    live = _drop_tail(values, steps + 1, cutoff)
    scratch = np.empty(steps)
    for i in range(steps - 1, -1, -1):
        # qd v[j] + qu v[j+1] in place; v[live] is 0 or the top node of level i+1
        live = min(live, i + 1)
        head, up = values[:live], scratch[:live]
        np.multiply(values[1:live + 1], qu, out=up)
        np.multiply(head, qd, out=head)
        np.add(head, up, out=head)
        np.maximum(head, payoff[steps - i: steps - i + 2 * live: 2], out=head)
        live = _drop_tail(values, live, cutoff)
    return float(values[0])


def _drop_tail(values: np.ndarray, live: int, cutoff: float) -> int:
    """Zero the top nodes of ``values[:live]`` that lie below ``cutoff``; return
    the count left."""
    while live and values[live - 1] < cutoff:
        live -= 1
        values[live] = 0.0
    return live
