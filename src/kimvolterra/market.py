"""Market data, Black-Scholes primitives, and a CRR binomial oracle.

``d1d2`` (a plain (d1, d2) tuple) and ``european_put`` are the only scalar
Black-Scholes formulas: calls follow from put-call symmetry in the pricing
module, and the array d1/d2 and premium integrand along a boundary live in
the boundary solver.

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


def european_put(t: float, spot: float, p: MarketParams) -> float:
    """European put value at time-to-expiry t for the given spot.

    t = 0 returns the payoff max(K - spot, 0).
    """
    if spot <= 0.0:
        raise ValueError(f"european_put requires spot > 0, got {spot}")
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
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if spot <= 0.0:
        raise ValueError(f"binomial_american_put requires spot > 0, got {spot}")
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

    # price ladder spot * u^k for k = -steps..steps; level i uses every other entry
    ladder = spot * np.exp(p.volatility * math.sqrt(dt) * np.arange(-steps, steps + 1))
    values = np.maximum(p.strike - ladder[0::2], 0.0)
    for i in range(steps - 1, -1, -1):
        values = qu * values[1:] + qd * values[:-1]
        level = ladder[steps - i: steps + i + 1: 2]
        np.maximum(values, p.strike - level, out=values)
    return float(values[0])
