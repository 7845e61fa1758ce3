"""Market data, Black-Scholes primitives, and a CRR binomial oracle.

``european_put`` is the one scalar Black-Scholes formula, through the
private ``_d1d2`` (a plain (d1, d2) tuple); the array d1/d2 along a boundary
lives in the boundary solver, and the premium's in ``pricing._premium_factors``.
Every normal CDF of the package is ``scipy.special.ndtr``.

The binomial tree prices a batch of spots at once; ``binomial_american_put``
gives its layout, the nodes it skips, which leave 4.25e6 of the 3.40e7 nodes
worth at least 1e-290 K (12.5%) to update in the Table-3 BIN(10000) tree at
S = 100, and its per-spot pass on two levels in every 32.

Everything here is a pure function of its inputs; there is no shared
mutable state, so concurrent use is safe.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = [
    "ConfigurationError",
    "MarketParams",
    "european_put",
    "binomial_american_put",
]

# A tree node is dropped as an exact zero below the larger of these fractions of
# the strike and of its spot's price floor (see _price_floors).
_TAIL_CUTOFF = 1e-290
_TAIL_SHARE = 2.0 ** -110
# A node whose children are both exercised keeps its payoff when its exercise
# gap exceeds this fraction of the strike (proof in binomial_american_put).
_EXERCISE_MARGIN = 1e-12
# The tree's per-spot pass runs on two consecutive levels in every _PASS_EVERY (>= 3).
_PASS_EVERY = 32


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


def _d1d2(x: float, t: float, y: float, p: MarketParams) -> tuple[float, float]:
    """d1 = [ln(x/y) + (r - delta + sigma^2/2) t] / (sigma sqrt(t)), d2 = d1 - sigma sqrt(t).

    Returns the plain tuple (d1, d2).  Callers pass x > 0, y > 0 and t > 0
    (``european_put`` checks x and t, ``MarketParams`` K); the t -> 0 limits
    are handled by the kernel routines in the boundary solver, not here.
    """
    sig_sqrt_t = p.volatility * math.sqrt(t)
    d1 = (math.log(x / y) + (p.rate - p.dividend + 0.5 * p.volatility**2) * t) / sig_sqrt_t
    return d1, d1 - sig_sqrt_t


def _require_spot(spot: float) -> None:
    if not (math.isfinite(spot) and spot > 0.0):
        raise ValueError(f"spot must be finite and > 0, got {spot!r}")


def _require_spots(spot: float | Sequence[float]) -> float | list[float]:
    """A number as a float, or a non-empty 1-D sequence as a list of floats, each finite and > 0."""
    values = float(spot) if isinstance(spot, float) else np.asarray(spot, dtype=float).tolist()
    if not (0.0 < values < math.inf if isinstance(values, float)
            else values and all(isinstance(x, float) and 0.0 < x < math.inf for x in values)):
        raise ValueError(f"spot must be finite and > 0 (one or a 1-D sequence), got {spot!r}")
    return values


def european_put(t: float, spot: float, p: MarketParams) -> float:
    """European put value at time-to-expiry t for the given spot.

    t = 0 returns the payoff max(K - spot, 0).
    """
    _require_spot(spot)
    if not 0.0 <= t < math.inf:  # NaN fails too
        raise ValueError(f"european_put requires a finite t >= 0, got {t}")
    if t == 0.0:
        return max(p.strike - spot, 0.0)
    d1, d2 = _d1d2(spot, t, p.strike, p)
    return (p.strike * math.exp(-p.rate * t) * float(ndtr(-d2))
            - spot * math.exp(-p.dividend * t) * float(ndtr(-d1)))


def _price_floors(steps: int, batch: np.ndarray, terminal: np.ndarray, q: float,
                  log_disc: float, strike: float) -> list[float]:
    """Per spot S, F = max(K - S, E / 2), a lower bound on its tree price.

    The root holds at least its payoff K - S, and an American value is at
    least the European value E of the same tree.  E is the binomial sum of
    C(N, j) qu^j qd^(N-j) (K - S u^(2j-N)) over the in-the-money terminal
    nodes (``terminal`` holds u^(2j-N), j = 0..N), each term formed in log
    space as log C(N, j) + j log q + (N - j) log(1 - q) + N log_disc, finite
    even where the discount underflows, with log C(N, j) a cumulative sum of
    log((N-j+1)/j).  Its rounding, about 1e-11 relative at N = 10,000, is far
    inside the halving; terms that underflow drop out, which only lowers the
    bound.
    """
    j = np.arange(steps + 1.0)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((steps + 1 - j[1:]) / j[1:]))))
    log_weights = (log_binom + j * math.log(q) + (steps - j) * math.log(1.0 - q)
                   + steps * log_disc)
    floors = []
    for s in batch.reshape(-1).tolist():
        pay = strike - s * terminal
        itm = np.count_nonzero(pay > 0.0)  # the payoff falls as j rises
        european = float(np.exp(log_weights[:itm] + np.log(pay[:itm])).sum())
        floors.append(max(strike - s, 0.5 * european))
    return floors


def binomial_american_put(steps: int, spot: float | Sequence[float],
                          p: MarketParams) -> float | list[float]:
    """American put values from one Cox-Ross-Rubinstein tree for all spots.

    ``spot`` is a number, which gives a float, or a non-empty 1-D sequence,
    which gives a list of floats in its order, each with the bits of a call
    for that spot alone.  Uses u = exp(sigma sqrt(dt)), d = 1/u, risk-neutral
    probability (exp((r - delta) dt) - d) / (u - d), and backward induction
    with the early-exercise maximum applied at every node.  ``steps`` must be
    an integer >= 1.

    Node values are kept by ladder index k (spot u^k) in two flat arrays, one
    per parity of k, with slot m of spot s at entry m * ns + s; a level reads
    the array its children wrote and writes the other one, in one block over
    the union of its spots' windows.  There a spot's nodes below its own
    window get their payoff bits again, by the prefix proof, and those above
    it an exact 0, as their children are 0 and their payoff is <= 0.  The
    exercise maximum stops at the first slot from which every spot's payoff
    K - S is < 0 (it falls as the slot rises): there the continuation
    qd a + qu b, with qd, qu > 0 and values >= 0, is >= 0 > K - S, so the
    maximum would return its bits.  Then, on two consecutive levels in every
    ``_PASS_EVERY`` = 32, one pass over the spots trims each one's tail, scans
    its exercised run and sets its window for the next level; it reads and
    writes single entries through memoryviews, as Python floats, since a
    numpy scalar costs about twice as much.

    Pass schedule.  The levels between passes make no per-spot loop: each
    top rises by the level's shift, capped by the triangle, as when no node
    is dropped, so it still bounds every nonzero node; each start falls by
    the lift.  The skip rule min(start - lift, ex_kid) needs its inputs only
    to be skip bounds, every node below one holding its payoff and being
    gap-safe, and after a pass its first term is the smaller at every level,
    so a carried start is the rule's own value.  The first level of a pair
    rebuilds each window by the shifts since the last pass and takes as
    ex_kid the start carried to the level before, not an older scan, which
    need not bound a later run; the second takes the first's scan, so the
    pair resets each start to its run (one pass alone let the starts drift
    down: 3.4 times the values per level).

    Exercised prefix.  A node at spot S whose two children hold exactly
    their exercise values a = K - S/u and b = K - S u keeps its stored payoff
    K - S when the gap K (1 - e^(-r dt)) - S (1 - e^(-delta dt)) exceeds
    ``_EXERCISE_MARGIN * K`` = 1e-12 K.  Proof: since q u + (1 - q)/u =
    e^((r - delta) dt), the continuation qd a + qu b equals
    K e^(-r dt) - S e^(-delta dt), which lies that gap below K - S.  In
    floating point the ladder's exponent k sigma sqrt(dt) rounds by up to
    |ln(S / spot)| ulp of S; as S u <= K (the up child is exercised, and
    values are >= 0) that is below |ln(K / spot)| + 1 ulp of K, at most about
    1,500 ulp of K for any two doubles.  The two products and their sum, q,
    the discount, the payoffs and the computed gap itself add a few tens of
    ulp of K, as a, b, S <= K.  The margin is about 4,500 ulp of K, so the
    computed continuation stays below K - S and the maximum returns the
    payoff's bits.  The gap falls as S rises, so the nodes where it exceeds
    the margin form a prefix of the ladder; at r = 0 it is <= 0 and nothing
    is skipped.  A node is skipped only when the entries its children hold
    and its own entry are their payoffs, so the skip relies on no
    monotonicity of the computed tree.

    Out-of-the-money tail.  Each spot drops the nodes worth less than its
    cut max(1e-290 K, 2^-110 F), with F its price floor (``_price_floors``),
    which is at most its tree price.  Node values never rise with the spot,
    so the dropped nodes form a tail at the top of each level, which is set
    to an exact 0 and never updated again.  Drops happen only at a pass, up
    to 32 levels late, but each node is dropped once, at a value below its
    cut.  Values are >= 0 and each node is qd v[j] + qu v[j+1], or its
    payoff, with qu + qd = exp(-r dt) <= 1, so one level's drops move each
    node nearer the root by less than the cut, and the price moves by less
    than (steps + 1) times the cut.  Where the
    floor sets the cut, that is below (steps + 1) 2^-110 of the price, about
    2^-97 at 10,000 steps and far below half an ulp, so the price keeps its
    bits; the tests hold it to the same bits as a full sweep of every node
    wherever the price is >= 1e-280 K, and to |change| <= 1e-290 K below.
    Without a cut, the Table-3 tree at S = 100 holds up to 1,202 subnormal
    values in a level, on which numpy arithmetic runs about 13 times slower.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    batch = np.asarray(_require_spots(spot))
    dt = p.expiry / steps
    u = math.exp(p.volatility * math.sqrt(dt))
    d = 1.0 / u
    growth = math.exp((p.rate - p.dividend) * dt)
    q = (growth - d) / (u - d) if u > d else math.nan  # u = d once sigma sqrt(dt) < an ulp
    if not 0.0 < q < 1.0:
        raise ConfigurationError(
            f"risk-neutral probability {q:.6f} outside (0, 1); "
            f"reduce the step size relative to the volatility")
    disc = math.exp(-p.rate * dt)
    qu, qd = disc * q, disc * (1.0 - q)

    def flat(mask):  # per spot s: m * ns + s, with m the number of its slots in mask
        return (np.count_nonzero(mask.reshape(-1, ns), axis=0) * ns + np.arange(ns)).tolist()
    ns = batch.size
    # spot u^k for k = -steps..steps; the node j of level i sits at k = 2j - i, in slot
    # (k + steps) // 2 of the arrays of parity (k + steps) % 2; slot m of spot s is m * ns + s
    ladder = np.exp(p.volatility * math.sqrt(dt) * np.arange(-steps, steps + 1))
    # each spot's tail cut; its floor's sums are done before the tree's arrays exist
    cuts = [max(_TAIL_CUTOFF * p.strike, _TAIL_SHARE * floor)
            for floor in _price_floors(steps, batch, ladder[::2], q, -p.rate * dt, p.strike)]
    spots = [np.outer(ladder[par::2], batch).reshape(-1) for par in (0, 1)]
    # gap_safe[par][s]: the slots of spot s below it have a gap above the margin
    gap_r, gap_d = p.strike * -math.expm1(-p.rate * dt), -math.expm1(-p.dividend * dt)
    gap_safe = [flat(gap_r - s * gap_d > _EXERCISE_MARGIN * p.strike) for s in spots]
    pays = [np.subtract(p.strike, s, out=s) for s in spots]  # no spot is used below
    paying = [flat(pay >= 0.0) for pay in pays]
    itm = [max(m) - max(m) % ns for m in paying]  # the first slot where every K - S < 0
    # exercised[par][s]: the slots of spot s from the first node of the level last
    # written to values[par] up to this one hold their payoff and are below gap_safe
    exercised = [[min(e, g) for e, g in zip(m, safe)] for m, safe in zip(paying, gap_safe)]
    values = [np.maximum(pay, 0.0) for pay in pays]
    cells, payoffs = [memoryview(v) for v in values], [memoryview(pay) for pay in pays]
    scratch = np.empty(steps * ns)
    qd0, qu0 = np.array(qd), np.array(qu)  # numpy converts a float operand on every call
    multiply, add, maximum = np.multiply, np.add, np.maximum
    ids, zeros = range(ns), memoryview(np.zeros(ns))
    levels = [(values[par], values[1 - par], pays[par], cells[par], payoffs[par],
               exercised[1 - par], exercised[par], gap_safe[par], itm[par],
               (1 - par) * ns, par * ns) for par in (0, 1)]
    # level steps - 1's windows, as the pass below sets them; the expiry level is dead from
    # its first value < its cut, as values never rise with k and a positive K - S is
    # >= 2^-54 K, above every cut
    first, above = 0, steps * ns
    tops = [min(dead, above + s) for s, dead in zip(ids, flat(values[0].reshape(-1, ns) >= cuts))]
    starts = [max(s, min(e - ns, own, top)) for s, e, own, top in zip(ids, *exercised, tops)]
    lo, hi = min(starts), max(tops)
    first_pass, above_pass = first, above
    for i in range(steps - 1, -1, -1):
        # level i writes parity par = (steps - i) % 2; slot m reads kids[m + par - 1], kids[m + par]
        v, kids, pay, cell, payoff, ex_kid, ex_own, safe, itm_par, lift, back = \
            levels[(steps - i) & 1]
        lo, hi = lo - lo % ns, hi - hi % ns
        down = lo - lift
        head, up = v[lo:hi], scratch[:hi - lo]
        multiply(kids[down: down + hi - lo], qd0, head)
        multiply(kids[down + ns: down + ns + hi - lo], qu0, up)
        add(head, up, head)
        cut = hi if hi < itm_par else itm_par
        if lo < cut:
            below = v[lo:cut]
            maximum(below, pay[lo:cut], out=below)
        if hi < above:
            cell[hi: hi + ns] = zeros  # the up children of level i - 1's top nodes
        nxt, nxt_above = first + back, above - lift  # level i - 1's first and above
        phase = (steps - i) % _PASS_EVERY
        if phase > 1:  # no pass: the windows move as far as one level can move them
            lo = lo - lift if lo - lift > nxt else nxt
            hi = hi + back if hi + back < nxt_above else nxt_above
            first, above = nxt, nxt_above
            continue
        if not phase:  # the windows carried since the last pass, and level i + 1's start
            rise, fall = first - first_pass, above_pass - above
            tops = [min(top + rise, above + s) for s, top in zip(ids, tops)]
            ex_kid[:] = [start - fall + back for start in starts]
            starts = [max(first + s, start - fall) for s, start in zip(ids, starts)]
        lo, hi = nxt_above, 0
        for s in ids:
            top, bottom = tops[s], first + s
            while top > bottom and cell[top - ns] < cuts[s]:
                top -= ns
                cell[top] = 0.0
            start = starts[s]
            stop = safe[s] if safe[s] < top else top
            while start < stop and cell[start] == payoff[start]:
                start += ns
            ex_own[s] = start
            # level i - 1's top node's up child is this dead slot; skip slot m while its
            # up child (whose gap is below m's) and m itself are in their exercised runs
            top = top + back if top + back < nxt_above + s else nxt_above + s
            start = start - lift if start - lift < ex_kid[s] else ex_kid[s]
            start = nxt + s if start < nxt + s else top if start > top else start
            tops[s], starts[s] = top, start
            if start < lo:
                lo = start
            if top > hi:
                hi = top
        first, above = first_pass, above_pass = nxt, nxt_above
    prices = values[steps & 1][(steps >> 1) * ns:][:ns]
    return float(prices[0]) if batch.ndim == 0 else prices.tolist()
