"""Early-exercise boundary of an American put by sequential Newton time-stepping.

The boundary solves a weakly singular Volterra integral equation in the
time-to-expiry variable t (t = 0 is expiry).  Collocating on the
equidistant grid t_i = i T / n and interpolating the smooth kernel factor
with a barycentric rational basis turns the equation into a
lower-triangular nonlinear system: row i involves only B_0..B_i, so each
B_i is found by a safeguarded scalar Newton iteration given its
predecessors.  The i = 0 row is singular and B_0 is its expiry limit;
``_start_weights`` states where Newton starts each later row.

The equation's smooth part (a normal-CDF kernel) takes interpolatory
quadrature; every dividend term carries a factor delta, so at delta = 0 it
is skipped.  A hybrid mode (``hybrid_m``) fills interior nodes by linear
interpolation.  One row builder, called the same way, serves the solve
and its certificate; Kim's (1990) discretization of the value-matching
equation, an independent cross-check, is kept with the tests.

A row eval returns F and its exact slope dF/db from the same arrays, the
slope unused when F meets the tolerance.  The identity y e^(-r tau) phi(d2) =
x e^(-delta tau) phi(d1) cancels the two scalar phi terms at t_i and merges
the two exponential kernels into (r K - delta B_j) e^(-r tau_j) phi(d2_j).
Rows are arrays of length i <= n, timed by numpy's cost per call, so factors
of tau alone are lag tables, ln B_j and r K - delta B_j running arrays, and
constants of h alone are computed once per solve.

Weight row i on spacing h is sqrt(h) (product) or h (quadrature) times the
row on the unit nodes 0..i, so the solve reads rows 1..n of
``quadrature.unit_weight_rows(n, d, alpha)``, Berrut's basis being order 0;
that cached table serves every horizon and pricing.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy.special import ndtr

from . import barycentric  # the benchmark tracer wraps basis_matrix in its own module
from .barycentric import BaryBasis
from .market import ConfigurationError, MarketParams
# the benchmark tracer wraps product_weights and brq_weights in this module
from .quadrature import brq_weights, product_weights, unit_weight_rows  # noqa: F401

__all__ = [
    "FH",
    "BFH",
    "SolverError",
    "SolverConfig",
    "SolveDiagnostics",
    "BoundaryCurve",
    "initial_boundary",
    "perpetual_lower_bound",
    "solve_boundary",
    "eval_boundary",
    "collocation_residuals",
    "clear_weight_cache",
]

FH = "fh"
BFH = "bfh"

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NEWTON_MAX_ITER = 50
_SQRT_START = 5  # first row with two same-parity predecessors after B_0


class SolverError(RuntimeError):
    """Newton failed to reach the residual tolerance at some collocation row."""


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and iteration controls for a boundary solve.

    ``n`` counts the Newton grid subintervals (nodes t_i = i T / n,
    i = 0..n).  With ``hybrid_m = m`` the solved curve is filled by linear
    interpolation to n (m - 1) stored subintervals, i.e. m - 2 interior
    points per Newton interval; the default ``hybrid_m = 2`` adds none.

    ``family`` selects the kernel-interpolation basis: "fh" uses the
    Floater-Hormann weights of order ``d`` throughout, "bfh" uses order-0
    Floater-Hormann (Berrut) weights inside the singular product weights
    and Floater-Hormann weights of order ``d`` for the smooth-term
    quadrature and the final curve.

    ``newton_tol`` is a class constant, not a field: each row is solved to
    |F| <= newton_tol * K.
    """

    n: int
    d: int
    family: str = FH
    hybrid_m: int = 2
    newton_tol: ClassVar[float] = 1e-12

    def __post_init__(self) -> None:
        for name in ("n", "d", "hybrid_m"):
            if not isinstance(v := getattr(self, name), numbers.Integral) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.d < 0:
            raise ValueError(f"d must be >= 0, got {self.d}")
        if self.n < self.d + 1:
            raise ValueError(f"need n >= d + 1, got n={self.n}, d={self.d}")
        if self.family not in (FH, BFH):
            raise ValueError(f"family must be '{FH}' or '{BFH}', got {self.family!r}")
        if self.hybrid_m < 2:
            raise ValueError(f"hybrid_m must be >= 2, got {self.hybrid_m}")


@dataclass(frozen=True)
class SolveDiagnostics:
    """Per-Newton-row residual eval counts (read-only), quality flags and wall time.

    ``iterations[i]`` counts row i's residual evals: one per Newton step, one more for an
    iterate accepted on an eval (not for one the curvature bound proves) and, on a bisection
    fallback, its two bracket ends and one per step; ``newton_steps`` counts the evals before it.
    Derived, not stored: ``residual_evals`` (their sum), ``bisections`` (the rows that fell back).

    ``flags`` lists the solved rows to look at, in row order, as
    ``(row, kind, value)``: "bisection", the row fell back to bisection
    (value: its residual evals); "non_monotone", B_i rose above B_(i-1) by
    more than 1e-9 K (value: the rise); "outside_bounds", B_i lies below the
    perpetual bound (value: B_i; one above B_0 raises).  A clean solve has none.
    """

    iterations: np.ndarray
    newton_steps: int
    flags: tuple[tuple[int, str, float], ...]
    wall_time: float
    weights_s: float  # part of wall_time in the set-up: weight, lag, start and curvature tables
    newton_s: float  # part of wall_time spent in the Newton row loop
    weights_cached: bool  # True when no weight table had to be built

    @property
    def residual_evals(self) -> int:
        return int(self.iterations.sum())

    @property
    def bisections(self) -> int:
        return sum(kind == "bisection" for _, kind, _ in self.flags)


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """Read-only solved boundary values on a grid, evaluable on [0, T]; equal only to itself."""

    values: np.ndarray
    basis: BaryBasis
    params: MarketParams
    config: SolverConfig
    diagnostics: SolveDiagnostics

    @property
    def grid(self) -> np.ndarray:
        """The stored nodes: the read-only ``basis.nodes`` itself."""
        return self.basis.nodes


def initial_boundary(p: MarketParams) -> float:
    """Boundary limit at expiry: K when delta <= r, else (r/delta) K."""
    if p.dividend <= p.rate:
        return p.strike
    return (p.rate / p.dividend) * p.strike


def perpetual_lower_bound(p: MarketParams) -> float:
    """Time-independent lower bound theta K / (theta - 1) from the perpetual put.

    theta is the negative root of the quadratic exponent equation (a market
    where it is not finite and negative is rejected); r = 0 gives a zero bound.
    """
    if p.rate == 0.0:
        return 0.0
    theta = _perpetual_exponent(p)
    return theta * p.strike / (theta - 1.0)


def _perpetual_exponent(p: MarketParams) -> float:
    var = p.volatility**2  # 0.0 for sigma below about 1.6e-162
    mu = p.rate - p.dividend - 0.5 * var
    theta = (-mu - math.sqrt(mu * mu + 2.0 * var * p.rate)) / var if var > 0.0 else math.nan
    if not -math.inf < theta < 0.0:  # theta rounds to 0 when r is tiny next to mu^2
        raise ConfigurationError(f"perpetual-put exponent {theta!r} is not finite and negative")
    return theta


def clear_weight_cache() -> None:
    """Drop the cached unit weight tables (per-row lag sums included) and start weights."""
    unit_weight_rows.cache_clear()
    _start_weights.cache_clear()


@lru_cache(maxsize=None)
def _start_weights(n: int) -> np.ndarray:
    """Read-only start weights of rows _SQRT_START..n, row i at index i - _SQRT_START.

    Newton starts rows 1..4 from B_(i-1), next to the expiry singularity.
    Row i >= 5 extrapolates B_(i-2k), ..., B_(i-2), k = min(5, (i - 1) // 2),
    to t_i by the polynomial of degree k - 1 in u = sqrt(t) through them; its
    weights fill the last k of 5 columns.  The fit never goes through the
    singular B_0 nor across parities: the nodes carry a period-2 mode of the
    product rows that such a fit amplifies, and near expiry the boundary
    moves as sqrt(t |ln t|).  On t_j = j h the nodes are sqrt(j h), so h
    cancels and the barycentric weights of nodes sqrt(j) serve."""
    rows = np.arange(_SQRT_START, n + 1)[:, None]
    nodes = rows - np.arange(10, 0, -2)
    used = nodes >= 1
    u = np.sqrt(np.maximum(nodes, 1))
    gaps = u[:, :, None] - u[:, None, :]
    gaps[~(used[:, :, None] & used[:, None, :])] = 1.0
    gaps[:, range(5), range(5)] = 1.0
    c = used / (gaps.prod(axis=2) * (np.sqrt(rows) - u))
    c /= c.sum(axis=1, keepdims=True)
    c.setflags(write=False)
    return c


def _newton_scalar(row, x0: float, lo: float, hi: float, tol_abs: float, step: int,
                   curv=(math.inf,) * 3, scale: float = 1.0) -> tuple[float, int, float, int]:
    """Safeguarded scalar Newton on row(b) -> (F, dF/db) in [lo, hi], bisection fallback.

    One row call per residual eval; the bracket ends and bisection read its F alone.
    A step from b to b' leaves |F(b')| <= M (b' - b)^2 / 2, M bounding |F''| between
    them (Taylor).  With curv = (c2, c1, noise) from ``_row_residual``, b' is
    returned unevaluated when that plus noise is <= tol_abs / 4, its |F| read as
    that sum plus 3/4 tol_abs; the default curv, or a product that overflows to inf,
    proves nothing.  The start x0 is clamped into [lo, hi].  A step that is not finite
    or leaves [lo, hi], or _NEWTON_MAX_ITER steps, fall back to bisecting the same
    [lo, hi] until |F| <= tol_abs or the bracket is two adjacent doubles.  Returns
    (root, residual evals, |F|, Newton steps); fewer steps than evals means a fallback.
    A SolverError prints its interval and residual times ``scale``, in the caller's units.
    """
    c2, c1, noise = curv
    b = min(max(float(x0), lo), hi)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        fb, df = row(b)
        if abs(fb) <= tol_abs:
            return b, it, abs(fb), it
        nxt = b - fb / df if df != 0.0 else float("nan")
        if not lo <= nxt <= hi:
            break
        low = min(b, nxt)
        if (bound := 0.5 * (c2 / low + c1) / low * (nxt - b) * (nxt - b) + noise) <= 0.25 * tol_abs:
            return nxt, it, bound + 0.75 * tol_abs, it
        b = nxt
    evals = it + 2
    f_lo, f_hi = row(lo)[0], row(hi)[0]
    for b, fb in ((lo, f_lo), (hi, f_hi)):
        if abs(fb) <= tol_abs:
            return b, evals, abs(fb), it
    if f_lo * f_hi > 0.0:
        raise SolverError(f"no sign change on [{lo * scale:.6g}, {hi * scale:.6g}] at collocation "
                          f"row {step}, min |F| {min(abs(f_lo), abs(f_hi)) * scale:.3e}")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        evals += 1
        f_mid = row(mid)[0]
        if abs(f_mid) <= tol_abs:
            return mid, evals, abs(f_mid), it
        if f_lo * f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    raise SolverError(f"bisection stalled at row {step} with residual "
                      f"{min(abs(f_lo), abs(f_hi)) * scale:.3e}")


def _strike_scale(strike: float) -> float:
    """The power of two s with K / s in [1, 2): the rows' scale.  A subnormal K raises."""
    if strike < 2.0 ** -1022:  # sys.float_info.min; below it the nodes, times s, lose bits
        raise ConfigurationError(f"strike {strike!r} is subnormal, below {2.0 ** -1022!r}")
    return 2.0 ** (math.frexp(strike)[1] - 1)


def _row_residual(cfg: SolverConfig, p: MarketParams):
    """Grid, (s, lower, b0, lo, hi), per-row curv and row builder on cfg.n intervals.

    The rows solve the strike K / s in [1, 2), s = :func:`_strike_scale` (K): the equation is
    homogeneous of degree one in (K, B, S), and a power of two scales it exactly.  Every value
    here, b, F and dF/db included, is on that scale; times s it is in K's units.  ``lower`` is
    the perpetual bound, ``b0`` the expiry limit and [lo, hi] the Newton search interval.
    ``curv[i - 1]`` = (c2, c1, noise) bounds row i: |F_i''(b)| <= (c2 / b + c1) / b, b > 0, from
    max |(1 - x^2) e^(-x^2/2)| = 1, max phi, max |x phi(x)|, e^(-r tau) and e^(-delta tau) <= 1,
    |r K - delta B| on [lo, hi] and the unit table's per-row lag sums of |W[i, i - l]| l^(-k/2),
    times (sigma sqrt h)^(-k), k = 1, 2.  ``noise`` estimates F_i's rounding: a d argument splits
    ln b / sigma_l off, sigma_l = sigma sqrt(l h), and so carries about eps |ln b| / sigma_l.

    build_row(i, prior, log_prior, rk) gives row i of the product-integrated boundary
    equation from B_0..B_(i-1) in ``prior``, their math.log values in ``log_prior``
    (np.log can differ by an ulp) and r K - delta B_j in ``rk``; the stateless row(b)
    returns (F, dF/db), F its residual, to the solve and the certificate alike.
    tau_ij = t_(i-j), so row i views the last i entries of the lag tables over lags
    n..1; its t_i scalars come from per-solve lists.  The terms free of b are products
    of their slices, built once per row, and d2_j = ln(b) / (sigma sqrt(tau_j)) + a2_j
    leaves b only in ln(b).  So an eval costs a few array ops of length i, with
    ``ndarray.dot`` (cheaper per call than ``@``, same bits) and Python-float scalars.
    The phi identity of the module docstring has already cancelled the scalar phi
    terms and merged the two kernels; the dividend terms vanish at delta = 0
    and are skipped.  Weight rows are unit-spacing: sqrt(h) is folded into
    ``pref`` and the kernel's lag table, h into ``delta_h``, both once per solve.
    """
    s = _strike_scale(p.strike)
    p = replace(p, strike=p.strike / s)
    grid, h = np.linspace(0.0, p.expiry, cfg.n + 1), p.expiry / cfg.n
    r, delta, vol = p.rate, p.dividend, p.volatility
    pref, delta_h, r_k = math.sqrt(h) / (vol * _SQRT_2PI), delta * h, r * p.strike
    tau = grid[:0:-1]
    sig_tau = vol * np.sqrt(tau)
    inv_sig_tau = 1.0 / sig_tau
    disc_r = np.exp(-r * tau)
    drift = (r - delta - 0.5 * vol * vol) * tau * inv_sig_tau
    a1 = ((r - delta + 0.5 * vol * vol) * tau - math.log(p.strike)) * inv_sig_tau
    kern_lag, disc_d = pref * disc_r, np.exp(-delta * tau)
    slope_lag = disc_r * inv_sig_tau / _SQRT_2PI
    sig_ts, a1_ts, disc_ts = sig_tau.tolist(), a1.tolist(), disc_d.tolist()
    w_rows, w_sums = unit_weight_rows(cfg.n, cfg.d if cfg.family == FH else 0, 0.5)
    # coincident node: d1, d2 -> 0 as the time gap vanishes with equal arguments
    coincident_w = (pref * w_rows.diagonal()).tolist()
    lower, b0 = perpetual_lower_bound(p), initial_boundary(p)
    lo, hi = 0.5 * lower, b0 + 0.5 * (b0 - lower)
    inv_sig, phi, e_half = inv_sig_tau[::-1], 1.0 / _SQRT_2PI, math.exp(-0.5)
    with np.errstate(over="ignore"):  # below sigma ~ 1e-154 the bounds are inf and prove nothing
        lag_sig = inv_sig[0] ** np.arange(1.0, 3.0)  # 1 / sigma_l = l^(-1/2) / (sigma sqrt h)
        s1, s2 = (max(abs(r_k - delta * x) for x in (lo, hi)) * pref * w_sums * lag_sig).T
        disc = disc_d[::-1] * phi * inv_sig
        c2, c1, noise = s2 + e_half * s1, disc * (1.0 + e_half * inv_sig), e_half * s1 + hi * disc
        if delta > 0.0:
            q_rows, q_sums = unit_weight_rows(cfg.n, cfg.d, 0.0)
            halves = (0.5 * q_rows.diagonal()).tolist()
            q1, q2 = (delta_h * phi * q_sums * lag_sig).T
            c1, noise = c1 + q1 + e_half * q2, noise + hi * q1
        noise *= 2.0 ** -51 * max(abs(math.log(lo)), abs(math.log(hi)), 1.0)  # 2 eps |ln b|
    curv = list(zip(c2.tolist(), c1.tolist(), noise.tolist()))

    def build_row(i: int, prior: np.ndarray, log_prior: np.ndarray, rk: np.ndarray):
        k = cfg.n - i
        inv_sig, sig_t, a1_t, disc_t, coincident = \
            inv_sig_tau[k:], sig_ts[k], a1_ts[k], disc_ts[k], coincident_w[i]
        a2 = drift[k:] - log_prior * inv_sig
        kern = w_rows[i, :i] * rk * kern_lag[k:]
        kern_slope = kern * inv_sig
        if delta > 0.0:
            q_row, sig_row, half = q_rows[i, :i], sig_tau[k:], halves[i]
            smooth = q_row * disc_d[k:]
            smooth_slope = q_row * prior * slope_lag[k:]

        def row(b: float) -> tuple[float, float]:
            log_b = math.log(b)
            d1_t = log_b / sig_t + a1_t
            cdf_t = float(ndtr(d1_t))
            d2 = log_b * inv_sig + a2
            e = np.exp(-0.5 * d2 * d2)
            f = -b * disc_t * cdf_t + float(kern.dot(e)) + coincident * (r_k - delta * b)
            df = (-disc_t * (cdf_t + math.exp(-0.5 * d1_t * d1_t) / (_SQRT_2PI * sig_t))
                  - float(kern_slope.dot(e * d2)) / b - coincident * delta)
            if delta > 0.0:
                s = float(smooth.dot(ndtr(d2 + sig_row))) + half
                f -= delta_h * b * s
                df -= delta_h * (s + float(smooth_slope.dot(e)) / b)
            return f, df

        return row

    return grid, (s, lower, b0, lo, hi), curv, build_row


def solve_boundary(cfg: SolverConfig, p: MarketParams) -> BoundaryCurve:
    """Solve the collocated boundary equations row by row on t_i = i T / n.

    B_0 takes its analytic expiry limit and each later B_i solves its scalar collocation
    equation given B_0..B_{i-1} (the Volterra structure is lower triangular) by Newton in
    [lower / 2, B_0 + (B_0 - lower) / 2], lower the perpetual bound: the discrete nodes of
    delta > r markets can dip below it, and ``diagnostics.flags`` names every node below it.
    A node above B_0 (1 + 1e-9) raises SolverError: the grid is too coarse for the market.
    Each row's Newton start is as in :func:`_start_weights`.  ``cfg.hybrid_m`` fills the
    curve by linear interpolation (see :class:`SolverConfig`); the returned curve carries a
    Floater-Hormann basis of order d on its stored nodes for evaluation between them.  The
    rows solve the strike K / s in [1, 2) (:func:`_strike_scale`); the values, the flag
    values and a SolverError's message are times s, in K's units.
    """
    if p.rate == 0.0:
        raise ValueError("rate = 0 makes early exercise worthless; "
                         "the boundary equation degenerates")
    n, start, builds = cfg.n, time.perf_counter(), unit_weight_rows.cache_info().misses
    grid, (s, lower, b0, lo, hi), curv, build_row = _row_residual(cfg, p)
    start_w, unit, delta = _start_weights(n), p.strike / s, p.dividend
    tol, b_max, rise, r_unit = cfg.newton_tol * unit, b0 * (1.0 + 1e-9), 1e-9 * unit, p.rate * unit
    weights_s = time.perf_counter() - start
    values, logs, rks = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    values[0], logs[0], rks[0] = b0, math.log(b0), r_unit - delta * b0
    iterations, flags, prev = [0], [], b0
    newton_steps, newton_start = 0, time.perf_counter()
    with np.errstate(over="ignore"):  # below sigma ~ 1e-154 d2 * d2 is inf: e = 0, its limit
        for i in range(1, n + 1):
            if i >= _SQRT_START:
                k = min(5, (i - 1) // 2)
                guess = float(start_w[i - _SQRT_START, 5 - k:].dot(values[i - 2 * k:i - 1:2]))
            else:
                guess = prev
            b, evals, _, steps = _newton_scalar(build_row(i, values[:i], logs[:i], rks[:i]),
                                                guess, lo, hi, tol, i, curv[i - 1], s)
            if b > b_max:
                raise SolverError(f"collocation row {i} reads {b * s:.6g}, above the expiry limit "
                                  f"{b0 * s:.6g}: n = {n} is too coarse a grid for this market")
            if steps < evals:
                flags.append((i, "bisection", float(evals)))
            if b - prev > rise:
                flags.append((i, "non_monotone", (b - prev) * s))
            if b < lower:
                flags.append((i, "outside_bounds", b * s))
            iterations.append(evals)
            newton_steps += steps
            values[i], logs[i], rks[i], prev = b, math.log(b), r_unit - delta * b, b
    newton_s = time.perf_counter() - newton_start
    if cfg.hybrid_m > 2:
        fine = np.linspace(0.0, p.expiry, n * (cfg.hybrid_m - 1) + 1)
        grid, values = fine, np.interp(fine, grid, values)
    values *= s
    values.setflags(write=False)
    diag = SolveDiagnostics(iterations=np.array(iterations), newton_steps=newton_steps,
                            flags=tuple(flags), wall_time=time.perf_counter() - start,
                            weights_s=weights_s, newton_s=newton_s,
                            weights_cached=unit_weight_rows.cache_info().misses == builds)
    diag.iterations.setflags(write=False)
    return BoundaryCurve(values=values, basis=BaryBasis(grid, cfg.d),
                         params=p, config=cfg, diagnostics=diag)


def eval_boundary(curve: BoundaryCurve, t):
    """Evaluate the solved boundary at time-to-expiry t in [0, T].

    The barycentric interpolant ``basis_matrix(curve.basis, t) @ curve.values``, read on K / s
    (:func:`_strike_scale`), is exact at the nodes; off them a value repeats bit for bit only in
    the same call layout, as BLAS may sum its row in another order beside other points (an ulp at
    t = 1.375, Table-3 market, n = 16).  A scalar or 0-d ``t`` gives a float, a 1-D ``t`` an array
    of its length; ``basis_matrix`` rejects other shapes.  A read <= 0 raises ConfigurationError.
    """
    T, s = curve.params.expiry, _strike_scale(curve.params.strike)
    tol = 1e-12 * T
    t_arr = np.asarray(t, dtype=float)
    # a NaN makes both NaN; the initial values let an empty t through, as before
    lo, hi = t_arr.min(initial=math.inf), t_arr.max(initial=-math.inf)
    if not (lo >= -tol and hi <= T + tol):
        raise ValueError(f"t must lie in [0, {T}], got {t!r}")
    ts = np.clip(t_arr, 0.0, T) if lo < 0.0 or hi > T else t_arr  # np.clip costs more
    ys = s * barycentric.basis_matrix(curve.basis, ts).dot(curve.values / s)
    if not (low := ys.min(initial=math.inf)) > 0.0:  # a steep first step can dip below 0
        raise ConfigurationError(f"boundary reads {low:.6g} <= 0 on t in [{lo:.6g}, {hi:.6g}]")
    return float(ys[0]) if t_arr.ndim == 0 else ys


def collocation_residuals(curve: BoundaryCurve) -> np.ndarray:
    """Re-evaluate every collocation equation at the solved values.

    Returns |F_i(B_i)| for i = 1..n (index 0 is the assigned expiry limit);
    this is the residual certificate for an accepted solve.  The solve's rows, read at
    values / s, give times s Newton's eval-accepted |F| bit for bit (:func:`_row_residual`).
    """
    cfg, p = curve.config, curve.params
    if cfg.hybrid_m > 2:
        raise ValueError("residual certificate applies to plain solves only; "
                         "hybrid interior nodes are interpolated, not collocated")
    _, (s, *_), _, build_row = _row_residual(cfg, p)
    values = curve.values / s
    logs = np.array([math.log(b) for b in values])
    rks = p.rate * (p.strike / s) - p.dividend * values
    return s * np.array([abs(build_row(i, values[:i], logs[:i], rks[:i])(values[i])[0])
                         for i in range(1, cfg.n + 1)])
