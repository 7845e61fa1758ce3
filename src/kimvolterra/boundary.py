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

Each row's residual returns its exact slope dF/db with its value, so a
Newton step costs one residual eval.  The identity y e^(-r tau) phi(d2) =
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
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy.special import ndtr

from . import barycentric  # the benchmark tracer wraps basis_matrix in its own module
from .barycentric import BaryBasis
from .market import MarketParams, norm_cdf
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

    def __init__(self, message: str, step: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        self.step = step
        self.residual = residual


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
    """Per-Newton-row residual eval counts and final residuals, plus wall time.

    ``iterations[i]`` counts row i's residual evals: one per Newton step,
    plus, on a row that fell back to bisection, its two bracket ends and
    one per bisection step; ``newton_steps`` counts the Newton steps alone.
    Derived, not stored: ``residual_evals`` (their sum), ``bisections`` (the rows that fell back).

    ``flags`` lists the solved rows to look at, in row order, as
    ``(row, kind, value)``: "bisection", the row fell back to bisection
    (value: its residual evals); "non_monotone", B_i rose above B_(i-1) by
    more than 1e-9 K (value: the rise); "outside_bounds", B_i lies below the
    perpetual bound or above B_0 (value: B_i).  A clean solve has none.
    """

    iterations: np.ndarray
    residuals: np.ndarray
    newton_steps: int
    flags: tuple[tuple[int, str, float], ...]
    wall_time: float
    weights_s: float  # part of wall_time in the row set-up: weight rows and lag tables
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
    """Solved boundary values on a grid, evaluable anywhere on [0, T]; equal only to itself."""

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

    theta is the negative root of the quadratic exponent equation; r = 0
    degenerates to a zero bound.
    """
    if p.rate == 0.0:
        return 0.0
    theta = _perpetual_exponent(p)
    return theta * p.strike / (theta - 1.0)


def _perpetual_exponent(p: MarketParams) -> float:
    mu = p.rate - p.dividend - 0.5 * p.volatility**2
    return (-mu - math.sqrt(mu * mu + 2.0 * p.volatility**2 * p.rate)) / p.volatility**2


def clear_weight_cache() -> None:
    """Drop the cached unit-spacing weight rows and start weights (used by timing studies)."""
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


def _newton_scalar(f, x0: float, lo: float, hi: float, tol_abs: float,
                   step: int) -> tuple[float, int, float, int]:
    """Safeguarded scalar Newton on f(b) = (F, dF/db) in [lo, hi], bisection fallback.

    The start x0 is clamped into [lo, hi].  A step that is not finite or
    leaves [lo, hi], or _NEWTON_MAX_ITER steps, fall back to bisecting the
    same [lo, hi] until |F| <= tol_abs or the bracket is two adjacent doubles.
    Returns (root, residual evals, |F|, Newton steps); fewer steps than evals
    means a fallback.
    """
    b = min(max(float(x0), lo), hi)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        fb, slope = f(b)
        if abs(fb) <= tol_abs:
            return b, it, abs(fb), it
        nxt = b - fb / slope if slope != 0.0 else float("nan")
        if not lo <= nxt <= hi:
            break
        b = nxt
    evals = it + 2
    f_lo, f_hi = f(lo)[0], f(hi)[0]
    for b, fb in ((lo, f_lo), (hi, f_hi)):
        if abs(fb) <= tol_abs:
            return b, evals, abs(fb), it
    if f_lo * f_hi > 0.0:
        raise SolverError(
            f"no sign change on [{lo:.6g}, {hi:.6g}] at collocation row {step}",
            step=step, residual=min(abs(f_lo), abs(f_hi)))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        evals += 1
        f_mid = f(mid)[0]
        if abs(f_mid) <= tol_abs:
            return mid, evals, abs(f_mid), it
        if f_lo * f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    residual = min(abs(f_lo), abs(f_hi))
    raise SolverError(f"bisection stalled at row {step} with residual {residual:.3e}",
                      step=step, residual=residual)


def _row_residual(cfg: SolverConfig, p: MarketParams):
    """Grid and row builder (i, prior, log_prior, rk) -> (b -> (F(b), dF/db)) on cfg.n intervals.

    Row i of the product-integrated boundary equation takes B_0..B_(i-1) in
    ``prior``, their math.log values in ``log_prior`` (np.log can differ by an
    ulp) and r K - delta B_j in ``rk``.  tau_ij = t_(i-j), so row i views the
    last i columns of the seven tables over lags n..1 (column 0 also serves
    t_i).  The terms free of b are products of their slices, built once per
    row, and d2_j = ln(b) / (sigma sqrt(tau_j)) + a2_j leaves b only in ln(b).
    So an eval costs a few array ops of length i, with ``ndarray.dot``
    (cheaper per call than ``@``, same bits) and Python-float scalars.  The
    phi identity of the module docstring has already cancelled the scalar phi
    terms and merged the two kernels; the dividend terms vanish at delta = 0
    and are skipped.  Weight rows are unit-spacing: sqrt(h) is folded into
    ``pref`` and the kernel's lag table, h into ``delta_h``, both once per solve.
    """
    grid = np.linspace(0.0, p.expiry, cfg.n + 1)
    h = p.expiry / cfg.n
    r, delta, vol = p.rate, p.dividend, p.volatility
    pref, delta_h, r_k = math.sqrt(h) / (vol * _SQRT_2PI), delta * h, r * p.strike
    tau = grid[:0:-1]
    sig_tau = vol * np.sqrt(tau)
    inv_sig_tau = 1.0 / sig_tau
    disc_r = np.exp(-r * tau)
    lags = np.array((sig_tau, inv_sig_tau, (r - delta - 0.5 * vol * vol) * tau * inv_sig_tau,
                     ((r - delta + 0.5 * vol * vol) * tau - math.log(p.strike)) * inv_sig_tau,
                     pref * disc_r, np.exp(-delta * tau), disc_r * inv_sig_tau / _SQRT_2PI))
    w_rows = unit_weight_rows(cfg.n, cfg.d if cfg.family == FH else 0, 0.5)
    q_rows = unit_weight_rows(cfg.n, cfg.d, 0.0) if delta > 0.0 else None

    def build_row(i: int, prior: np.ndarray, log_prior: np.ndarray, rk: np.ndarray):
        sig_tau, inv_sig_tau, drift, a1, kern_lag, disc_d, slope_lag = lags[:, cfg.n - i:]
        sig_t, a1_t, disc_t = float(sig_tau[0]), float(a1[0]), float(disc_d[0])
        a2 = drift - log_prior * inv_sig_tau
        kern = w_rows[i, :i] * rk * kern_lag
        kern_slope = kern * inv_sig_tau
        # coincident node: d1, d2 -> 0 as the time gap vanishes with equal arguments
        coincident = pref * float(w_rows[i, i])
        if delta > 0.0:
            smooth = q_rows[i, :i] * disc_d
            smooth_slope = q_rows[i, :i] * prior * slope_lag
            half = 0.5 * float(q_rows[i, i])

        def row(b: float) -> tuple[float, float]:
            log_b = math.log(b)
            d1_t = log_b / sig_t + a1_t
            cdf_t = norm_cdf(d1_t)
            d2 = log_b * inv_sig_tau + a2
            e = np.exp(-0.5 * d2 * d2)
            f = -b * disc_t * cdf_t + float(kern.dot(e)) + coincident * (r_k - delta * b)
            slope = (-disc_t * (cdf_t + math.exp(-0.5 * d1_t * d1_t) / (_SQRT_2PI * sig_t))
                     - float(kern_slope.dot(e * d2)) / b - coincident * delta)
            if delta > 0.0:
                s = float(smooth.dot(ndtr(d2 + sig_tau))) + half
                f -= delta_h * b * s
                slope -= delta_h * (s + float(smooth_slope.dot(e)) / b)
            return f, slope

        return row

    return grid, build_row


def solve_boundary(cfg: SolverConfig, p: MarketParams) -> BoundaryCurve:
    """Solve the collocated boundary equations row by row on t_i = i T / n.

    B_0 takes its analytic expiry limit and each later B_i solves its
    scalar collocation equation given B_0..B_{i-1} (the Volterra structure
    is lower triangular) by Newton in [lower / 2, B_0 + (B_0 - lower) / 2],
    lower the perpetual bound: the discrete nodes of delta > r markets can
    dip below it, and ``diagnostics.flags`` names every node outside
    [lower, B_0].  Each row's Newton start is as in :func:`_start_weights`.
    ``cfg.hybrid_m`` fills the curve by linear interpolation (see
    :class:`SolverConfig`); the returned curve carries a Floater-Hormann
    basis of order d on its stored nodes for evaluation between them.
    """
    if p.rate == 0.0:
        raise ValueError("rate = 0 makes early exercise worthless; "
                         "the boundary equation degenerates")
    n = cfg.n
    start, builds = time.perf_counter(), unit_weight_rows.cache_info().misses
    grid, build_row = _row_residual(cfg, p)
    weights_s = time.perf_counter() - start
    b0 = initial_boundary(p)
    lower = perpetual_lower_bound(p)
    lo, hi = 0.5 * lower, b0 + 0.5 * (b0 - lower)
    values, logs, rks = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    values[0], logs[0], rks[0] = b0, math.log(b0), p.rate * p.strike - p.dividend * b0
    iterations = np.zeros(n + 1, dtype=int)
    residuals = np.zeros(n + 1)
    flags: list[tuple[int, str, float]] = []
    newton_steps = 0
    newton_start = time.perf_counter()
    start_w = _start_weights(n)
    for i in range(1, n + 1):
        if i >= _SQRT_START:
            k = min(5, (i - 1) // 2)
            guess = float(start_w[i - _SQRT_START, 5 - k:].dot(values[i - 2 * k:i - 1:2]))
        else:
            guess = values[i - 1]
        b, iterations[i], residuals[i], steps = _newton_scalar(
            build_row(i, values[:i], logs[:i], rks[:i]), guess, lo, hi,
            cfg.newton_tol * p.strike, i)
        if steps < iterations[i]:
            flags.append((i, "bisection", float(iterations[i])))
        if b - values[i - 1] > 1e-9 * p.strike:
            flags.append((i, "non_monotone", float(b - values[i - 1])))
        if not lower <= b <= b0:
            flags.append((i, "outside_bounds", b))
        newton_steps += steps
        values[i], logs[i], rks[i] = b, math.log(b), p.rate * p.strike - p.dividend * b
    newton_s = time.perf_counter() - newton_start
    if cfg.hybrid_m > 2:
        fine = np.linspace(0.0, p.expiry, n * (cfg.hybrid_m - 1) + 1)
        grid, values = fine, np.interp(fine, grid, values)
    diag = SolveDiagnostics(iterations=iterations, residuals=residuals,
                            newton_steps=newton_steps, flags=tuple(flags),
                            wall_time=time.perf_counter() - start, weights_s=weights_s,
                            newton_s=newton_s,
                            weights_cached=unit_weight_rows.cache_info().misses == builds)
    return BoundaryCurve(values=values, basis=BaryBasis(grid, cfg.d),
                         params=p, config=cfg, diagnostics=diag)


def eval_boundary(curve: BoundaryCurve, t):
    """Evaluate the solved boundary at time-to-expiry t in [0, T].

    The barycentric interpolant ``basis_matrix(curve.basis, t) @ curve.values``,
    exact at the nodes.  A scalar or 0-d ``t`` gives a float, a 1-D ``t`` an
    array of its length.
    """
    T = curve.params.expiry
    tol = 1e-12 * T
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= -tol) & (t_arr <= T + tol)):  # NaN fails too
        raise ValueError(f"t must lie in [0, {T}], got {t!r}")
    ys = barycentric.basis_matrix(curve.basis, np.clip(t_arr, 0.0, T)).dot(curve.values)
    return float(ys[0]) if t_arr.ndim == 0 else ys


def collocation_residuals(curve: BoundaryCurve) -> np.ndarray:
    """Re-evaluate every collocation equation at the solved values.

    Returns |F_i(B_i)| for i = 1..n (index 0 is the assigned expiry limit);
    this is the residual certificate for an accepted solve.
    """
    cfg = curve.config
    if cfg.hybrid_m > 2:
        raise ValueError("residual certificate applies to plain solves only; "
                         "hybrid interior nodes are interpolated, not collocated")
    p, values = curve.params, curve.values
    _, build_row = _row_residual(cfg, p)
    logs = np.array([math.log(b) for b in values])
    rks = p.rate * p.strike - p.dividend * values
    return np.array([abs(build_row(i, values[:i], logs[:i], rks[:i])(values[i])[0])
                     for i in range(1, cfg.n + 1)])
