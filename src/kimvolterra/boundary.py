"""Early-exercise boundary of an American put by sequential Newton time-stepping.

The boundary solves a weakly singular Volterra integral equation in the
time-to-expiry variable t (t = 0 is expiry).  Collocating on the
equidistant grid t_i = i T / n and interpolating the smooth kernel factor
with a barycentric rational basis turns the equation into a
lower-triangular nonlinear system: row i involves only B_0..B_i, so each
B_i is found by a safeguarded scalar Newton iteration given its
predecessors, started from B_(i-1) on rows 1 and 2 and from their quadratic
extrapolation after.  The i = 0 row is singular and B_0 is its expiry limit.

The equation's smooth part (a normal-CDF kernel) takes interpolatory
quadrature; every dividend term carries a factor delta, so at delta = 0 it
is skipped.  A hybrid mode (``hybrid_m``) fills interior nodes by linear
interpolation.  One row residual serves the solve and its certificate;
Kim's (1990) discretization of the value-matching equation, an
independent cross-check, is kept with the tests.

Each row's residual returns its exact slope dF/db with its value, so a
Newton step costs one residual eval.  The identity y e^(-r tau) phi(d2) =
x e^(-delta tau) phi(d1) cancels the two scalar phi terms at t_i and merges
the two exponential kernels into (r K - delta B_j) e^(-r tau_j) phi(d2_j).
Rows are arrays of length i <= n, timed by numpy's cost per call, so factors
of tau alone are lag tables and ln B_j, r K - delta B_j running arrays.

Weight row i on spacing h is sqrt(h) (product) or h (quadrature) times the
row on the unit nodes 0..i, so one cached table of rows 0..n per (n, d,
alpha), Berrut's basis being order 0, serves every horizon and pricing.
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

from .barycentric import BaryBasis, eval_interpolant, fh_basis, fh_weights
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
    points per Newton interval; ``hybrid_m = 2`` adds none.

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
    hybrid_m: int | None = None
    newton_tol: ClassVar[float] = 1e-12

    def __post_init__(self) -> None:
        for name in ("n", "d") + (("hybrid_m",) if self.hybrid_m is not None else ()):
            if not isinstance(v := getattr(self, name), numbers.Integral) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.d < 0:
            raise ValueError(f"d must be >= 0, got {self.d}")
        if self.n < self.d + 1:
            raise ValueError(f"need n >= d + 1, got n={self.n}, d={self.d}")
        if self.family not in (FH, BFH):
            raise ValueError(f"family must be '{FH}' or '{BFH}', got {self.family!r}")
        if self.hybrid_m is not None and self.hybrid_m < 2:
            raise ValueError(f"hybrid_m must be >= 2, got {self.hybrid_m}")


@dataclass(frozen=True)
class SolveDiagnostics:
    """Per-Newton-row residual eval counts and final residuals, plus wall time.

    ``iterations[i]`` counts row i's residual evals: one per Newton step,
    plus, on a row that fell back to bisection, its two bracket ends and
    one per bisection step.  ``residual_evals`` is their sum, ``newton_steps``
    the Newton steps alone, and ``bisections`` counts the rows that fell back.
    """

    iterations: np.ndarray
    residuals: np.ndarray
    residual_evals: int
    newton_steps: int
    bisections: int
    warnings: tuple[str, ...]
    wall_time: float
    weights_s: float  # part of wall_time spent getting the weight rows
    newton_s: float  # part of wall_time spent in the Newton row loop
    weights_cached: bool  # True when no weight table had to be built


@dataclass(frozen=True)
class BoundaryCurve:
    """Solved boundary values on a grid, evaluable anywhere on [0, T]."""

    grid: np.ndarray
    values: np.ndarray
    basis: BaryBasis
    params: MarketParams
    config: SolverConfig
    diagnostics: SolveDiagnostics

    @property
    def horizon(self) -> float:
        """Time horizon T of the solve."""
        return float(self.grid[-1])


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


@lru_cache(maxsize=None)
def _unit_rows(n: int, d: int, alpha: float) -> np.ndarray:
    """Read-only unit-node weight rows 0..n; row i is on the Floater-Hormann
    basis of order min(d, i) (d = 0 is Berrut's), zero beyond node i."""
    betas = np.zeros((n + 1, n + 1))
    for i in range(n + 1):  # slice writes: padding each row cost about as much as the integrals
        betas[i, :i + 1] = fh_weights(i, min(d, i))
    return unit_weight_rows(betas, alpha)


def clear_weight_cache() -> None:
    """Drop the cached unit-spacing weight rows (used by timing studies)."""
    _unit_rows.cache_clear()


def _residual(i: int, prior: np.ndarray, log_prior: np.ndarray, rk: np.ndarray,
              lag: np.ndarray, w: np.ndarray, om: np.ndarray | None, h: float, p: MarketParams):
    """Row i of the product-integrated boundary equation as b -> (F(b), dF/db).

    ``lag`` is row i's view of the lag tables (column 0 also serves t_i) and
    ``rk`` holds r K - delta B_j; the terms free of b are products of their
    slices, built once per row, and d2_j = ln(b) / (sigma sqrt(tau_j)) + a2_j
    leaves b only in ln(b).  So an eval costs a few array ops of length i, with
    ``ndarray.dot`` (cheaper per call than ``@``, same bits) and Python-float
    scalars.  The phi identity of the module docstring has already cancelled
    the scalar phi terms and merged the two kernels.  The dividend terms vanish
    at delta = 0 and are skipped, so ``om`` (the smooth-term quadrature row)
    may be None.  ``w`` and ``om`` are unit-spacing rows: sqrt(h) is folded
    into ``pref`` and the kernel's lag table, h into ``delta_h``.
    """
    sig_tau, inv_sig_tau, drift, a1, kern_lag, disc_d, slope_lag = lag
    r, delta, k, vol = p.rate, p.dividend, p.strike, p.volatility
    pref = math.sqrt(h) / (vol * _SQRT_2PI)
    sig_t, a1_t, disc_t = float(sig_tau[0]), float(a1[0]), float(disc_d[0])
    a2 = drift - log_prior * inv_sig_tau
    kern = w[:i] * rk * kern_lag
    kern_slope = kern * inv_sig_tau
    # coincident node: d1, d2 -> 0 as the time gap vanishes with equal arguments
    coincident = pref * float(w[i])
    if delta > 0.0:
        delta_h = delta * h
        smooth = om[:i] * disc_d
        smooth_slope = om[:i] * prior * slope_lag
        half = 0.5 * float(om[i])

    def row(b: float) -> tuple[float, float]:
        log_b = math.log(b)
        d1_t = log_b / sig_t + a1_t
        cdf_t = norm_cdf(d1_t)
        d2 = log_b * inv_sig_tau + a2
        e = np.exp(-0.5 * d2 * d2)
        f = -b * disc_t * cdf_t + float(kern.dot(e)) + coincident * (r * k - delta * b)
        slope = (-disc_t * (cdf_t + math.exp(-0.5 * d1_t * d1_t) / (_SQRT_2PI * sig_t))
                 - float(kern_slope.dot(e * d2)) / b - coincident * delta)
        if delta > 0.0:
            s = float(smooth.dot(ndtr(d2 + sig_tau))) + half
            f -= delta_h * b * s
            slope -= delta_h * (s + float(smooth_slope.dot(e)) / b)
        return f, slope

    return row


def _newton_scalar(f, x0: float, lo: float, hi: float, tol_abs: float,
                   step: int) -> tuple[float, int, float, bool]:
    """Safeguarded scalar Newton on f(b) = (F, dF/db), bisection fallback.

    A step that is not finite or lands over half the bracket's width outside
    [lo, hi], or _NEWTON_MAX_ITER steps, fall back to bisecting [lo, hi]
    until |F| <= tol_abs or the bracket is two adjacent doubles.  Returns
    (root, residual evals, |F|, Newton steps); fewer steps than evals means a fallback.
    """
    margin = 0.5 * (hi - lo)
    b = min(max(float(x0), lo), hi)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        fb, slope = f(b)
        if abs(fb) <= tol_abs:
            return b, it, abs(fb), it
        nxt = b - fb / slope if slope != 0.0 else float("nan")
        if not math.isfinite(nxt) or nxt < lo - margin or nxt > hi + margin:
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
    """Grid and row builder (i, prior[, log_prior, rk]) -> (b -> (F, dF/db)) on cfg.n intervals.

    tau_ij = t_(i-j), so row i views the last i columns of the seven tables over lags n..1.
    ``log_prior`` defaults to math.log(prior), as in the solve: np.log can differ by an ulp;
    ``rk`` to r K - delta prior, elementwise the solve's scalar arithmetic.
    """
    grid = np.linspace(0.0, p.expiry, cfg.n + 1)
    h = p.expiry / cfg.n
    r, delta, vol = p.rate, p.dividend, p.volatility
    tau = grid[:0:-1]
    sig_tau = vol * np.sqrt(tau)
    inv_sig_tau = 1.0 / sig_tau
    disc_r = np.exp(-r * tau)
    lags = np.array((sig_tau, inv_sig_tau, (r - delta - 0.5 * vol * vol) * tau * inv_sig_tau,
                     ((r - delta + 0.5 * vol * vol) * tau - math.log(p.strike)) * inv_sig_tau,
                     math.sqrt(h) / (vol * _SQRT_2PI) * disc_r, np.exp(-delta * tau),
                     disc_r * inv_sig_tau / _SQRT_2PI))
    w_rows = _unit_rows(cfg.n, cfg.d if cfg.family == FH else 0, 0.5)
    q_rows = _unit_rows(cfg.n, cfg.d, 0.0) if delta > 0.0 else [None] * (cfg.n + 1)

    def build_row(i: int, prior: np.ndarray, log_prior: np.ndarray | None = None,
                  rk: np.ndarray | None = None):
        if log_prior is None:
            log_prior = np.array([math.log(b) for b in prior])
        rk = r * p.strike - delta * prior if rk is None else rk
        return _residual(i, prior, log_prior, rk, lags[:, cfg.n - i:], w_rows[i], q_rows[i], h, p)

    return grid, build_row


def solve_boundary(cfg: SolverConfig, p: MarketParams) -> BoundaryCurve:
    """Solve the collocated boundary equations row by row on t_i = i T / n.

    B_0 takes its analytic expiry limit and each later B_i solves its
    scalar collocation equation given B_0..B_{i-1} (the Volterra structure
    is lower triangular) by Newton in [perpetual bound, B_0], from B_{i-1}
    on rows 1-2, next to the expiry singularity, and 3 (B_{i-1} - B_{i-2}) +
    B_{i-3} after.  ``cfg.hybrid_m`` fills the curve by linear interpolation
    (see :class:`SolverConfig`); the returned curve carries a Floater-Hormann
    basis of order d on its stored nodes for evaluation between them.
    """
    if p.rate == 0.0:
        raise ValueError("rate = 0 makes early exercise worthless; "
                         "the boundary equation degenerates")
    n = cfg.n
    start, builds = time.perf_counter(), _unit_rows.cache_info().misses
    grid, build_row = _row_residual(cfg, p)
    weights_s = time.perf_counter() - start
    b0 = initial_boundary(p)
    lower = perpetual_lower_bound(p)
    values, logs, rks = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    values[0], logs[0], rks[0] = b0, math.log(b0), p.rate * p.strike - p.dividend * b0
    iterations = np.zeros(n + 1, dtype=int)
    residuals = np.zeros(n + 1)
    warnings: list[str] = []
    bisections = newton_steps = 0
    newton_start = time.perf_counter()
    for i in range(1, n + 1):
        guess = values[i - 1] if i < 3 else 3.0 * (values[i - 1] - values[i - 2]) + values[i - 3]
        b, iterations[i], residuals[i], steps = _newton_scalar(
            build_row(i, values[:i], logs[:i], rks[:i]), guess, lower, b0,
            cfg.newton_tol * p.strike, i)
        bisections += int(steps < iterations[i])
        newton_steps += steps
        values[i], logs[i], rks[i] = b, math.log(b), p.rate * p.strike - p.dividend * b
        if not 0.9 * lower <= b <= 1.1 * b0:
            warnings.append(
                f"row {i}: boundary {b:.6g} outside [{0.9 * lower:.6g}, {1.1 * b0:.6g}]")
    newton_s = time.perf_counter() - newton_start
    if cfg.hybrid_m is not None and cfg.hybrid_m > 2:
        fine = np.linspace(0.0, p.expiry, n * (cfg.hybrid_m - 1) + 1)
        grid, values = fine, np.interp(fine, grid, values)
    diag = SolveDiagnostics(iterations=iterations, residuals=residuals,
                            residual_evals=int(iterations.sum()), newton_steps=newton_steps,
                            bisections=bisections, warnings=tuple(warnings),
                            wall_time=time.perf_counter() - start, weights_s=weights_s,
                            newton_s=newton_s,
                            weights_cached=_unit_rows.cache_info().misses == builds)
    return BoundaryCurve(grid=grid, values=values, basis=fh_basis(grid, cfg.d),
                         params=p, config=cfg, diagnostics=diag)


def eval_boundary(curve: BoundaryCurve, t):
    """Evaluate the solved boundary at time-to-expiry t in [0, T].

    Barycentric evaluation with the curve's basis; exact at the nodes.
    ``t`` may be a scalar or an array.
    """
    horizon = curve.grid[-1]
    tol = 1e-12 * horizon
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= -tol) & (t_arr <= horizon + tol)):  # NaN fails too
        raise ValueError(f"t must lie in [0, {horizon}], got {t!r}")
    return eval_interpolant(curve.basis, curve.values, np.clip(t_arr, 0.0, horizon))


def collocation_residuals(curve: BoundaryCurve) -> np.ndarray:
    """Re-evaluate every collocation equation at the solved values.

    Returns |F_i(B_i)| for i = 1..n (index 0 is the assigned expiry limit);
    this is the residual certificate for an accepted solve.
    """
    cfg = curve.config
    if cfg.hybrid_m is not None and cfg.hybrid_m > 2:
        raise ValueError("residual certificate applies to plain solves only; "
                         "hybrid interior nodes are interpolated, not collocated")
    _, build_row = _row_residual(cfg, curve.params)
    logs = np.array([math.log(b) for b in curve.values])
    return np.array([abs(build_row(i, curve.values[:i], logs[:i])(curve.values[i])[0])
                     for i in range(1, cfg.n + 1)])
