"""Early-exercise boundary of an American put by sequential Newton time-stepping.

The boundary solves a weakly singular Volterra integral equation in the
time-to-expiry variable t (t = 0 is expiry).  Collocating on the
equidistant grid t_i = i T / n and interpolating the smooth kernel factor
with a barycentric rational basis turns the equation into a
lower-triangular nonlinear system: row i involves only B_0..B_i, so each
B_i is found by a safeguarded scalar Newton iteration given its
predecessors.  The i = 0 row is singular and B_0 is assigned its known
expiry limit instead.

The equation's smooth part (a normal-CDF kernel) takes interpolatory
quadrature; every dividend term carries a factor delta, so at delta = 0 it
is skipped.  A trapezoid discretization of the two-dimensional
value-matching equation is an independent cross-check on the same
row-marching driver.  A hybrid mode (``hybrid_m``) fills interior nodes by
linear interpolation.

Each row's residual returns its exact slope dF/db with its value, so a
Newton step costs one residual eval.  The identity y e^(-r tau) phi(d2) =
x e^(-delta tau) phi(d1) cancels the two scalar phi terms at t_i and merges
the two exponential kernels into (r K - delta B_j) e^(-r tau_j) phi(d2_j).

Weight row i on spacing h is sqrt(h) (product) or h (quadrature) times the
row on the unit nodes 0..i, so one cached table of rows 0..n per (n, d,
alpha), Berrut's basis being order 0, serves every horizon and pricing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .barycentric import BaryBasis, eval_interpolant, fh_basis, fh_weights
from .market import MarketParams, d1d2, european_put, norm_cdf
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
    "solve_boundary_kim2d",
    "eval_boundary",
    "collocation_residuals",
    "clear_weight_cache",
]

FH = "fh"
BFH = "bfh"

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NEWTON_MAX_ITER = 50
# |dF/db| falls to about 0.17 on the Table-3 markets at n = 32, so a row
# tolerance of 1e-6 K already moves nodes by about 1.2e-4 (K = 100)
_MAX_NEWTON_TOL = 1e-6


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
    Floater-Hormann weights of order ``d`` throughout, "bfh" uses Berrut
    weights inside the singular product weights and Floater-Hormann
    weights of order ``d`` for the smooth-term quadrature and the final
    curve.
    """

    n: int
    d: int
    family: str = FH
    hybrid_m: int | None = None
    newton_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError(f"d must be >= 0, got {self.d}")
        if self.n < self.d + 1:
            raise ValueError(f"need n >= d + 1, got n={self.n}, d={self.d}")
        if self.family not in (FH, BFH):
            raise ValueError(f"family must be '{FH}' or '{BFH}', got {self.family!r}")
        if self.hybrid_m is not None and self.hybrid_m < 2:
            raise ValueError(f"hybrid_m must be >= 2, got {self.hybrid_m}")
        if not 0.0 < self.newton_tol <= _MAX_NEWTON_TOL:
            raise ValueError(
                f"newton_tol must lie in (0, {_MAX_NEWTON_TOL:g}], got {self.newton_tol}: "
                "a looser row tolerance newton_tol * K can accept each row's "
                "initial guess and return a flat curve")


@dataclass(frozen=True)
class SolveDiagnostics:
    """Per-Newton-row iteration counts and final residuals, plus wall time.

    ``residual_evals`` counts every row-residual eval of the solve, Newton
    and bisection alike; each Newton step makes one.
    """

    iterations: np.ndarray
    residuals: np.ndarray
    residual_evals: int
    warnings: tuple[str, ...]
    wall_time: float
    weights_s: float  # part of wall_time spent getting the weight rows
    weights_cached: bool  # True when no weight table had to be built


@dataclass(frozen=True)
class BoundaryCurve:
    """Solved boundary values on a grid, evaluable anywhere on [0, T].

    ``method`` records which discretization produced the values:
    "product" for the product-integration schemes, "trapezoid" for the
    two-dimensional cross-check solver.
    """

    grid: np.ndarray
    values: np.ndarray
    basis: BaryBasis
    params: MarketParams
    config: SolverConfig
    diagnostics: SolveDiagnostics
    method: str = "product"

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


def _d12_arrays(x: float, tau: np.ndarray, y: np.ndarray,
                p: MarketParams) -> tuple[np.ndarray, np.ndarray]:
    sig_sqrt = p.volatility * np.sqrt(tau)
    d1 = (np.log(x / y) + (p.rate - p.dividend + 0.5 * p.volatility**2) * tau) / sig_sqrt
    return d1, d1 - sig_sqrt


def _premium_integrand(x: float, tau: np.ndarray, y: np.ndarray,
                       p: MarketParams) -> np.ndarray:
    """Early-exercise premium density r K e^(-r tau) N(-d2) - delta x e^(-delta tau) N(-d1).

    ``y`` holds the boundary values at the time gaps ``tau`` > 0; the
    pricing integral takes x = spot and the value-matching equation x = B.
    """
    d1, d2 = _d12_arrays(x, tau, y, p)
    return (p.rate * p.strike * np.exp(-p.rate * tau) * ndtr(-d2)
            - p.dividend * x * np.exp(-p.dividend * tau) * ndtr(-d1))


@lru_cache(maxsize=None)
def _unit_rows(n: int, d: int, alpha: float) -> np.ndarray:
    """Read-only unit-node weight rows 0..n; row i is on the Floater-Hormann
    basis of order min(d, i) (d = 0 is Berrut's), zero beyond node i."""
    betas = [np.pad(fh_weights(i, min(d, i)), (0, n - i)) for i in range(n + 1)]
    return unit_weight_rows(np.array(betas), alpha)


def clear_weight_cache() -> None:
    """Drop the cached unit-spacing weight rows (used by timing studies)."""
    _unit_rows.cache_clear()


def _residual(i: int, grid: np.ndarray, prior: np.ndarray, w: np.ndarray,
              om: np.ndarray | None, p: MarketParams):
    """Row i of the product-integrated boundary equation as b -> (F(b), dF/db).

    Every term that does not depend on b is built here, once per row, and
    d2_j = ln(b) / (sigma sqrt(tau_j)) + a2_j leaves b only in ln(b), so an
    eval costs a few array ops of length i.  The phi identity of the module
    docstring has already cancelled the scalar phi terms and merged the two
    kernels.  The dividend terms vanish at delta = 0 and are then skipped, so
    ``om`` (the smooth-term quadrature row) may be None.
    """
    t_i = grid[i]
    r, delta, k, vol = p.rate, p.dividend, p.strike, p.volatility
    pref = 1.0 / (vol * _SQRT_2PI)
    sig_t = vol * math.sqrt(t_i)
    a1_t = ((r - delta + 0.5 * vol * vol) * t_i - math.log(k)) / sig_t
    disc_t = math.exp(-delta * t_i)
    tau = t_i - grid[:i]
    sig_tau = vol * np.sqrt(tau)
    inv_sig_tau = 1.0 / sig_tau
    a2 = ((r - delta - 0.5 * vol * vol) * tau - np.log(prior)) * inv_sig_tau
    neg_rtau = -r * tau
    kern = pref * w[:i] * (r * k - delta * prior)
    kern_slope = kern * inv_sig_tau
    # coincident node: d1, d2 -> 0 as the time gap vanishes with equal arguments
    coincident = pref * w[i]
    if delta > 0.0:
        smooth = om[:i] * np.exp(-delta * tau)
        smooth_slope = om[:i] * prior * inv_sig_tau / _SQRT_2PI
        half = 0.5 * om[i]

    def row(b: float) -> tuple[float, float]:
        log_b = math.log(b)
        d1_t = log_b / sig_t + a1_t
        cdf_t = norm_cdf(d1_t)
        d2 = log_b * inv_sig_tau + a2
        e = np.exp(neg_rtau - 0.5 * d2 * d2)
        f = -b * disc_t * cdf_t + kern @ e + coincident * (r * k - delta * b)
        slope = (-disc_t * (cdf_t + math.exp(-0.5 * d1_t * d1_t) / (_SQRT_2PI * sig_t))
                 - (kern_slope @ (e * d2)) / b - coincident * delta)
        if delta > 0.0:
            s = smooth @ ndtr(d2 + sig_tau) + half
            f -= delta * b * s
            slope -= delta * (s + (smooth_slope @ e) / b)
        return f, slope

    return row


def _residual_kim2d(i: int, grid: np.ndarray, prior: np.ndarray, h: float,
                    p: MarketParams):
    """Row i of the trapezoid-discretized value-matching equation as b -> (F, dF/db).

    K - B = European(B) + premium(B): the pricing formula taken at S = B.
    The put delta is -e^(-delta t) N(-d1), and by the phi identity of the
    module docstring the premium density has slope
    -delta e^(-delta tau) N(-d1) - (r K - delta B_j) e^(-r tau) phi(d2) / (b sigma sqrt(tau)).
    """
    t_i = grid[i]
    tau = t_i - grid[:i]
    r, delta, k = p.rate, p.dividend, p.strike
    disc_d = delta * np.exp(-delta * tau)
    kern = ((r * k - delta * prior) * np.exp(-r * tau)
            / (p.volatility * np.sqrt(tau) * _SQRT_2PI))

    def row(b: float) -> tuple[float, float]:
        f = _premium_integrand(b, tau, prior, p)
        # s = t_i endpoint: equal arguments push both CDF factors to 1/2
        end = 0.5 * (r * k - delta * b)
        premium = h * (0.5 * f[0] + f[1:].sum() + 0.5 * end)
        d1, d2 = _d12_arrays(b, tau, prior, p)
        df = -disc_d * ndtr(-d1) - kern * np.exp(-0.5 * d2 * d2) / b
        d1_t, _ = d1d2(b, t_i, k, p)
        slope = (-1.0 + math.exp(-delta * t_i) * norm_cdf(-d1_t)
                 - h * (0.5 * df[0] + df[1:].sum() - 0.25 * delta))
        return (k - b) - european_put(t_i, b, p) - premium, slope

    return row


def _bisect(f, lo: float, hi: float, tol_abs: float, step: int) -> tuple[float, int, float]:
    f_lo, f_hi = f(lo)[0], f(hi)[0]
    if abs(f_lo) <= tol_abs:
        return lo, 1, abs(f_lo)
    if abs(f_hi) <= tol_abs:
        return hi, 1, abs(f_hi)
    if f_lo * f_hi > 0.0:
        raise SolverError(
            f"no sign change on [{lo:.6g}, {hi:.6g}] at collocation row {step}",
            step=step, residual=min(abs(f_lo), abs(f_hi)))
    for it in range(1, 201):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)[0]
        if abs(f_mid) <= tol_abs or hi - lo <= 1e-16 * max(1.0, hi):
            if abs(f_mid) > tol_abs:
                raise SolverError(
                    f"bisection stalled at row {step} with residual {abs(f_mid):.3e}",
                    step=step, residual=abs(f_mid))
            return mid, it, abs(f_mid)
        if f_lo * f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    raise SolverError(f"bisection did not converge at row {step}", step=step)


def _newton_scalar(f, x0: float, lo: float, hi: float, tol_abs: float,
                   step: int) -> tuple[float, int, float]:
    """Safeguarded scalar Newton on f(b) = (F, dF/db), bisection fallback."""
    margin = 0.5 * (hi - lo)
    b = min(max(x0, lo), hi)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        fb, slope = f(b)
        if abs(fb) <= tol_abs:
            return b, it, abs(fb)
        nxt = b - fb / slope if slope != 0.0 else float("nan")
        if not math.isfinite(nxt) or nxt < lo - margin or nxt > hi + margin:
            return _bisect(f, lo, hi, tol_abs, step)
        b = nxt
    return _bisect(f, lo, hi, tol_abs, step)


def _row_residual(method: str, n: int, cfg: SolverConfig, p: MarketParams):
    """Grid and row builder (i, prior) -> (b -> (F, dF/db)) of a "product" or "trapezoid" solve."""
    grid = np.linspace(0.0, p.expiry, n + 1)
    h = p.expiry / n
    if method == "trapezoid":
        return grid, lambda i, prior: _residual_kim2d(i, grid, prior, h, p)
    w_rows = math.sqrt(h) * _unit_rows(n, cfg.d if cfg.family == FH else 0, 0.5)
    q_rows = h * _unit_rows(n, cfg.d, 0.0) if p.dividend > 0.0 else [None] * (n + 1)
    return grid, lambda i, prior: _residual(i, grid, prior, w_rows[i], q_rows[i], p)


def _march(method: str, n: int, cfg: SolverConfig, p: MarketParams) -> BoundaryCurve:
    """Solve rows 1..n in order by scalar Newton in [perpetual bound, B_0]."""
    if p.rate == 0.0:
        raise ValueError("rate = 0 makes early exercise worthless; "
                         "the boundary equation degenerates")
    start, builds = time.perf_counter(), _unit_rows.cache_info().misses
    grid, build_row = _row_residual(method, n, cfg, p)
    weights_s = time.perf_counter() - start
    b0 = initial_boundary(p)
    lower = perpetual_lower_bound(p)
    values = np.empty(n + 1)
    values[0] = b0
    iterations = np.zeros(n + 1, dtype=int)
    residuals = np.zeros(n + 1)
    warnings: list[str] = []
    evals = 0

    def counted(x: float) -> tuple[float, float]:
        nonlocal evals
        evals += 1
        return row(x)

    for i in range(1, n + 1):
        row = build_row(i, values[:i])
        b, its, res = _newton_scalar(counted, values[i - 1], lower, b0,
                                     cfg.newton_tol * p.strike, i)
        values[i] = b
        iterations[i] = its
        residuals[i] = res
        if not 0.9 * lower <= b <= 1.1 * b0:
            warnings.append(
                f"row {i}: boundary {b:.6g} outside [{0.9 * lower:.6g}, {1.1 * b0:.6g}]")
    if cfg.hybrid_m is not None and cfg.hybrid_m > 2:
        fine = np.linspace(0.0, p.expiry, n * (cfg.hybrid_m - 1) + 1)
        grid, values = fine, np.interp(fine, grid, values)
    diag = SolveDiagnostics(iterations=iterations, residuals=residuals,
                            residual_evals=evals, warnings=tuple(warnings),
                            wall_time=time.perf_counter() - start, weights_s=weights_s,
                            weights_cached=_unit_rows.cache_info().misses == builds)
    return BoundaryCurve(grid=grid, values=values, basis=fh_basis(grid, cfg.d),
                         params=p, config=cfg, diagnostics=diag, method=method)


def solve_boundary(cfg: SolverConfig, p: MarketParams) -> BoundaryCurve:
    """Solve the collocated boundary equations row by row on t_i = i T / n.

    B_0 takes its analytic expiry limit and each later B_i solves its
    scalar collocation equation given B_0..B_{i-1} (the Volterra structure
    is lower triangular), with the initial guess B_{i-1}.  ``cfg.hybrid_m``
    fills the curve by linear interpolation (see :class:`SolverConfig`);
    the returned curve carries a Floater-Hormann basis of order d on its
    stored nodes for evaluation between them.
    """
    return _march("product", cfg.n, cfg, p)


def solve_boundary_kim2d(n: int, p: MarketParams) -> BoundaryCurve:
    """Trapezoid discretization of the two-dimensional value-matching equation.

    Independent cross-check: K - B(t_i) is matched against the European
    value plus trapezoid sums of the two normal-CDF kernels, Newton per
    row.  Slower-converging than the product-integration schemes; used
    only for agreement tests.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return _march("trapezoid", n, SolverConfig(n=n, d=min(2, n - 1)), p)


def eval_boundary(curve: BoundaryCurve, t):
    """Evaluate the solved boundary at time-to-expiry t in [0, T].

    Barycentric evaluation with the curve's basis; exact at the nodes.
    ``t`` may be a scalar or an array.
    """
    horizon = curve.grid[-1]
    tol = 1e-12 * horizon
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < -tol) or np.any(t_arr > horizon + tol):
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
    n = curve.grid.size - 1
    _, build_row = _row_residual(curve.method, n, cfg, curve.params)
    return np.array([abs(build_row(i, curve.values[:i])(curve.values[i])[0])
                     for i in range(1, n + 1)])
