"""Early-exercise boundary of an American put by sequential Newton time-stepping.

The boundary solves a weakly singular Volterra integral equation in the
time-to-expiry variable t (t = 0 is expiry).  Collocating on the
equidistant grid t_i = i T / n and interpolating the smooth kernel factor
with a barycentric rational basis turns the equation into a
lower-triangular nonlinear system: row i involves only B_0..B_i, so each
B_i is found by a safeguarded scalar Newton iteration given its
predecessors.  The i = 0 row is singular and B_0 is assigned its known
expiry limit instead.

One equation is discretized.  Its singular part carries two exponential
kernels and its smooth part (a normal-CDF kernel) is handled by direct
interpolatory quadrature; every dividend term carries a factor delta, so at
delta = 0 the second kernel and the smooth part drop out and are not
evaluated.  A trapezoid discretization of the underlying two-dimensional
value-matching equation is included as an independent cross-check; both
discretizations share one row-marching driver.  A hybrid mode solves
Newton steps on a coarse grid only, filling interior nodes by linear
interpolation.

Weight row i on spacing h is sqrt(h) (product) or h (quadrature) times the
row on the unit nodes 0..i, which depends on neither n nor T, so each row
is built once per process and scaled for every solve and every premium
integral in pricing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .barycentric import BaryBasis, berrut_basis, eval_interpolant, fh_basis
from .market import MarketParams, d1d2, norm_cdf
from .quadrature import brq_weights, product_weights

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
    "solve_boundary_hybrid",
    "solve_boundary_kim2d",
    "eval_boundary",
    "collocation_residuals",
    "clear_weight_cache",
]

FH = "fh"
BFH = "bfh"

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NEWTON_MAX_ITER = 50
_FD_REL_STEP = 1e-6


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

    ``n`` counts grid subintervals for the plain schemes (nodes t_i = i T / n,
    i = 0..n).  In hybrid mode ``n`` counts the coarse Newton nodes
    including both endpoints, so the stored node total is
    N = n + (n - 1)(hybrid_m - 2); ``hybrid_m = 2`` adds no interior points.

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
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")


@dataclass(frozen=True)
class SolveDiagnostics:
    """Per-row Newton iteration counts and final residuals, plus wall time."""

    iterations: np.ndarray
    residuals: np.ndarray
    warnings: tuple[str, ...]
    wall_time: float


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


@lru_cache(maxsize=None)
def _product_row(i: int, d: int, family: str) -> np.ndarray:
    """Singular product weights of row i on the unit nodes 0..i (read-only)."""
    sub = np.arange(i + 1.0)
    basis = fh_basis(sub, min(d, i)) if family == FH else berrut_basis(sub)
    return product_weights(i, basis).weights


@lru_cache(maxsize=None)
def _brq_row(i: int, d: int) -> np.ndarray:
    """Floater-Hormann quadrature weights of row i on the unit nodes 0..i."""
    sub = np.arange(i + 1.0)
    return brq_weights(fh_basis(sub, min(d, i)), (0.0, float(i))).weights


def clear_weight_cache() -> None:
    """Drop the cached unit-spacing weight rows (used by timing studies)."""
    _product_row.cache_clear()
    _brq_row.cache_clear()


def _residual(b: float, i: int, grid: np.ndarray, prior: np.ndarray,
              w: np.ndarray, om: np.ndarray | None, p: MarketParams) -> float:
    """Row residual of the product-integrated boundary equation.

    The dividend terms vanish at delta = 0 and are then skipped, so ``om``
    (the smooth-term quadrature row) may be None.
    """
    t_i = grid[i]
    r, delta, k = p.rate, p.dividend, p.strike
    pref = 1.0 / (p.volatility * _SQRT_2PI)
    d = d1d2(b, t_i, k, p)
    f = -b * math.exp(-delta * t_i) * norm_cdf(d.d1)
    f += k * math.exp(-(r * t_i + 0.5 * d.d2 * d.d2)) * pref / math.sqrt(t_i)
    f -= b * math.exp(-(delta * t_i + 0.5 * d.d1 * d.d1)) * pref / math.sqrt(t_i)
    tau = t_i - grid[:i]
    d1j, d2j = _d12_arrays(b, tau, prior, p)
    kern = r * k * np.exp(-(r * tau + 0.5 * d2j * d2j))
    coincident = r * k
    if delta > 0.0:
        kern -= delta * b * np.exp(-(delta * tau + 0.5 * d1j * d1j))
        coincident -= delta * b
        smooth = np.exp(-delta * tau) * ndtr(d1j)
        # coincident node: d1 -> 0 as the time gap vanishes with equal arguments
        f -= delta * b * (om[:i] @ smooth + om[i] * 0.5)
    return f + pref * (w[:i] @ kern + w[i] * coincident)


def _residual_kim2d(b: float, i: int, grid: np.ndarray, prior: np.ndarray,
                    h: float, p: MarketParams) -> float:
    """Row residual of the trapezoid-discretized value-matching equation."""
    r, delta, k = p.rate, p.dividend, p.strike
    t_i = grid[i]
    tau = t_i - grid[:i]
    d1j, d2j = _d12_arrays(b, tau, prior, p)
    f = r * k * np.exp(-r * tau) * ndtr(-d2j) \
        - delta * b * np.exp(-delta * tau) * ndtr(-d1j)
    # s = t_i endpoint: equal arguments push both CDF factors to 1/2
    end = 0.5 * (r * k - delta * b)
    premium = h * (0.5 * f[0] + f[1:].sum() + 0.5 * end)
    d = d1d2(b, t_i, k, p)
    euro = (k * math.exp(-r * t_i) * norm_cdf(-d.d2)
            - b * math.exp(-delta * t_i) * norm_cdf(-d.d1))
    return (k - b) - euro - premium


def _bisect(f, lo: float, hi: float, tol_abs: float, step: int) -> tuple[float, int, float]:
    f_lo, f_hi = f(lo), f(hi)
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
        f_mid = f(mid)
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
    """Safeguarded scalar Newton: finite-difference slope, bisection fallback."""
    margin = 0.5 * (hi - lo)
    b = min(max(x0, lo), hi)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        fb = f(b)
        if abs(fb) <= tol_abs:
            return b, it, abs(fb)
        h = _FD_REL_STEP * max(1.0, abs(b))
        slope = (f(b + h) - f(b - h)) / (2.0 * h)
        nxt = b - fb / slope if slope != 0.0 else float("nan")
        if not math.isfinite(nxt) or nxt < lo - margin or nxt > hi + margin:
            return _bisect(f, lo, hi, tol_abs, step)
        b = nxt
    return _bisect(f, lo, hi, tol_abs, step)


def _row_residual(method: str, n: int, cfg: SolverConfig, p: MarketParams):
    """Grid and row residual F(b, i, prior) of a "product" or "trapezoid" solve."""
    grid = np.linspace(0.0, p.expiry, n + 1)
    h = p.expiry / n
    if method == "trapezoid":
        return grid, lambda b, i, prior: _residual_kim2d(b, i, grid, prior, h, p)
    w_rows = [None] + [math.sqrt(h) * _product_row(i, cfg.d, cfg.family)
                       for i in range(1, n + 1)]
    q_rows = ([None] + [h * _brq_row(i, cfg.d) for i in range(1, n + 1)]
              if p.dividend > 0.0 else [None] * (n + 1))
    return grid, lambda b, i, prior: _residual(b, i, grid, prior, w_rows[i],
                                               q_rows[i], p)


def _march(method: str, n: int, cfg: SolverConfig, p: MarketParams) -> BoundaryCurve:
    """Solve rows 1..n in order by scalar Newton in [perpetual bound, B_0]."""
    if p.rate == 0.0:
        raise ValueError("rate = 0 makes early exercise worthless; "
                         "the boundary equation degenerates")
    start = time.perf_counter()
    grid, resid = _row_residual(method, n, cfg, p)
    b0 = initial_boundary(p)
    lower = perpetual_lower_bound(p)
    values = np.empty(n + 1)
    values[0] = b0
    iterations = np.zeros(n + 1, dtype=int)
    residuals = np.zeros(n + 1)
    warnings: list[str] = []
    for i in range(1, n + 1):
        b, its, res = _newton_scalar(
            lambda x, i=i, prior=values[:i]: resid(x, i, prior),
            values[i - 1], lower, b0, cfg.newton_tol * p.strike, i)
        values[i] = b
        iterations[i] = its
        residuals[i] = res
        if not 0.9 * lower <= b <= 1.1 * b0:
            warnings.append(
                f"row {i}: boundary {b:.6g} outside [{0.9 * lower:.6g}, {1.1 * b0:.6g}]")
    diag = SolveDiagnostics(iterations=iterations, residuals=residuals,
                            warnings=tuple(warnings),
                            wall_time=time.perf_counter() - start)
    return BoundaryCurve(grid=grid, values=values, basis=fh_basis(grid, cfg.d),
                         params=p, config=cfg, diagnostics=diag, method=method)


def solve_boundary(cfg: SolverConfig, p: MarketParams) -> BoundaryCurve:
    """Solve the collocated boundary equations row by row on t_i = i T / n.

    B_0 takes its analytic expiry limit and each later B_i solves its
    scalar collocation equation given B_0..B_{i-1} (the Volterra structure
    is lower triangular), with the initial guess B_{i-1}.  The returned
    curve carries a Floater-Hormann basis of order d for evaluation
    between nodes.  ``hybrid_m`` is ignored here; see
    :func:`solve_boundary_hybrid`.
    """
    return _march("product", cfg.n, cfg, p)


def solve_boundary_hybrid(cfg: SolverConfig, p: MarketParams) -> BoundaryCurve:
    """Newton solves on a coarse grid, linear interpolation in between.

    ``cfg.n`` counts the coarse grid nodes (both endpoints included), so
    Newton runs on n nodes and the stored fine grid has
    N = n + (n - 1)(m - 2) equidistant nodes for m = ``cfg.hybrid_m``.
    The fine values feed every subsequent quadrature exactly like a plain
    solve of the same size; m = 2 reproduces the coarse solve unchanged.
    """
    if cfg.hybrid_m is None:
        raise ValueError("hybrid_m must be set for a hybrid solve")
    start = time.perf_counter()
    coarse = solve_boundary(replace(cfg, n=cfg.n - 1, hybrid_m=None), p)
    if cfg.hybrid_m == 2:
        return coarse
    total = cfg.n + (cfg.n - 1) * (cfg.hybrid_m - 2)
    fine_grid = np.linspace(0.0, p.expiry, total)
    fine_values = np.interp(fine_grid, coarse.grid, coarse.values)
    diag = replace(coarse.diagnostics, wall_time=time.perf_counter() - start)
    return BoundaryCurve(grid=fine_grid, values=fine_values,
                         basis=fh_basis(fine_grid, cfg.d), params=p, config=cfg,
                         diagnostics=diag)


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
    clipped = np.clip(t_arr, 0.0, horizon)
    if t_arr.ndim == 0:
        return eval_interpolant(curve.basis, curve.values, float(clipped))
    return eval_interpolant(curve.basis, curve.values, clipped)


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
    _, resid = _row_residual(curve.method, n, cfg, curve.params)
    return np.array([abs(resid(curve.values[i], i, curve.values[:i]))
                     for i in range(1, n + 1)])
