import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

import kimvolterra.boundary as boundary
from kimvolterra import (
    BaryBasis,
    BoundaryCurve,
    MarketParams,
    SolveDiagnostics,
    SolverConfig,
    binomial_american_put,
    european_put,
    initial_boundary,
    norm_cdf,
    perpetual_lower_bound,
    solve_boundary,
)
from kimvolterra.market import _d1d2
from kimvolterra.pricing import _premium_integrand

# Benchmark fixture set: 3-year put, r = delta = 8%, sigma = 20%, K = 100.
TABLE3_PARAMS = MarketParams(strike=100.0, expiry=3.0, rate=0.08,
                             dividend=0.08, volatility=0.2)
TABLE3_SPOTS = (80.0, 90.0, 100.0, 110.0, 120.0)
# Published reference digits for the benchmark set (4-decimal rounding).
TABLE3_BIN_COLUMN = {80.0: 22.2050, 90.0: 16.2071, 100.0: 11.7037,
                     110.0: 8.3671, 120.0: 5.9299}
TABLE3_METHOD_COLUMN = {80.0: 22.2048, 90.0: 16.2068, 100.0: 11.7037,
                        110.0: 8.3669, 120.0: 5.9298}
# Table-3 put values at t = T by dividend yield, to 1e-8: the FP-B fixed point of Andersen,
# Lake & Offengelden, "High-performance American option pricing" (J. Comput. Finance 20(1),
# 2016), iterated until no node moved by 1e-14 K; 64 and 96 Chebyshev nodes agree to 2e-10.
# A graded-collocation prototype of this paper's equation, which shares no discretization with
# the fixed point, matches all ten to 2.1e-7.  At delta = 0 the spot 80 is exercised.
FIXED_POINT_PRICES = {
    0.08: dict(zip(TABLE3_SPOTS, (22.20497711, 16.20706085, 11.70387460, 8.36702412,
                                  5.92980488))),
    0.0: dict(zip(TABLE3_SPOTS, (20.0, 11.69759548, 6.93218866, 4.15500163, 2.51026022))),
}


@pytest.fixture(scope="session")
def table3_params():
    return TABLE3_PARAMS


@pytest.fixture(scope="session")
def bin_references():
    """10000-step binomial values per benchmark spot from one five-spot call,
    plus its wall time."""
    start = time.perf_counter()
    values = binomial_american_put(10_000, TABLE3_SPOTS, TABLE3_PARAMS)
    return dict(zip(TABLE3_SPOTS, values)), time.perf_counter() - start


@pytest.fixture(scope="session")
def curve_n32_d2():
    return solve_boundary(SolverConfig(n=32, d=2), TABLE3_PARAMS)


@pytest.fixture(scope="session")
def curve_n64_d3():
    return solve_boundary(SolverConfig(n=64, d=3), TABLE3_PARAMS)


@pytest.fixture(scope="session")
def figure1_curves():
    """n=64, d=3 curves for the four benchmark dividend yields."""
    curves = {}
    for dividend in (0.0, 0.04, 0.08, 0.12):
        params = MarketParams(strike=100.0, expiry=3.0, rate=0.08,
                              dividend=dividend, volatility=0.2)
        curves[dividend] = solve_boundary(SolverConfig(n=64, d=3), params)
    return curves


def kim2d_row(i, grid, prior, p):
    """Row i of Kim's (1990) trapezoid-discretized value-matching equation as
    b -> (F, dF/db): K - B = European(B) + premium(B), the pricing formula at
    S = B with the premium integral taken by the trapezoid rule.

    The put delta is -e^(-delta t) N(-d1), and y e^(-r tau) phi(d2) =
    x e^(-delta tau) phi(d1) gives the premium density the slope
    -delta e^(-delta tau) N(-d1) - (r K - delta B_j) e^(-r tau) phi(d2) / (b sigma sqrt(tau)).
    """
    t_i = grid[i]
    h = p.expiry / (grid.size - 1)
    tau = t_i - grid[:i]
    r, delta, k, vol = p.rate, p.dividend, p.strike, p.volatility
    sig_sqrt = vol * np.sqrt(tau)
    disc_d = delta * np.exp(-delta * tau)
    kern = (r * k - delta * prior) * np.exp(-r * tau) / (sig_sqrt * math.sqrt(2.0 * math.pi))

    def row(b):
        f = _premium_integrand(b, tau, prior, p)
        # s = t_i endpoint: equal arguments push both CDF factors to 1/2
        end = 0.5 * (r * k - delta * b)
        premium = h * (0.5 * f[0] + f[1:].sum() + 0.5 * end)
        d1 = (np.log(b / prior) + (r - delta + 0.5 * vol**2) * tau) / sig_sqrt
        d2 = d1 - sig_sqrt
        df = -disc_d * ndtr(-d1) - kern * np.exp(-0.5 * d2 * d2) / b
        d1_t, _ = _d1d2(b, t_i, k, p)
        slope = (-1.0 + math.exp(-delta * t_i) * norm_cdf(-d1_t)
                 - h * (0.5 * df[0] + df[1:].sum() - 0.25 * delta))
        return (k - b) - european_put(t_i, b, p) - premium, slope

    return row


def solve_boundary_kim2d(n, p):
    """Trapezoid cross-check curve on t_i = i T / n (Kim 1990).

    Rows 1..n are solved in order by the library's safeguarded Newton in
    [perpetual bound, B_0] from the guess B_{i-1}; the product solve
    extrapolates its guess in sqrt(t) from row 5 on, but this reference keeps
    the flat start, so its frozen ``kim2d`` values do not move.  It converges
    more slowly than the product-integration schemes and serves only
    agreement tests; the curve carries an order-2 Floater-Hormann basis so
    that it can be priced.
    """
    cfg = SolverConfig(n=n, d=2)
    start = time.perf_counter()
    grid = np.linspace(0.0, p.expiry, n + 1)
    b0, lower = initial_boundary(p), perpetual_lower_bound(p)
    values = np.empty(n + 1)
    values[0] = b0
    iterations = np.zeros(n + 1, dtype=int)
    flags = []
    newton_steps = 0
    for i in range(1, n + 1):
        values[i], iterations[i], _, steps = boundary._newton_scalar(
            kim2d_row(i, grid, values[:i], p), values[i - 1], lower, b0,
            cfg.newton_tol * p.strike, i)
        if steps < iterations[i]:
            flags.append((i, "bisection", float(iterations[i])))
        newton_steps += steps
    wall_time = time.perf_counter() - start
    diag = SolveDiagnostics(iterations=iterations, newton_steps=newton_steps, flags=tuple(flags),
                            wall_time=wall_time, weights_s=0.0,
                            newton_s=wall_time, weights_cached=True)
    return BoundaryCurve(values=values, basis=BaryBasis(grid, 2),
                         params=p, config=cfg, diagnostics=diag)

