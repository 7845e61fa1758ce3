import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kimvolterra.boundary as boundary
import kimvolterra.quadrature as quadrature
from kimvolterra import (
    BFH,
    MarketParams,
    SolverConfig,
    american_put_price,
    clear_weight_cache,
    collocation_residuals,
    eval_boundary,
    initial_boundary,
    perpetual_lower_bound,
    solve_boundary,
)

from kimvolterra.barycentric import BaryBasis
from kimvolterra.market import _d1d2, norm_cdf

from conftest import TABLE3_PARAMS, kim2d_row, solve_boundary_kim2d


def product_rows(n, d, family):
    """Cached unit product rows 0..n of a solve; Berrut's basis is order 0."""
    return quadrature.unit_weight_rows(n, d if family == "fh" else 0, 0.5)


def brq_rows(n, d):
    return quadrature.unit_weight_rows(n, d, 0.0)


def params_with(dividend, rate=0.08):
    return MarketParams(strike=100.0, expiry=3.0, rate=rate, dividend=dividend,
                        volatility=0.2)


class TestInitialBoundary:
    def test_dividend_equal_rate(self):
        assert initial_boundary(params_with(0.08)) == 100.0

    def test_dividend_above_rate(self):
        assert initial_boundary(params_with(0.12)) == pytest.approx(100.0 * 0.08 / 0.12)

    def test_zero_dividend(self):
        assert initial_boundary(params_with(0.0)) == 100.0


class TestPerpetualLowerBound:
    def test_benchmark_parameters(self):
        # theta = (0.02 - sqrt(0.0068)) / 0.04, frozen from the radical
        bound = perpetual_lower_bound(params_with(0.08))
        assert bound == pytest.approx(60.96117967977924, abs=1e-12)
        mu = 0.08 - 0.08 - 0.5 * 0.04
        theta = (-mu - math.sqrt(mu * mu + 2 * 0.04 * 0.08)) / 0.04
        assert bound == pytest.approx(theta * 100.0 / (theta - 1.0), abs=1e-13)

    def test_zero_dividend_exact_rational(self):
        # radical is exact: (0.06)^2 + 0.0064 = 0.01, theta = -4, bound = 80
        assert perpetual_lower_bound(params_with(0.0)) == pytest.approx(80.0, abs=1e-12)

    def test_below_strike(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = MarketParams(strike=100.0, expiry=1.0,
                             rate=rng.uniform(0.01, 0.2),
                             dividend=rng.uniform(0.0, 0.2),
                             volatility=rng.uniform(0.05, 0.6))
            bound = perpetual_lower_bound(p)
            assert 0.0 < bound < p.strike

    def test_zero_rate_degenerates(self):
        assert perpetual_lower_bound(params_with(0.1, rate=0.0)) == 0.0


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(n=32, d=2)
        assert cfg.newton_tol == 1e-12
        assert cfg == SolverConfig(n=32, d=2, hybrid_m=2)

    @pytest.mark.parametrize("kwargs", [
        dict(n=2, d=2), dict(n=8, d=-1), dict(n=8, d=2, family="spline"),
        dict(n=8, d=2, hybrid_m=1), dict(n=8, d=2, newton_tol=0.0),
        dict(n=16, d=2, newton_tol=math.inf), dict(n=16, d=2, newton_tol=math.nan),
        dict(n=16, d=2, newton_tol=1e-2), dict(n=16, d=2, newton_tol=1.0),
        # integer fields: a float or bool would fail inside the solve or be solved
        dict(n=32.0, d=2), dict(n=32, d=2.0), dict(n=32, d=2, hybrid_m=2.5),
        dict(n=32, d=2, hybrid_m=3.0), dict(n=True, d=0), dict(n=32, d=True),
        dict(n=8, d=2, hybrid_m=None),
    ])
    def test_invalid_rejected(self, kwargs):
        # newton_tol is a class constant, so any value passed for it is
        # rejected at the call, before the range checks run.
        expected = TypeError if "newton_tol" in kwargs else ValueError
        with pytest.raises(expected):
            SolverConfig(**kwargs)

    def test_newton_tol_is_not_an_argument(self):
        for tol in (0.0, math.inf, math.nan, 1e-2, 1.0, 1e-10):
            with pytest.raises(TypeError):
                SolverConfig(n=16, d=2, newton_tol=tol)


class TestSolveBoundary:
    def test_expiry_limits(self, figure1_curves):
        for dividend, curve in figure1_curves.items():
            expected = 100.0 if dividend <= 0.08 else 100.0 * 0.08 / dividend
            assert curve.values[0] == pytest.approx(expected, abs=1e-12)

    def test_monotone_nonincreasing(self, figure1_curves):
        for curve in figure1_curves.values():
            assert np.all(np.diff(curve.values) <= 1e-9 * 100.0)

    def test_strictly_below_strike_away_from_expiry(self, figure1_curves):
        for dividend in (0.0, 0.04, 0.08):
            assert figure1_curves[dividend].values[-1] < 100.0

    def test_higher_dividend_lies_below(self, figure1_curves):
        b_low = figure1_curves[0.08].values
        b_high = figure1_curves[0.12].values
        assert np.all(b_high <= b_low + 1e-9)

    def test_perpetual_bracketing(self, figure1_curves):
        for dividend, curve in figure1_curves.items():
            lower = perpetual_lower_bound(curve.params)
            upper = initial_boundary(curve.params)
            assert np.all(curve.values >= lower - 1e-6)
            assert np.all(curve.values <= upper + 1e-6)

    def test_residual_certificate(self, figure1_curves):
        for curve in figure1_curves.values():
            residuals = collocation_residuals(curve)
            assert residuals.max() <= 1e-10 * 100.0
            assert curve.diagnostics.residuals.max() <= 1e-10 * 100.0

    def test_diagnostics_populated(self, curve_n32_d2):
        diag = curve_n32_d2.diagnostics
        assert np.all(diag.iterations[1:] >= 1)
        assert diag.wall_time > 0.0
        assert diag.newton_s > 0.0
        assert diag.weights_s + diag.newton_s <= diag.wall_time
        assert diag.flags == ()

    def test_curves_compare_and_hash_by_identity(self, curve_n32_d2):
        again = solve_boundary(SolverConfig(n=32, d=2), TABLE3_PARAMS)
        assert curve_n32_d2 == curve_n32_d2 and curve_n32_d2 != again
        assert {curve_n32_d2, again, curve_n32_d2} == {curve_n32_d2, again}

    def test_nested_grid_discrepancy_shrinks_without_dividend(self):
        p = params_with(0.0)
        curves = {n: solve_boundary(SolverConfig(n=n, d=2), p)
                  for n in (32, 64, 128, 256)}
        gaps = []
        for n in (32, 64, 128):
            coarse, fine = curves[n], curves[2 * n]
            mask = coarse.grid >= 3.0 / 8.0
            gaps.append(np.max(np.abs(coarse.values[mask]
                                      - fine.values[::2][mask])))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            solve_boundary(SolverConfig(n=8, d=2), params_with(0.1, rate=0.0))

    def test_berrut_product_family(self):
        curve = solve_boundary(SolverConfig(n=16, d=2, family=BFH), TABLE3_PARAMS)
        assert curve.values[0] == 100.0
        assert np.all(np.diff(curve.values) <= 1e-9 * 100.0)
        assert collocation_residuals(curve).max() <= 1e-10 * 100.0

    def test_weight_tables_shared_across_dividends(self):
        # one table build per weight kind, counted as misses of the cached builder
        def builds():
            return quadrature.unit_weight_rows.cache_info().misses

        cfg = SolverConfig(n=16, d=2)
        clear_weight_cache()
        solve_boundary(cfg, params_with(0.0))
        assert builds() == 1  # the product table alone: no dividend terms
        solve_boundary(cfg, params_with(0.08))
        assert builds() == 2  # the BRQ table joins; the product table is read
        # rows are horizon-free; pricing reuses the BRQ rows on and off the nodes
        short = MarketParams(strike=100.0, expiry=0.5, rate=0.08, dividend=0.08,
                             volatility=0.2)
        curve = solve_boundary(cfg, short)
        american_put_price(0.5, 110.0, curve)
        american_put_price(0.2, 110.0, curve)
        assert builds() == 2
        clear_weight_cache()
        assert quadrature.unit_weight_rows.cache_info().currsize == 0
        solve_boundary(cfg, params_with(0.08))
        assert builds() == 2

    def test_diagnostics_report_table_builds(self):
        cfg = SolverConfig(n=16, d=2)
        clear_weight_cache()
        cold = solve_boundary(cfg, params_with(0.08)).diagnostics
        assert cold.weights_cached is False
        assert 0.0 < cold.weights_s <= cold.wall_time
        warm = solve_boundary(cfg, params_with(0.08)).diagnostics
        assert warm.weights_cached is True

    @pytest.mark.parametrize("d,alpha", [(2, 0.5), (0, 0.5), (2, 0.0)],
                             ids=["fh", "bfh", "fh-alpha0"])
    def test_rows_converged_in_gauss_points(self, monkeypatch, d, alpha):
        # 16 points per unit subinterval already give the 32-point rows
        n = 128
        rows = quadrature.unit_weight_rows(n, d, alpha)
        monkeypatch.setattr(quadrature, "_POINTS", 32)
        fine = quadrature.unit_weight_rows.__wrapped__(n, d, alpha)
        np.testing.assert_allclose(rows, fine, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("family", ["fh", BFH])
    @pytest.mark.parametrize("horizon", [0.25, 3.0])
    def test_unit_rows_scale_to_direct_weights(self, family, horizon):
        n, d = 16, 2
        grid = np.linspace(0.0, horizon, n + 1)
        h = horizon / n
        for i in range(1, n + 1):
            sub = grid[: i + 1]
            basis = BaryBasis(sub, min(d, i) if family == "fh" else 0)
            scaled = math.sqrt(h) * product_rows(n, d, family)[i, : i + 1]
            np.testing.assert_allclose(scaled, boundary.product_weights(basis),
                                       rtol=0.0, atol=1e-13)
            direct = boundary.brq_weights(BaryBasis(sub, min(d, i)))
            np.testing.assert_allclose(h * brq_rows(n, d)[i, : i + 1], direct,
                                       rtol=0.0, atol=1e-13)

    def test_curve_grid_is_basis_nodes(self):
        # one read-only node array prices and evaluates the curve
        for cfg in (SolverConfig(n=8, d=2), SolverConfig(n=8, d=2, hybrid_m=3)):
            curve = solve_boundary(cfg, TABLE3_PARAMS)
            assert curve.grid is curve.basis.nodes
            with pytest.raises(ValueError):
                curve.grid[5] += 0.05

    def test_cached_rows_read_only(self):
        # cached rows are shared by every solve and every price
        for n in (1, 5):
            assert brq_rows(n, 2).flags.writeable is False
            for family in ("fh", BFH):
                assert product_rows(n, 2, family).flags.writeable is False


def _paper_residual(b, i, grid, prior, w, om, p):
    """Product row residual as the paper writes it: both exponential kernels
    and the two scalar phi terms at t_i."""
    t_i = grid[i]
    r, delta, k, vol = p.rate, p.dividend, p.strike, p.volatility
    pref = 1.0 / (vol * math.sqrt(2.0 * math.pi))
    d1, d2 = _d1d2(b, t_i, k, p)
    f = -b * math.exp(-delta * t_i) * norm_cdf(d1)
    f += k * math.exp(-r * t_i - 0.5 * d2 * d2) * pref / math.sqrt(t_i)
    f -= b * math.exp(-delta * t_i - 0.5 * d1 * d1) * pref / math.sqrt(t_i)
    tau = t_i - grid[:i]
    sig = vol * np.sqrt(tau)
    d1j = (np.log(b / prior) + (r - delta + 0.5 * vol * vol) * tau) / sig
    d2j = d1j - sig
    kern = (r * k * np.exp(-r * tau - 0.5 * d2j * d2j)
            - delta * b * np.exp(-delta * tau - 0.5 * d1j * d1j))
    f += pref * (w[:i] @ kern + w[i] * (r * k - delta * b))
    if delta > 0.0:
        smooth = np.exp(-delta * tau) * np.array([norm_cdf(x) for x in d1j])
        f -= delta * b * (om[:i] @ smooth + 0.5 * om[i])
    return f


class TestRowResidual:
    """The row residual returns its exact slope alongside its value."""

    @staticmethod
    def check_slope(row, b):
        value, slope = row(b)
        step = 1e-6 * b
        central = (row(b + step)[0] - row(b - step)[0]) / (2.0 * step)
        assert abs(slope - central) <= 1e-6 * abs(slope)
        return value

    @pytest.mark.parametrize("family", ["fh", BFH])
    @pytest.mark.parametrize("dividend", [0.0, 0.08])
    def test_product_rows(self, family, dividend):
        n, d = 16, 2
        p = params_with(dividend)
        cfg = SolverConfig(n=n, d=d, family=family)
        values = solve_boundary(cfg, p).values
        grid, build_row = boundary._row_residual(cfg, p)
        h = p.expiry / n
        logs = np.array([math.log(b) for b in values])
        rks = p.rate * p.strike - p.dividend * values
        for i in (1, 2, 7, 16):
            row = build_row(i, values[:i], logs[:i], rks[:i])
            w = math.sqrt(h) * product_rows(n, d, family)[i, : i + 1]
            om = h * brq_rows(n, d)[i, : i + 1]
            for b in (0.9 * values[i], values[i], 1.01 * values[i]):
                value = self.check_slope(row, b)
                paper = _paper_residual(b, i, grid, values[:i], w, om, p)
                assert abs(value - paper) <= 1e-12 * p.strike

    @pytest.mark.parametrize("dividend", [0.0, 0.08])
    def test_trapezoid_rows(self, dividend):
        n = 16
        p = params_with(dividend)
        curve = solve_boundary_kim2d(n, p)
        values = curve.values
        for i in (1, 2, 7, 16):
            row = kim2d_row(i, curve.grid, values[:i], p)
            for b in (0.9 * values[i], values[i], 1.01 * values[i]):
                self.check_slope(row, b)


def counting_residual(monkeypatch):
    """Wrap the rows boundary._row_residual builds so that every row eval of a solve is counted."""
    evals = []
    make = boundary._row_residual

    def counted(*args):
        grid, build_row = make(*args)

        def build(*row_args):
            row = build_row(*row_args)
            return lambda b: evals.append(b) or row(b)

        return grid, build

    monkeypatch.setattr(boundary, "_row_residual", counted)
    return evals


class TestResidualEvals:
    def test_one_eval_per_newton_step(self, monkeypatch):
        evals = counting_residual(monkeypatch)
        diag = solve_boundary(SolverConfig(n=16, d=2), TABLE3_PARAMS).diagnostics
        assert diag.bisections == 0
        assert diag.residual_evals == diag.iterations.sum() == len(evals)
        assert diag.newton_steps == diag.residual_evals

    def test_bisection_evals_counted(self, monkeypatch):
        # one Newton step per row, then bisection: its two bracket ends and
        # one eval per bisection step, all in the row's recorded count
        monkeypatch.setattr(boundary, "_NEWTON_MAX_ITER", 1)
        evals = counting_residual(monkeypatch)
        curve = solve_boundary(SolverConfig(n=8, d=2), TABLE3_PARAMS)
        diag = curve.diagnostics
        assert diag.residual_evals == diag.iterations.sum() == len(evals)
        assert diag.bisections == 8
        assert diag.newton_steps == 8  # bracket ends and bisection steps excluded
        assert np.all(diag.iterations[1:] > 3)
        assert collocation_residuals(curve).max() <= 1e-12 * 100.0

    def test_bisection_finds_the_newton_roots(self, monkeypatch):
        # nodes dip below the perpetual bound here; bisection searches the
        # interval the Newton steps live in, so it finds their roots
        p = MarketParams(strike=100.0, expiry=10.0, rate=0.08, dividend=0.5, volatility=0.2)
        newton = solve_boundary(SolverConfig(n=32, d=2), p).values
        monkeypatch.setattr(boundary, "_NEWTON_MAX_ITER", 1)
        curve = solve_boundary(SolverConfig(n=32, d=2), p)
        assert curve.diagnostics.bisections == 32
        np.testing.assert_allclose(curve.values, newton, rtol=0.0, atol=1e-7)

    def test_no_bisection_on_table3(self, curve_n32_d2):
        assert curve_n32_d2.diagnostics.bisections == 0

    @pytest.mark.parametrize("dividend,flat_start_evals", [(0.08, 554), (0.0, 532)])
    def test_extrapolated_start_saves_evals(self, dividend, flat_start_evals):
        # starting each row from B_(i-1) took flat_start_evals on this market
        diag = solve_boundary(SolverConfig(n=128, d=2), params_with(dividend)).diagnostics
        assert diag.bisections == 0
        assert diag.residual_evals <= 0.8 * flat_start_evals

    @pytest.mark.parametrize("dividend,quadratic_start_evals", [(0.08, 409), (0.0, 413)])
    def test_sqrt_start_saves_evals(self, dividend, quadratic_start_evals):
        # the quadratic extrapolation 3 (B_(i-1) - B_(i-2)) + B_(i-3) from
        # row 3 on took quadratic_start_evals
        diag = solve_boundary(SolverConfig(n=128, d=2), params_with(dividend)).diagnostics
        assert diag.bisections == 0
        assert diag.residual_evals <= 0.8 * quadratic_start_evals

    def test_sqrt_start_below_the_perpetual_bound(self):
        # nodes sit below the perpetual bound here; with starts clamped into
        # [perpetual bound, B_0], every row restarted from the bound and the
        # solve took 512 evals
        p = MarketParams(strike=100.0, expiry=10.0, rate=0.08, dividend=0.5, volatility=0.2)
        diag = solve_boundary(SolverConfig(n=128, d=2), p).diagnostics
        assert diag.bisections == 0
        assert diag.residual_evals <= 0.6 * 512

    @pytest.mark.parametrize("n", [32, 128])
    @pytest.mark.parametrize("dividend", [0.0, 0.08])
    @pytest.mark.parametrize("family", ["fh", BFH])
    def test_certificate_repeats_solve_residuals(self, family, dividend, n):
        # one residual for solve and certificate: the rows are rebuilt bit for bit
        curve = solve_boundary(SolverConfig(n=n, d=2, family=family), params_with(dividend))
        np.testing.assert_array_equal(collocation_residuals(curve),
                                      curve.diagnostics.residuals[1:])


class TestNewtonStart:
    """Rows from _SQRT_START on start from a polynomial in u = sqrt(t) through
    the k = min(5, (i - 1) // 2) same-parity nodes B_(i-2k), ..., B_(i-2)."""

    @pytest.mark.parametrize("n", [5, 11, 32, 128, 256])
    def test_weights_reproduce_polynomials_in_sqrt_t(self, n):
        weights = boundary._start_weights(n)
        assert weights.shape == (n + 1 - boundary._SQRT_START, 5)
        rng = np.random.default_rng(n)
        for i, row in enumerate(weights, start=boundary._SQRT_START):
            k = min(5, (i - 1) // 2)
            assert not row[:5 - k].any()
            # h cancels: a polynomial in sqrt(j h) is one in sqrt(j)
            u_nodes = np.sqrt(np.arange(i - 2 * k, i - 1, 2))
            for coeffs in [*np.eye(k), *rng.uniform(0.1, 1.0, (4, k))]:
                got = row[5 - k:].dot(np.polyval(coeffs, u_nodes))
                exact = np.polyval(coeffs, math.sqrt(i))
                assert got == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_weights_cached_read_only(self):
        # they depend on n alone and are shared by every solve on n intervals
        weights = boundary._start_weights(32)
        assert weights.flags.writeable is False
        assert boundary._start_weights(32) is weights
        clear_weight_cache()
        assert boundary._start_weights(32) is not weights

    def test_start_of_each_row(self, monkeypatch):
        starts = []
        newton = boundary._newton_scalar

        def recorded(f, x0, *args):
            starts.append(x0)
            return newton(f, x0, *args)

        monkeypatch.setattr(boundary, "_newton_scalar", recorded)
        values = solve_boundary(SolverConfig(n=16, d=2), TABLE3_PARAMS).values
        for i in range(1, boundary._SQRT_START):
            assert starts[i - 1] == values[i - 1]
        weights = boundary._start_weights(16)
        for i in range(boundary._SQRT_START, 17):
            k = min(5, (i - 1) // 2)
            row = weights[i - boundary._SQRT_START, 5 - k:]
            assert starts[i - 1] == float(row.dot(values[i - 2 * k:i - 1:2]))

    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(0.005, 0.3), dividend=st.floats(0.0, 0.5),
           vol=st.floats(0.05, 0.8), expiry=st.floats(0.02, 10.0),
           n=st.sampled_from([16, 32, 64]))
    @example(rate=0.3, dividend=0.0, vol=0.05, expiry=10.0, n=64)
    def test_every_solve_converges_or_raises_property(self, rate, dividend, vol, expiry, n):
        p = MarketParams(strike=100.0, expiry=expiry, rate=rate, dividend=dividend,
                         volatility=vol)
        try:
            curve = solve_boundary(SolverConfig(n=n, d=2), p)
        except boundary.SolverError:
            # the known corner: a perpetual bound within 3% of the strike, on
            # any n and row (a curve that climbs past the search interval)
            assert perpetual_lower_bound(p) > 0.97 * p.strike
            return
        diag = curve.diagnostics
        assert collocation_residuals(curve).max() <= 1e-12 * p.strike
        assert diag.residual_evals == diag.iterations.sum()


class TestLowVolCorner:
    """delta < r with sigma this low: row 1's root lies above the strike on
    coarse grids, and finer grids give a rising, flagged curve."""

    P = MarketParams(strike=100.0, expiry=7.06, rate=0.216, dividend=0.008, volatility=0.052)

    @pytest.mark.parametrize("n", [16, 32])
    def test_coarse_grids_raise_at_row_1(self, n):
        with pytest.raises(boundary.SolverError) as info:
            solve_boundary(SolverConfig(n=n, d=2), self.P)
        assert info.value.step == 1

    def test_rise_is_flagged(self):
        curve = solve_boundary(SolverConfig(n=64, d=2), self.P)
        assert collocation_residuals(curve).max() <= 1e-12 * self.P.strike
        rises = {row: value for row, kind, value in curve.diagnostics.flags
                 if kind == "non_monotone"}
        for row in (4, 5, 6):
            assert 0.005 < rises[row] < 0.01


class TestFlags:
    def test_table3_has_none(self, curve_n32_d2):
        assert curve_n32_d2.diagnostics.flags == ()
        curve = solve_boundary(SolverConfig(n=128, d=2), TABLE3_PARAMS)
        assert curve.diagnostics.flags == ()

    def test_market_below_the_perpetual_bound_is_flagged(self):
        p = MarketParams(strike=100.0, expiry=10.0, rate=0.08, dividend=0.5, volatility=0.2)
        curve = solve_boundary(SolverConfig(n=128, d=2), p)
        flags = curve.diagnostics.flags
        values, lower = curve.values, perpetual_lower_bound(p)
        below = [(i, "outside_bounds", values[i]) for i in range(1, 129) if values[i] < lower]
        assert below and [f for f in flags if f[1] == "outside_bounds"] == below
        rises = [(i, "non_monotone", values[i] - values[i - 1]) for i in range(1, 129)
                 if values[i] - values[i - 1] > 1e-9 * 100.0]
        assert rises and [f for f in flags if f[1] == "non_monotone"] == rises
        assert [f[0] for f in flags] == sorted(f[0] for f in flags)

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("rate", [0.02, 0.05, 0.08])
    def test_row_1_below_the_perpetual_bound_solves(self, rate, n):
        # B_0 = (r / delta) K lies only 1-1.2% above the perpetual bound, and
        # row 1's root about 1.5% below it
        p = MarketParams(strike=100.0, expiry=10.0, rate=rate, dividend=0.5, volatility=0.1)
        curve = solve_boundary(SolverConfig(n=n, d=2), p)
        assert collocation_residuals(curve).max() <= 1e-12 * p.strike
        assert (1, "outside_bounds", curve.values[1]) in curve.diagnostics.flags
        assert curve.values[1] < perpetual_lower_bound(p)

    def test_bisection_rows_flagged(self, monkeypatch):
        monkeypatch.setattr(boundary, "_NEWTON_MAX_ITER", 1)
        diag = solve_boundary(SolverConfig(n=8, d=2), TABLE3_PARAMS).diagnostics
        assert diag.flags == tuple((i, "bisection", float(diag.iterations[i]))
                                   for i in range(1, 9))


class TestNewtonScalar:
    """The row solver's fallback exits on synthetic rows over the interval [60, 100]."""

    TOL = 1e-9

    def solve(self, f, x0=100.0):
        return boundary._newton_scalar(f, x0, 60.0, 100.0, self.TOL, 5)

    def test_escaping_step_falls_back(self):
        # slope 1e-3 sends the first step far below the bracket
        b, evals, res, steps = self.solve(lambda b: (b - 70.0, 1e-3))
        assert res <= self.TOL
        assert b == pytest.approx(70.0, abs=1e-9)
        assert (evals, steps) == (5, 1)  # one Newton step, two bracket ends, mids 80 and 70

    def test_root_at_bracket_end(self):
        b, evals, res, steps = self.solve(lambda b: (b - 60.0, 1e-3))
        assert (b, evals, res, steps) == (60.0, 3, 0.0, 1)

    def test_newton_root_counts_every_eval_as_a_step(self):
        b, evals, res, steps = self.solve(lambda b: (b - 70.0, 1.0), x0=90.0)
        assert (b, res) == (70.0, 0.0)
        assert evals == steps == 2  # the step from 90, then the eval that accepts 70

    def test_no_sign_change(self):
        with pytest.raises(boundary.SolverError, match="no sign change") as info:
            self.solve(lambda b: (b - 50.0, 1e-3))
        assert info.value.step == 5
        assert info.value.residual == pytest.approx(10.0)

    @pytest.mark.parametrize("slope,landing", [(1.0 / 3.0, -10.0), (20.0 / 45.0, 5.0)])
    def test_step_below_the_floor_falls_back(self, slope, landing):
        # steps are accepted only inside [20, 100], whose floor keeps a row's
        # ln(b) defined: the step from 50 to `landing` escapes to bisection
        def row(b):
            if b <= 0.0:
                raise ValueError("math domain error")
            return b - 30.0, slope

        b, evals, res, steps = boundary._newton_scalar(row, 50.0, 20.0, 100.0, self.TOL, 5)
        assert b == pytest.approx(30.0, abs=1e-9) and res <= self.TOL
        assert steps == 1 and evals > 3

    @pytest.mark.parametrize("x0,first", [
        (70.0, 70.0),  # inside [60, 100]: kept
        (30.0, 60.0),  # below it: clamped to lo
        (-5.0, 60.0),  # below 0, where a row's ln(b) fails: clamped to lo
        (130.0, 100.0),  # above it: clamped to hi
    ])
    def test_start_clamped_into_the_interval(self, x0, first):
        calls = []
        self.solve(lambda b: calls.append(b) or (b - 80.0, 1.0), x0)
        assert calls[0] == first

    def test_stalls_at_adjacent_doubles(self):
        calls = []

        def jump(b):  # changes sign at 70 but is never within tolerance
            calls.append(b)
            return (1.0 if b > 70.0 else -1.0), 0.0

        with pytest.raises(boundary.SolverError, match="stalled") as info:
            self.solve(jump)
        assert info.value.step == 5 and info.value.residual == 1.0
        assert len(calls) <= 64
        # the last bracket is two adjacent doubles around the jump
        lo, hi = max(c for c in calls if c <= 70.0), min(c for c in calls if c > 70.0)
        assert math.nextafter(lo, hi) == hi


def test_solve_reads_cached_rows_without_copies():
    # a solve scales no weight table: each row reads the cached unit rows
    cfg = SolverConfig(n=256, d=2)
    solve_boundary(cfg, TABLE3_PARAMS)  # builds and caches the tables
    tracemalloc.start()
    try:
        solve_boundary(cfg, TABLE3_PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 257 * 257 * 8


class TestHybrid:
    def test_node_accounting(self):
        cfg = SolverConfig(n=3, d=2, hybrid_m=3)
        curve = solve_boundary(cfg, TABLE3_PARAMS)
        assert curve.grid.size == 7  # n (m - 1) + 1
        assert curve.diagnostics.iterations.size == 4  # one per Newton row

    def test_m2_matches_plain_solve(self):
        hybrid = solve_boundary(SolverConfig(n=16, d=2, hybrid_m=2), TABLE3_PARAMS)
        plain = solve_boundary(SolverConfig(n=16, d=2), TABLE3_PARAMS)
        assert np.max(np.abs(hybrid.values - plain.values)) <= 1e-14

    def test_interior_points_linear(self):
        cfg = SolverConfig(n=8, d=2, hybrid_m=4)
        curve = solve_boundary(cfg, TABLE3_PARAMS)
        coarse = solve_boundary(SolverConfig(n=8, d=2), TABLE3_PARAMS)
        assert curve.grid.size == 25  # 8 Newton intervals, 2 interior points each
        # coarse nodes appear unchanged; interior nodes sit on chords
        assert np.max(np.abs(curve.values[::3] - coarse.values)) <= 1e-14
        chord = 0.5 * (coarse.values[:-1] + coarse.values[1:])
        mid = 0.5 * (curve.values[1::3] + curve.values[2::3])
        assert np.max(np.abs(mid - chord)) <= 1e-12
        # interpolated nodes were never collocated, so there is no certificate
        with pytest.raises(ValueError):
            collocation_residuals(curve)


class TestKim2d:
    def test_expiry_limit(self):
        curve = solve_boundary_kim2d(16, TABLE3_PARAMS)
        assert curve.values[0] == 100.0
        assert np.all(np.diff(curve.values) <= 1e-9 * 100.0)

    def test_agreement_with_product_scheme_improves(self):
        gaps = []
        for n in (16, 32, 64):
            trapezoid = solve_boundary_kim2d(n, TABLE3_PARAMS)
            product = solve_boundary(SolverConfig(n=n, d=2), TABLE3_PARAMS)
            gaps.append(np.max(np.abs(trapezoid.values - product.values)))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_residual_certificate(self):
        values = solve_boundary_kim2d(16, TABLE3_PARAMS).values
        grid = np.linspace(0.0, 3.0, 17)
        residuals = [kim2d_row(i, grid, values[:i], TABLE3_PARAMS)(values[i])[0]
                     for i in range(1, 17)]
        assert max(map(abs, residuals)) <= 1e-10 * 100.0


class TestEvalBoundary:
    def test_nodes_exact(self, curve_n64_d3):
        for k in (0, 5, 33, 64):
            assert eval_boundary(curve_n64_d3, curve_n64_d3.grid[k]) \
                == curve_n64_d3.values[k]

    def test_expiry_value(self, curve_n64_d3):
        assert eval_boundary(curve_n64_d3, 0.0) == curve_n64_d3.values[0]

    def test_vector_evaluation(self, curve_n64_d3):
        ts = np.linspace(0.0, 3.0, 17)
        values = eval_boundary(curve_n64_d3, ts)
        assert values.shape == ts.shape

    @pytest.mark.parametrize("t", [1.7283, np.float64(1.7283), np.array(1.7283)])
    def test_scalar_gives_float(self, curve_n64_d3, t):
        value = eval_boundary(curve_n64_d3, t)
        assert type(value) is float
        assert value == eval_boundary(curve_n64_d3, [t])[0]

    def test_list_gives_array_of_its_length(self, curve_n64_d3):
        values = eval_boundary(curve_n64_d3, [0.0, 1.7283, 3.0])
        assert isinstance(values, np.ndarray)
        assert values.shape == (3,)
        assert values[-1] == curve_n64_d3.values[-1]

    @settings(max_examples=100, deadline=None)
    @given(expiry=st.floats(0.02, 10.0), n=st.integers(1, 64),
           family=st.sampled_from(["fh", BFH]), hybrid_m=st.sampled_from([2, 3, 5]))
    def test_last_node_is_expiry_property(self, expiry, n, family, hybrid_m):
        # pricing and eval_boundary read T from the market, so every solved grid
        # must end on it bit for bit
        p = MarketParams(strike=100.0, expiry=expiry, rate=0.08, dividend=0.08,
                         volatility=0.2)
        curve = solve_boundary(SolverConfig(n=n, d=min(2, n - 1), family=family,
                                            hybrid_m=hybrid_m), p)
        assert curve.grid[-1] == curve.params.expiry
        assert eval_boundary(curve, expiry) == curve.values[-1]

    def test_out_of_range_rejected(self, curve_n64_d3):
        with pytest.raises(ValueError):
            eval_boundary(curve_n64_d3, -0.1)
        with pytest.raises(ValueError):
            eval_boundary(curve_n64_d3, 3.1)

    def test_nan_rejected(self, curve_n64_d3):
        with pytest.raises(ValueError):
            eval_boundary(curve_n64_d3, float("nan"))
        with pytest.raises(ValueError):
            eval_boundary(curve_n64_d3, np.array([1.0, np.nan]))

    def test_no_spurious_oscillation_between_nodes(self, curve_n64_d3):
        # interior intervals only: the terminal interval carries the tail of
        # the solution error and can dip a few 1e-3 below the last node
        curve = curve_n64_d3
        d = curve.basis.degree
        grid, values = curve.grid, curve.values
        for k in range(grid.size - 2):
            ts = np.linspace(grid[k], grid[k + 1], 22)[1:-1]
            sampled = eval_boundary(curve, ts)
            for t, v in zip(ts, sampled):
                nearest = np.argsort(np.abs(grid - t))[: d + 2]
                lo, hi = values[nearest].min(), values[nearest].max()
                assert lo - 1e-9 <= v <= hi + 1e-9


# Values frozen from the solver with separate zero-dividend and dividend
# residuals: n = 32, d = 2 node values on the Table-3 market with the given
# dividend yield, the five Table-3 prices at t = T, and trapezoid nodes at
# n = 16.  The single residual must reproduce them.  The Table-3 prices at
# the off-node t = 1.3 were frozen from horizon-keyed weight tables that
# pricing rebuilt per call; the shared unit-spacing rows must reproduce them.
_FROZEN = {
    (0.0, "fh"): (
        100.0, 91.05224558320029, 89.63395082678971, 88.33107210857362,
        87.52398094783157, 86.79399822048207, 86.26297103722833,
        85.76994178405907, 85.38104589144736, 85.01632924678168,
        84.71435723256525, 84.42977255578347, 84.18630191664812,
        83.95626920206365, 83.7547095847818, 83.564032118888, 83.39385634401714,
        83.2327814247033, 83.08689654506922, 82.94880190475646,
        82.82220718534275, 82.70239807055614, 82.59144032012628,
        82.48647318059484, 82.38840613634055, 82.29568450692913,
        82.20839445171043, 82.12591538492462, 82.04774300221494,
        81.97393145157483, 81.9035520751365, 81.83714903167643,
        81.77348974747184,
    ),
    (0.0, "bfh"): (
        100.0, 91.05224558320029, 89.59626029997327, 88.30353826168584,
        87.50280970443787, 86.78006450363024, 86.25135991495159,
        85.76065798723292, 85.37416866394923, 85.00967079753829,
        84.71025205197027, 84.42484520524745, 84.1840054809688,
        83.9525762461225, 83.75368264300234, 83.56126442390946,
        83.39376776718348, 83.23073256355927, 83.08752870743406,
        82.94732706466144, 82.82340946888236, 82.7013918137807,
        82.59310417319277, 82.48585644937847, 82.39045073974525,
        82.2953965849149, 82.21075801087801, 82.12590869811186,
        82.05037721049615, 81.97416808218549, 81.9064184568592,
        81.8375983093721, 81.77655716341289,
    ),
    (0.08, "fh"): (
        100.0, 86.25020265506416, 82.96982815590262, 80.6910879817115,
        79.05705138576322, 77.70519690875858, 76.62228815461609,
        75.66565615874279, 74.86127362319884, 74.12683135093775,
        73.49201474389064, 72.90057830485279, 72.38013945900771,
        71.88855796553537, 71.45051269044225, 71.03258703849207,
        70.65668702563622, 70.29528548013474, 69.96788157663283,
        69.65117650967572, 69.36262465369832, 69.08210384781012,
        68.82533543201838, 68.57466796766883, 68.34434750521947,
        68.1186974484329, 67.91069932740139, 67.70629013360008,
        67.5173593141898, 67.3311863186905, 67.15871032510171,
        66.98834465287852, 66.83019567586645,
    ),
    (0.08, "bfh"): (
        100.0, 86.25020265506416, 83.02726093960538, 80.65338316041256,
        79.08362443274527, 77.6827264693461, 76.63872704259498,
        75.64925176889929, 74.8727993002358, 74.11376601045289,
        73.50072443085665, 72.88965744581388, 72.3870573389412,
        71.87914548943046, 71.45620758024577, 71.02430125124994,
        70.6615042645808, 70.28787802092073, 69.97204492208479,
        69.64447600924358, 69.36628645184499, 69.07598667562965,
        68.82860352964138, 68.56904175527913, 68.34730068485355,
        68.1134912052194, 67.9133966474701, 67.70144801114856,
        67.51984601527569, 67.32666351164393, 67.1610217046377,
        66.98410461021045, 66.83235971053627,
    ),
    "table3_prices": (
        22.204605772977224, 16.206952123814844, 11.703816192620117,
        8.367013522655014, 5.929829418925312,
    ),
    "table3_prices_t1.3": (
        20.776740440471105, 13.608718376660645, 8.409411737139836,
        4.918417120977308, 2.740311889054092,
    ),
    "kim2d": (
        100.0, 83.83530530555997, 79.314877867738, 76.76076563683999,
        74.95305085621165, 73.5599930468378, 72.4341412145161,
        71.49551908495566, 70.69552112459817, 70.00227410030791,
        69.39370112861818, 68.85386226873793, 68.37086622680287,
        67.9356043547146, 67.54094533611519, 67.18120232884625,
        66.85176866772288,
    ),
}


@pytest.mark.parametrize("case", list(_FROZEN),
                         ids=lambda c: c if isinstance(c, str) else "delta%s-%s" % c)
def test_frozen_values(case):
    if case == "kim2d":
        got = solve_boundary_kim2d(16, TABLE3_PARAMS).values
    elif isinstance(case, str):
        # t = T prices on the curve nodes, t = 1.3 on the off-node premium grid
        t = 1.3 if case.endswith("t1.3") else 3.0
        curve = solve_boundary(SolverConfig(n=32, d=2), TABLE3_PARAMS)
        got = [american_put_price(t, s, curve).value
               for s in (80.0, 90.0, 100.0, 110.0, 120.0)]
    else:
        dividend, family = case
        got = solve_boundary(SolverConfig(n=32, d=2, family=family),
                             params_with(dividend)).values
    np.testing.assert_allclose(got, _FROZEN[case], rtol=0.0, atol=1e-10)
