import dataclasses
import itertools
import math
import re
import sys
import time
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import kimvolterra.boundary as boundary
import kimvolterra.quadrature as quadrature
from kimvolterra import (
    BFH,
    ConfigurationError,
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

from kimvolterra.barycentric import BaryBasis, basis_matrix
from kimvolterra.market import _d1d2

from conftest import TABLE3_PARAMS, kim2d_row, solve_boundary_kim2d


def product_rows(n, d, family):
    """Cached unit product rows 0..n of a solve; Berrut's basis is order 0."""
    return quadrature.unit_weight_rows(n, d if family == "fh" else 0, 0.5)[0]


def brq_rows(n, d):
    return quadrature.unit_weight_rows(n, d, 0.0)[0]


def params_with(dividend, rate=0.08):
    return MarketParams(strike=100.0, expiry=3.0, rate=rate, dividend=dividend,
                        volatility=0.2)


def row_scale(cfg, p):
    """The s of boundary._row_residual(cfg, p): its rows solve the strike K / s in [1, 2)."""
    return boundary._strike_scale(p.strike)


def solved_rows(cfg, p):
    """The solved nodes on the rows' scale, divided by ``row_scale``, and i -> row i of
    boundary._row_residual(cfg, p) at them."""
    s = row_scale(cfg, p)
    values = solve_boundary(cfg, p).values / s
    *_, build_row = boundary._row_residual(cfg, p)
    logs = np.array([math.log(b) for b in values])
    rks = p.rate * (p.strike / s) - p.dividend * values
    return values, lambda i: build_row(i, values[:i], logs[:i], rks[:i])


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

    @pytest.mark.parametrize("p", [
        # sigma^2 underflows to 0.0, which the exponent divides by
        MarketParams(strike=100.0, expiry=3.0, rate=0.08, dividend=0.08, volatility=1e-300),
        # r is so small next to mu^2 that theta rounds to 0
        params_with(0.08, rate=1e-300),
    ])
    def test_exponent_not_finite_and_negative_rejected(self, p):
        with pytest.raises(ConfigurationError, match="not finite and negative"):
            perpetual_lower_bound(p)


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

    @pytest.mark.parametrize("cfg", [SolverConfig(n=16, d=2), SolverConfig(n=16, d=2, family=BFH),
                                     SolverConfig(n=16, d=2, hybrid_m=3)])
    def test_solved_arrays_read_only(self, cfg):
        # the certificate re-derives its residuals from the values the solve stored
        curve = solve_boundary(cfg, TABLE3_PARAMS)
        for array in (curve.values, curve.diagnostics.iterations):
            with pytest.raises(ValueError, match="read-only"):
                array[1] = 1

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
        assert boundary._start_weights.cache_info().currsize == 0
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

    def test_start_weights_timed_in_set_up(self, monkeypatch):
        start_weights = boundary._start_weights

        def slow(n):
            time.sleep(0.05)
            return start_weights(n)

        monkeypatch.setattr(boundary, "_start_weights", slow)
        diag = solve_boundary(SolverConfig(n=16, d=2), params_with(0.08)).diagnostics
        assert diag.weights_s >= 0.05 > diag.newton_s

    @pytest.mark.parametrize("d,alpha", [(2, 0.5), (0, 0.5), (2, 0.0)],
                             ids=["fh", "bfh", "fh-alpha0"])
    def test_rows_converged_in_gauss_points(self, monkeypatch, d, alpha):
        # 16 points per unit subinterval already give the 32-point rows
        n = 128
        rows = quadrature.unit_weight_rows(n, d, alpha)[0]
        monkeypatch.setattr(quadrature, "_POINTS", 32)
        fine = quadrature.unit_weight_rows.__wrapped__(n, d, alpha)[0]
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
    f = -b * math.exp(-delta * t_i) * float(ndtr(d1))
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
        smooth = np.exp(-delta * tau) * ndtr(d1j)
        f -= delta * b * (om[:i] @ smooth + 0.5 * om[i])
    return f


class TestRowResidual:
    """A row b -> (F, dF/db) returns the exact slope at b."""

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
        values, row_at = solved_rows(cfg, p)
        p = dataclasses.replace(p, strike=p.strike / row_scale(cfg, p))  # the rows' market
        grid = np.linspace(0.0, p.expiry, n + 1)
        h = p.expiry / n
        for i in (1, 2, 7, 16):
            row = row_at(i)
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


class ReadSlope(float):
    """A row's dF/db that appends ``tag`` to ``reads`` when it is first compared
    or divided by, the two ways Newton reads a slope to step."""

    def __new__(cls, value, reads, tag):
        slope = super().__new__(cls, value)
        slope.reads, slope.tag, slope.read = reads, tag, False
        return slope

    def _use(self):
        if not self.read:
            self.read = True
            self.reads.append(self.tag)
        return float(self)

    def __ne__(self, other):
        return self._use() != other

    def __rtruediv__(self, other):
        return other / self._use()


def counted_slopes(row, reads, tag=None):
    """The row b -> (F, dF/db) with each slope Newton reads appended to ``reads`` as
    ``tag``."""

    def counted(b):
        f, df = row(b)
        return f, ReadSlope(df, reads, tag)

    return counted


def counting_residual(monkeypatch):
    """Wrap the rows boundary._row_residual builds so that every row eval of a solve is
    recorded as (row, b), and every slope Newton reads by its row."""
    evals, slopes = [], []
    make = boundary._row_residual

    def counted(cfg, p):
        *setup, build_row = make(cfg, p)

        def build(i, *row_args):
            row = counted_slopes(build_row(i, *row_args), slopes, i)
            return lambda b: evals.append((i, b)) or row(b)

        return *setup, build

    monkeypatch.setattr(boundary, "_row_residual", counted)
    return evals, slopes


def no_curvature_bound(monkeypatch):
    """Make every row's curvature bound infinite: no Newton iterate is then proved,
    and each is evaluated, as in Kim's reference, which passes no bound."""
    make = boundary._row_residual

    def unbounded(cfg, p):
        grid, interval, curv, build_row = make(cfg, p)
        return grid, interval, [(math.inf,) * 3] * len(curv), build_row

    monkeypatch.setattr(boundary, "_row_residual", unbounded)


def recording_newton(monkeypatch):
    """Record (result, proved) for each row _newton_scalar solves.  A row is proved
    when the root it returns is not among the points its row evaluated."""
    rows = []
    newton = boundary._newton_scalar

    def recorded(row, *args):
        evaluated = []
        out = newton(lambda b: evaluated.append(b) or row(b), *args)
        rows.append((out, out[0] not in evaluated))
        return out

    monkeypatch.setattr(boundary, "_newton_scalar", recorded)
    return rows


class TestResidualEvals:
    def test_one_eval_per_newton_step(self, monkeypatch):
        evals, _ = counting_residual(monkeypatch)
        diag = solve_boundary(SolverConfig(n=16, d=2), TABLE3_PARAMS).diagnostics
        assert diag.bisections == 0
        assert diag.residual_evals == diag.iterations.sum() == len(evals)
        assert diag.newton_steps == diag.residual_evals

    def test_bisection_evals_counted(self, monkeypatch):
        # one Newton step per row, then bisection: its two bracket ends and
        # one eval per bisection step, all in the row's recorded count; without
        # the bound a proved first step would end the row before the fallback
        monkeypatch.setattr(boundary, "_NEWTON_MAX_ITER", 1)
        no_curvature_bound(monkeypatch)
        evals, slopes = counting_residual(monkeypatch)
        curve = solve_boundary(SolverConfig(n=8, d=2), TABLE3_PARAMS)
        diag = curve.diagnostics
        assert diag.residual_evals == diag.iterations.sum() == len(evals)
        assert [i for i, _ in evals] == [i for i in range(1, 9) for _ in range(diag.iterations[i])]
        assert diag.bisections == 8
        assert diag.newton_steps == 8  # bracket ends and bisection steps excluded
        # each row's one step reads a slope; its bracket ends and bisection evals none
        assert slopes == list(range(1, 9))
        assert np.all(diag.iterations[1:] > 3)
        assert collocation_residuals(curve).max() <= 1e-12 * 100.0

    def test_bisection_finds_the_newton_roots(self, monkeypatch):
        # nodes dip below the perpetual bound here; bisection searches the
        # interval the Newton steps live in, so it finds their roots
        p = MarketParams(strike=100.0, expiry=10.0, rate=0.08, dividend=0.5, volatility=0.2)
        newton = solve_boundary(SolverConfig(n=32, d=2), p).values
        monkeypatch.setattr(boundary, "_NEWTON_MAX_ITER", 1)
        no_curvature_bound(monkeypatch)  # else a proved first step skips the fallback
        curve = solve_boundary(SolverConfig(n=32, d=2), p)
        assert curve.diagnostics.bisections == 32
        np.testing.assert_allclose(curve.values, newton, rtol=0.0, atol=1e-7)

    def test_bisection_on_an_unpatched_market(self):
        # the boundary falls from 100 to 8.02 by row 4 here; the sqrt-t starts
        # of rows 5 and 6 land at 1.14 and 2.89, below the roots 6.42 and 5.30,
        # where F is nearly flat, so their Newton steps leave [lo, hi]
        p = MarketParams(strike=100.0, expiry=10.0, rate=0.001, dividend=0.0, volatility=0.8)
        curve = solve_boundary(SolverConfig(n=32, d=2), p)
        assert curve.diagnostics.flags == ((5, "bisection", 37.0), (6, "bisection", 38.0))
        assert collocation_residuals(curve).max() <= 1e-12 * p.strike

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
    def test_certificate_repeats_solve_residuals(self, family, dividend, n, monkeypatch):
        # one residual for solve and certificate: a row accepted on an eval is
        # rebuilt bit for bit, and a proved row certifies within its bound, both
        # on the rows' scale, where the certificate reads divided by s
        cfg, p = SolverConfig(n=n, d=2, family=family), params_with(dividend)
        rows = recording_newton(monkeypatch)
        curve = solve_boundary(cfg, p)
        certificate = collocation_residuals(curve) / row_scale(cfg, p)
        proved = np.array([p for _, p in rows])
        solved = np.array([out[2] for out, _ in rows])
        assert proved.any() and not proved.all()
        np.testing.assert_array_equal(certificate[~proved], solved[~proved])
        assert np.all(certificate[proved] <= solved[proved])


class TestSlopeOnDemand:
    """Newton reads a row's dF/db only when it steps from that eval: not at the
    eval that meets the tolerance, nor at a bracket end or bisection eval.  A row
    ends on the eval whose |F| meets the tolerance or on a Newton iterate the
    curvature bound proves unevaluated; ``iterations`` counts its evals either way.
    So a row accepted on its k-th eval reads k - 1 slopes, and a proved row k."""

    @pytest.mark.parametrize("dividend", [0.0, 0.08])
    @pytest.mark.parametrize("family", ["fh", BFH])
    def test_one_slope_per_step(self, family, dividend, monkeypatch):
        cfg, p = SolverConfig(n=32, d=2, family=family), params_with(dividend)
        evals, slopes = counting_residual(monkeypatch)
        curve = solve_boundary(cfg, p)
        values = curve.values / row_scale(cfg, p)  # the rows' scale, where evals are recorded
        diag = curve.diagnostics
        assert diag.bisections == 0 and diag.newton_steps == len(evals)
        row_evals = [[b for j, b in evals if j == i] for i in range(1, 33)]
        assert [len(bs) for bs in row_evals] == diag.iterations[1:].tolist()
        accepted = [bs[-1] == values[i] for i, bs in enumerate(row_evals, start=1)]
        proved = [values[i] not in bs for i, bs in enumerate(row_evals, start=1)]
        assert any(accepted) and not all(accepted)
        assert [not a for a in accepted] == proved
        assert ([slopes.count(i) for i in range(1, 33)]
                == [int(it) - a for it, a in zip(diag.iterations[1:], accepted)])
        assert len(slopes) == diag.newton_steps - sum(accepted)

    @pytest.mark.parametrize("dividend", [0.0, 0.08])
    def test_row_accepted_at_its_start_computes_none(self, dividend):
        # a row that Newton accepts at its start reads no slope
        cfg, p = SolverConfig(n=16, d=2), params_with(dividend)
        values, row_at = solved_rows(cfg, p)
        unit = p.strike / row_scale(cfg, p)
        for i in (1, 2, 7, 16):
            read = []
            b, evals, _, steps = boundary._newton_scalar(counted_slopes(row_at(i), read),
                                                         values[i], 0.5 * values[i], unit,
                                                         1e-12 * unit, i)
            assert (b, evals, steps, read) == (values[i], 1, 1, [])


class TestCurvatureProof:
    """A Newton iterate b' is accepted unevaluated when the row's curvature bound
    M(b) = (c2 / b + c1) / b gives M (b' - b)^2 / 2 plus the row's rounding
    estimate <= tol / 4, a bound on |F(b')| by Taylor's theorem."""

    @pytest.mark.parametrize("n", [32, 128])
    @pytest.mark.parametrize("dividend", [0.0, 0.08, 0.5])
    @pytest.mark.parametrize("family", ["fh", BFH])
    def test_infinite_bound_keeps_the_bits(self, family, dividend, n, monkeypatch):
        # a proved iterate is the float that an eval would have accepted
        cfg, p = SolverConfig(n=n, d=2, family=family), params_with(dividend)
        proved = solve_boundary(cfg, p)
        no_curvature_bound(monkeypatch)
        evaluated = solve_boundary(cfg, p)
        np.testing.assert_array_equal(proved.values, evaluated.values)
        assert proved.diagnostics.flags == evaluated.diagnostics.flags
        assert proved.diagnostics.residual_evals < evaluated.diagnostics.residual_evals

    @pytest.mark.parametrize("dividend", [0.0, 0.08, 0.5])
    @pytest.mark.parametrize("family", ["fh", BFH])
    def test_bound_dominates_the_second_difference(self, family, dividend):
        # (F(b + e) - 2 F(b) + F(b - e)) / e^2 is F'' somewhere in [b - e, b + e],
        # where M is largest at b - e; the rows solve the strike K / s in [1, 2), F''
        # scales as 1 / (K / s), and so do bound and slack
        cfg = SolverConfig(n=32, d=2, family=family)
        for strike in (1e-100, 100.0, 1e100):
            p = dataclasses.replace(params_with(dividend), strike=strike)
            _, (s, _, _, lo, hi), bounds, _ = boundary._row_residual(cfg, p)
            _, row_at = solved_rows(cfg, p)
            unit = strike / s
            for i in (1, 2, 7, 32):
                row = row_at(i)
                c2, c1, _ = bounds[i - 1]
                for b in np.linspace(lo + 0.01 * unit, hi - 0.01 * unit, 7):
                    e = 1e-2 * b
                    second = (row(b + e)[0] - 2.0 * row(b)[0] + row(b - e)[0]) / (e * e)
                    assert abs(second) <= (c2 / (b - e) + c1) / (b - e) + 1e-6 / unit

    @pytest.mark.parametrize("rate,dividend,expiry,vol", [
        (0.2, 0.0, 0.25, 0.01), (0.2, 0.08, 0.25, 0.0063), (0.08, 0.08, 3.0, 1e-4)])
    def test_rounding_noise_keeps_low_volatility_solves_certified(self, rate, dividend,
                                                                  expiry, vol, monkeypatch):
        # a row eval's rounding grows as 1 / sigma; without its estimate in the
        # proof, the curvature bound alone accepted rows here whose certificate
        # exceeded the tolerance
        cfg = SolverConfig(n=128, d=2)
        p = MarketParams(strike=100.0, expiry=expiry, rate=rate, dividend=dividend,
                         volatility=vol)
        proved = solve_boundary(cfg, p)
        assert collocation_residuals(proved).max() <= 1e-12 * p.strike
        no_curvature_bound(monkeypatch)
        np.testing.assert_array_equal(proved.values, solve_boundary(cfg, p).values)

    @settings(max_examples=40, deadline=None)
    @given(rate=st.floats(0.005, 0.3), dividend=st.floats(0.0, 0.5),
           vol=st.floats(0.05, 0.8), expiry=st.floats(0.02, 10.0),
           n=st.sampled_from([16, 32, 64]), family=st.sampled_from(["fh", BFH]))
    def test_proved_rows_certify_within_half_the_tolerance_property(
            self, rate, dividend, vol, expiry, n, family):
        cfg = SolverConfig(n=n, d=2, family=family)
        p = MarketParams(strike=100.0, expiry=expiry, rate=rate, dividend=dividend,
                         volatility=vol)
        with pytest.MonkeyPatch.context() as mp:
            rows = recording_newton(mp)
            try:
                curve = solve_boundary(cfg, p)
            except boundary.SolverError:
                return  # the near-strike corner of the converge-or-raise property
        s = row_scale(cfg, p)  # Newton's |F| are on the rows' scale, K / s in [1, 2)
        certificate = collocation_residuals(curve) / s
        for i, (out, proved) in enumerate(rows, start=1):
            if proved:
                assert certificate[i - 1] <= min(out[2], 0.5e-12 * p.strike / s)

    @settings(max_examples=40, deadline=None)
    @given(rate=st.floats(0.005, 0.3), dividend=st.just(0.0) | st.floats(1e-3, 0.5),
           vol=st.floats(0.05, 0.8), expiry=st.floats(0.02, 10.0),
           n=st.sampled_from([16, 32, 64]), family=st.sampled_from(["fh", BFH]))
    def test_row_curvature_bound_property(self, rate, dividend, vol, expiry, n, family):
        # each row's (c2, c1) weighs 1 / sigma_l^k by its own |W[i, i - l]|, so it is at most
        # the bound from the row's largest |weight| times the sums of 1 / sigma_l^k over its
        # lags, and it still dominates F_i'' (see test_bound_dominates_the_second_difference)
        cfg = SolverConfig(n=n, d=2, family=family)
        p = MarketParams(strike=100.0, expiry=expiry, rate=rate, dividend=dividend,
                         volatility=vol)
        try:
            _, row_at = solved_rows(cfg, p)
        except boundary.SolverError:
            return  # the near-strike corner of the converge-or-raise property
        _, (s, _, _, lo, hi), curv, _ = boundary._row_residual(cfg, p)
        unit, h = p.strike / s, expiry / n
        phi, e_half = 1.0 / math.sqrt(2.0 * math.pi), math.exp(-0.5)
        sig = vol * np.sqrt(h * np.arange(1, n + 1))  # sigma_l over the lags l = 1..n
        s1, s2 = np.cumsum(1.0 / sig), np.cumsum(1.0 / sig ** 2)
        kappa = max(abs(rate * unit - dividend * x) for x in (lo, hi)) * math.sqrt(h) * phi / vol
        w, q = product_rows(n, 2, family), brq_rows(n, 2)
        for i in range(1, n + 1):
            c2, c1, _ = curv[i - 1]
            sig_t = sig[i - 1]  # sigma sqrt(t_i)
            c2_max = kappa * np.abs(w[i]).max() * (s2[i - 1] + e_half * s1[i - 1])
            c1_max = (math.exp(-dividend * i * h) * phi / sig_t * (1.0 + e_half / sig_t)
                      + dividend * h * phi * np.abs(q[i]).max() * (s1[i - 1] + e_half * s2[i - 1]))
            assert c2 <= c2_max * (1.0 + 1e-12) and c1 <= c1_max * (1.0 + 1e-12)
            row = row_at(i)
            for b in np.linspace(lo + 0.01 * unit, hi - 0.01 * unit, 3):
                e = 1e-2 * b
                second = (row(b + e)[0] - 2.0 * row(b)[0] + row(b - e)[0]) / (e * e)
                assert abs(second) <= (c2 / (b - e) + c1) / (b - e) + 1e-6 / unit

    def test_newton_scalar_proves_a_step_without_its_eval(self):
        # F = (b - 70) + 1e-3 (b - 70)^2 has F'' = 2e-3 <= M(b) = 20 / b^2 on [60, 100]
        evals = []
        row = lambda b: (evals.append(b) or  # noqa: E731
                         ((b - 70.0) + 1e-3 * (b - 70.0) ** 2, 1.0 + 2e-3 * (b - 70.0)))
        b, n_evals, res, steps = boundary._newton_scalar(row, 90.0, 60.0, 100.0, 1e-9, 5,
                                                         (20.0, 0.0, 0.0))
        assert b not in evals and n_evals == steps == len(evals)
        assert abs((b - 70.0) + 1e-3 * (b - 70.0) ** 2) <= res <= 1e-9
        evals.clear()
        unproved = boundary._newton_scalar(row, 90.0, 60.0, 100.0, 1e-9, 5)
        assert unproved[0] == b and unproved[1] == n_evals + 1 == unproved[3]

    @pytest.mark.parametrize("noise,out", [
        (1e-12, (70.0, 1, 1e-12 + 0.75 * 1e-9, 1)),  # proved, the noise in its |F|
        (0.3e-9, (70.0, 2, 0.0, 2)),  # noise above tol / 4: the step is evaluated
    ])
    def test_linear_row_is_decided_by_the_noise(self, noise, out):
        # F'' = 0 bounds to 0, so the first step lands on the root
        row = lambda b: (b - 70.0, 1.0)  # noqa: E731
        assert boundary._newton_scalar(row, 90.0, 60.0, 100.0, 1e-9, 5, (0.0, 0.0, noise)) == out


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
        cfg = SolverConfig(n=16, d=2)
        # Newton starts on the rows' scale, K / s in [1, 2)
        values = solve_boundary(cfg, TABLE3_PARAMS).values / row_scale(cfg, TABLE3_PARAMS)
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
            # any n and row (a node above B_0, or a row-1 root past the search interval)
            assert perpetual_lower_bound(p) > 0.97 * p.strike
            return
        diag = curve.diagnostics
        assert collocation_residuals(curve).max() <= 1e-12 * p.strike
        assert diag.residual_evals == diag.iterations.sum()
        assert curve.values.max() <= initial_boundary(p) * (1.0 + 1e-9)


class TestLowVolCorner:
    """delta < r with sigma this low: row 1's root lies above the strike on
    coarse grids, and finer grids give a rising, flagged curve."""

    P = MarketParams(strike=100.0, expiry=7.06, rate=0.216, dividend=0.008, volatility=0.052)

    @pytest.mark.parametrize("n", [16, 32])
    def test_coarse_grids_raise_at_row_1(self, n):
        with pytest.raises(boundary.SolverError, match=r"at collocation row 1, "):
            solve_boundary(SolverConfig(n=n, d=2), self.P)

    def test_message_in_the_callers_units(self):
        # the rows solve K / 64 here; the message scales their interval back to K's units
        with pytest.raises(boundary.SolverError, match=re.escape(
                "no sign change on [49.6772, 100.323] at collocation row 1")):
            solve_boundary(SolverConfig(n=16, d=2), self.P)

    def test_rise_is_flagged(self):
        curve = solve_boundary(SolverConfig(n=64, d=2), self.P)
        assert collocation_residuals(curve).max() <= 1e-12 * self.P.strike
        rises = {row: value for row, kind, value in curve.diagnostics.flags
                 if kind == "non_monotone"}
        for row in (4, 5, 6):
            assert 0.005 < rises[row] < 0.01

    # R = sigma sqrt(T / n) / ln(B_0 / lower) is 2.947 here at n = 64, so a floor at R = 3 lets
    # it through, yet the nodes rise above B_0 from row 9; at n = 128 (R = 2.084) it solves
    LATE = MarketParams(strike=100.0, expiry=6.1, rate=0.265, dividend=0.008, volatility=0.054)

    @pytest.mark.xfail(raises=boundary.SolverError, strict=True,
                       reason="row 9 rises above the expiry limit B_0: n = 64 is too coarse "
                              "(ROADMAP item 19)")
    def test_late_row_solves_at_n_64(self):
        solve_boundary(SolverConfig(n=64, d=2), self.LATE)

    def test_node_above_the_expiry_limit_raises(self):
        with pytest.raises(boundary.SolverError, match=re.escape(
                "collocation row 9 reads 100.012, above the expiry limit 100: n = 64 ")):
            solve_boundary(SolverConfig(n=64, d=2), self.LATE)

    def test_late_row_market_solves_at_n_128(self):
        curve = solve_boundary(SolverConfig(n=128, d=2), self.LATE)
        assert collocation_residuals(curve).max() <= 1e-12 * self.LATE.strike
        assert curve.values.max() <= curve.values[0]


@pytest.mark.parametrize("vol", [1e-155, 1e-160])
def test_vanishing_volatility_raises_solver_error(vol):
    # d2 * d2 overflows to inf here; the rows read it as the kernel's limit, not as a warning
    p = dataclasses.replace(TABLE3_PARAMS, volatility=vol)
    with pytest.raises(boundary.SolverError, match="bisection stalled at row 1"):
        solve_boundary(SolverConfig(n=32, d=2), p)


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("strike", [3e307, 5e307, 1e308, 1.7e308])
def test_largest_strikes_solve(strike, n):
    # the rows see K / s in [1, 2), so neither the sqrt-t start nor a slope overflows
    p = dataclasses.replace(TABLE3_PARAMS, strike=strike)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        certificate = collocation_residuals(solve_boundary(SolverConfig(n=n, d=2), p))
    assert np.all(np.isfinite(certificate)) and certificate.max() <= 1e-12 * strike


@pytest.mark.parametrize("family,d,dividend,expiry,n,m,tol", [
    *[(family, 2, dividend, 1.0, 64, 3, 0.0) for family in ("fh", BFH) for dividend in (0.0, 0.08)],
    # the n = 192 table's leading block is not the n = 48 table bit for bit, and here it shows
    ("fh", 3, 0.5, 0.75, 48, 4, 1e-13),
])
def test_rows_do_not_depend_on_the_horizon(family, d, dividend, expiry, n, m, tol):
    """Rows 0..n of the solve on (m T, m n) are the solve on (T, n): one spacing, one equation."""
    p = params_with(dividend)
    short = solve_boundary(SolverConfig(n=n, d=d, family=family),
                           dataclasses.replace(p, expiry=expiry))
    long = solve_boundary(SolverConfig(n=m * n, d=d, family=family),
                          dataclasses.replace(p, expiry=m * expiry))
    np.testing.assert_array_equal(long.grid[:n + 1], short.grid)
    np.testing.assert_allclose(long.values[:n + 1], short.values, rtol=0.0, atol=tol * p.strike)
    if tol == 0.0:
        np.testing.assert_array_equal(long.diagnostics.iterations[:n + 1],
                                      short.diagnostics.iterations)


@pytest.mark.parametrize("n", [32, 128])
def test_solve_work_does_not_depend_on_the_strike(n):
    # every strike reaches the rows in [1, 2), so the curvature proof accepts the same rows
    evals = solve_boundary(SolverConfig(n=n, d=2), TABLE3_PARAMS).diagnostics.residual_evals
    for strike in (1e-300, 1e-100, 1.0, 80.0, 117.3, 1e100, 1e300, 1e307, 1.7e308):
        p = dataclasses.replace(TABLE3_PARAMS, strike=strike)
        assert solve_boundary(SolverConfig(n=n, d=2), p).diagnostics.residual_evals == evals


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("strike", [1e-300, 1e307])
def test_certificate_at_far_strikes(strike, n):
    # the certificate builds the solve's rows on K / s in [1, 2) and reads them at
    # values / s, so neither F nor the unused slope overflows at K = 1e307
    p = dataclasses.replace(TABLE3_PARAMS, strike=strike)
    certificate = collocation_residuals(solve_boundary(SolverConfig(n=n, d=2), p))
    assert np.all(np.isfinite(certificate)) and certificate.max() <= 1e-12 * strike


@lru_cache(maxsize=None)
def strike_100_solve(family):
    curve = solve_boundary(SolverConfig(n=32, d=2, family=family), TABLE3_PARAMS)
    return curve.values / 100.0, american_put_price(3.0, 100.0, curve).value / 100.0


@settings(max_examples=40, deadline=None)
@given(u=st.floats(-300.0, 300.0), family=st.sampled_from(["fh", BFH]))
@example(u=300.0, family="fh")
@example(u=-300.0, family=BFH)
def test_boundary_scales_with_the_strike_property(u, family):
    # the equation is homogeneous of degree one in (K, B, S): the solve repeats K = 100's
    strike = 10.0 ** u
    p = dataclasses.replace(TABLE3_PARAMS, strike=strike)
    curve = solve_boundary(SolverConfig(n=32, d=2, family=family), p)
    nodes, price = strike_100_solve(family)
    np.testing.assert_allclose(curve.values / strike, nodes, rtol=1e-12, atol=0.0)
    assert american_put_price(3.0, strike, curve).value / strike == pytest.approx(
        price, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("family", ["fh", BFH])
@pytest.mark.parametrize("k", [-900, -3, 1, 10, 1000, 1017])
def test_power_of_two_strikes_scale_bit_for_bit(k, family):
    # K = 100 * 2^k reaches the rows as K = 100 does, and a power of two scales exactly;
    # the reads run on the rows' scale too, so at k = 1017 (K ~ 1.4e308) no dot overflows
    p = dataclasses.replace(TABLE3_PARAMS, strike=math.ldexp(100.0, k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = solve_boundary(SolverConfig(n=32, d=2, family=family), p)
        base = solve_boundary(SolverConfig(n=32, d=2, family=family), TABLE3_PARAMS)
        np.testing.assert_array_equal(curve.values, np.ldexp(base.values, k))
        ts = np.linspace(0.0, 3.0, 401)
        np.testing.assert_array_equal(eval_boundary(curve, ts),
                                      np.ldexp(eval_boundary(base, ts), k))
        for spot, t in itertools.product((70.0, 80.0, 90.0, 100.0, 105.0, 120.0),
                                         (3.0, 1.1, 0.2)):
            assert american_put_price(t, math.ldexp(spot, k), curve).value == \
                math.ldexp(american_put_price(t, spot, base).value, k)


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("dividend", [0.0, 0.08])
def test_prices_at_the_largest_strike_scale_with_the_strike(dividend, n):
    # the reads run on K / s, so at K = 1.7e308 no dot overflows and P / K repeats K = 100's
    p = dataclasses.replace(TABLE3_PARAMS, dividend=dividend)
    far = dataclasses.replace(p, strike=1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve, base = (solve_boundary(SolverConfig(n=n, d=2), q) for q in (far, p))
        for x, t in itertools.product((0.8, 0.9, 1.0, 1.05), (3.0, 1.1)):
            assert american_put_price(t, x * far.strike, curve).value / far.strike == \
                pytest.approx(american_put_price(t, x * 100.0, base).value / 100.0,
                              rel=2e-15, abs=0.0)


@pytest.mark.parametrize("strike", [1e-320, 5e-324, math.nextafter(2**-1022, 0)])
def test_subnormal_strikes_raise(strike):
    # a subnormal K's nodes, stored on K's scale, would be subnormal and lose bits
    p = dataclasses.replace(TABLE3_PARAMS, strike=strike)
    with pytest.raises(ConfigurationError, match="subnormal"):
        solve_boundary(SolverConfig(n=32, d=2), p)


@pytest.mark.parametrize("dividend", [0.0, 0.08, 0.5])
def test_smallest_normal_strike_scales_with_the_strike(dividend):
    # at K = 2^-1022 the stored nodes below K are subnormal: B = 0.15 K keeps about 50 bits
    p = dataclasses.replace(TABLE3_PARAMS, dividend=dividend)
    tiny = dataclasses.replace(p, strike=sys.float_info.min)
    curve = solve_boundary(SolverConfig(n=32, d=2), tiny)
    base = solve_boundary(SolverConfig(n=32, d=2), p)
    assert collocation_residuals(curve).max() <= 1e-12 * tiny.strike
    np.testing.assert_allclose(curve.values / tiny.strike, base.values / 100.0,
                               rtol=1e-15, atol=0.0)
    for x, t in itertools.product((0.8, 0.9, 1.0, 1.05), (3.0, 1.1)):
        # the price itself is subnormal here, so it keeps fewer bits than the nodes
        assert american_put_price(t, x * tiny.strike, curve).value / tiny.strike == \
            pytest.approx(american_put_price(t, x * 100.0, base).value / 100.0,
                          rel=2e-14, abs=0.0)


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
        no_curvature_bound(monkeypatch)  # else a proved first step skips the fallback
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
        with pytest.raises(boundary.SolverError,
                           match=r"^no sign change on \[60, 100\] at collocation row 5, "
                                 r"min \|F\| 1\.000e\+01$"):
            self.solve(lambda b: (b - 50.0, 1e-3))

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

    @pytest.mark.parametrize("row,x0,evals,slopes", [
        (lambda b: (b - 70.0, 1.0), 70.0, 1, 0),  # accepted at the start
        (lambda b: (b - 70.0, 1.0), 90.0, 2, 1),  # one step, then accepted
        (lambda b: (b - 70.0, 1e-3), 100.0, 5, 1),  # escaping step, two ends, two mids
        (lambda b: (b - 60.0, 1e-3), 100.0, 3, 1),  # escaping step, root at an end
    ])
    def test_slope_only_for_a_step(self, row, x0, evals, slopes):
        read = []
        out = boundary._newton_scalar(counted_slopes(row, read), x0, 60.0, 100.0, self.TOL, 5)
        assert (out[1], len(read)) == (evals, slopes)

    def test_stalls_at_adjacent_doubles(self):
        calls = []

        def jump(b):  # changes sign at 70 but is never within tolerance
            calls.append(b)
            return (1.0 if b > 70.0 else -1.0), 0.0

        with pytest.raises(boundary.SolverError,
                           match=r"^bisection stalled at row 5 with residual 1\.000e\+00$"):
            self.solve(jump)
        assert 50 < len(calls) <= 64
        # the last bracket is two adjacent doubles around the jump
        lo, hi = max(c for c in calls if c <= 70.0), min(c for c in calls if c > 70.0)
        assert math.nextafter(lo, hi) == hi

    def test_stalled_bisection_computes_no_slope(self):
        # the jump of the test above: its slope 0.0 at the start ends Newton,
        # and the bracket ends and the bisection to adjacent doubles read none
        slopes, evals = [], []
        jump = lambda b: evals.append(b) or ((1.0 if b > 70.0 else -1.0), 0.0)  # noqa: E731
        with pytest.raises(boundary.SolverError, match="bisection stalled"):
            boundary._newton_scalar(counted_slopes(jump, slopes), 100.0, 60.0, 100.0, self.TOL, 5)
        assert len(evals) > 50 and len(slopes) == 1


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

    @staticmethod
    @lru_cache(maxsize=None)
    def near_end_curve(family, hybrid_m):
        return solve_boundary(SolverConfig(n=16, d=2, family=family, hybrid_m=hybrid_m),
                              TABLE3_PARAMS)

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from([("fh", 2), (BFH, 2), ("fh", 3)]),
           ts=st.lists(st.one_of(st.floats(-1e-12 * 3.0, 0.0), st.floats(3.0, 3.0 + 1e-12 * 3.0),
                                 st.floats(0.0, 3.0)), min_size=1, max_size=8))
    @example(kind=("fh", 2), ts=[5e-324])  # a node hit whose weight quotient overflows
    def test_near_endpoints_read_the_clipped_basis_matrix_property(self, kind, ts):
        # points within the 1e-12 T tolerance outside [0, T] read the end
        # values, bit for bit, whether or not any point needs the clip
        curve = self.near_end_curve(*kind)
        T = curve.params.expiry  # 3.0, the bound of the drawn points
        ts = np.array(ts)
        want = basis_matrix(curve.basis, np.clip(ts, 0.0, T)) @ curve.values
        assert eval_boundary(curve, ts).tobytes() == want.tobytes()
        for t in ts.tolist():
            alone = basis_matrix(curve.basis, np.clip(t, 0.0, T)) @ curve.values
            assert eval_boundary(curve, t) == alone[0]

    def test_out_of_range_rejected(self, curve_n64_d3):
        with pytest.raises(ValueError):
            eval_boundary(curve_n64_d3, -0.1)
        with pytest.raises(ValueError):
            eval_boundary(curve_n64_d3, 3.1)

    def test_two_dimensional_t_rejected(self, curve_n64_d3):
        with pytest.raises(ValueError, match=r"number or 1-D, got shape \(2, 3\)"):
            eval_boundary(curve_n64_d3, np.full((2, 3), 1.5))

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
# t = T and at the off-node t = 1.3 were frozen from the one premium rule,
# BRQ on the stored nodes plus the sqrt tail.
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
        22.204926922342516, 16.206958312681426, 11.703834941355693,
        8.367029833466646, 5.929843575579781,
    ),
    "table3_prices_t1.3": (
        20.776297823197847, 13.608629567360945, 8.409336426407863,
        4.918380239578466, 2.7402930126402576,
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
        # t = T prices at the last node, t = 1.3 off the nodes
        t = 1.3 if case.endswith("t1.3") else 3.0
        curve = solve_boundary(SolverConfig(n=32, d=2), TABLE3_PARAMS)
        got = [american_put_price(t, s, curve).value
               for s in (80.0, 90.0, 100.0, 110.0, 120.0)]
    else:
        dividend, family = case
        got = solve_boundary(SolverConfig(n=32, d=2, family=family),
                             params_with(dividend)).values
    np.testing.assert_allclose(got, _FROZEN[case], rtol=0.0, atol=1e-10)
