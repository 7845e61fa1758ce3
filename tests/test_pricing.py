import math

import numpy as np
import pytest

import kimvolterra.pricing as pricing
from kimvolterra import (
    MarketParams,
    SolverConfig,
    american_put_price,
    error_bound_factor,
    eval_boundary,
    european_put,
    solve_boundary,
)

from conftest import (TABLE3_BIN_COLUMN, TABLE3_METHOD_COLUMN, TABLE3_PARAMS, TABLE3_SPOTS,
                      solve_boundary_kim2d)


class TestErrorBoundFactor:
    def test_benchmark_value(self):
        # theta = -1.5615528128088303 for the benchmark parameter set
        factor = error_bound_factor(100.0, TABLE3_PARAMS)
        assert factor == pytest.approx(3.2807764064044145, rel=1e-13)

    def test_zero_dividend_reduction(self):
        p = MarketParams(strike=100.0, expiry=3.0, rate=0.08, dividend=0.0,
                         volatility=0.2)
        factor = error_bound_factor(250.0, p)
        theta = -4.0  # exact for these parameters
        expected = (theta - 1.0) / (0.2 * theta * math.sqrt(2.0)) * math.sqrt(0.08)
        assert factor == pytest.approx(expected, rel=1e-13)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = MarketParams(strike=100.0, expiry=1.0,
                             rate=rng.uniform(0.01, 0.2),
                             dividend=rng.uniform(0.0, 0.2),
                             volatility=rng.uniform(0.05, 0.6))
            assert error_bound_factor(rng.uniform(10.0, 300.0), p) > 0.0

    def test_zero_rate_rejected(self):
        p = MarketParams(strike=100.0, expiry=1.0, rate=0.0, dividend=0.1,
                         volatility=0.2)
        with pytest.raises(ValueError):
            error_bound_factor(100.0, p)

    @pytest.mark.parametrize("spot", [-5.0, 0.0, math.nan, math.inf])
    def test_invalid_spot_rejected(self, spot):
        with pytest.raises(ValueError, match="spot"):
            error_bound_factor(spot, TABLE3_PARAMS)


class TestAmericanPutPrice:
    def test_benchmark_prices_at_paper_accuracy(self, curve_n32_d2):
        for spot in TABLE3_SPOTS:
            result = american_put_price(3.0, spot, curve_n32_d2)
            assert result.value == pytest.approx(TABLE3_BIN_COLUMN[spot], abs=5e-4)
            assert result.value == pytest.approx(TABLE3_METHOD_COLUMN[spot], abs=5e-4)

    def test_decomposition_identity(self, curve_n32_d2):
        for spot in (70.0, 95.0, 130.0):
            result = american_put_price(3.0, spot, curve_n32_d2)
            assert result.value == pytest.approx(
                result.european_part + result.premium_part, abs=1e-12)
            assert result.premium_part >= -1e-9
            assert result.wall_time > 0.0

    def test_dominance(self, curve_n32_d2):
        for spot in (60.0, 80.0, 100.0, 120.0, 160.0):
            result = american_put_price(3.0, spot, curve_n32_d2)
            assert result.value >= european_put(3.0, spot, TABLE3_PARAMS) - 1e-9
            assert result.value >= max(100.0 - spot, 0.0) - 1e-6
            assert result.value <= 100.0

    def test_monotone_in_spot(self, curve_n32_d2):
        spots = np.arange(80.0, 121.0, 5.0)
        values = [american_put_price(3.0, s, curve_n32_d2).value for s in spots]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_exercise_region_returns_payoff(self, curve_n32_d2):
        boundary_at_expiry = eval_boundary(curve_n32_d2, 3.0)
        spot = 0.5 * boundary_at_expiry
        result = american_put_price(3.0, spot, curve_n32_d2)
        assert result.value == 100.0 - spot

    @pytest.mark.parametrize("cfg", [SolverConfig(n=32, d=2), SolverConfig(n=16, d=3, family="bfh"),
                                     SolverConfig(n=8, d=2, hybrid_m=3)])
    def test_horizon_boundary_is_last_node(self, cfg, monkeypatch):
        # at t = T (or within 1e-12 T of it, snapped) the price reads B(T) from
        # the last node, bit for bit the value eval_boundary(curve, T) returns
        curve = solve_boundary(cfg, TABLE3_PARAMS)
        b_t = eval_boundary(curve, 3.0)
        assert b_t == curve.values[-1]
        calls = []
        monkeypatch.setattr(pricing, "eval_boundary",
                            lambda *args: calls.append(args) or eval_boundary(*args))
        above = math.nextafter(b_t, math.inf)
        at_horizon = american_put_price(3.0, above, curve).value
        for t in (3.0, 3.0 * (1.0 + 1e-13), 3.0 * (1.0 - 1e-13)):
            assert american_put_price(t, b_t, curve).value == 100.0 - b_t
            assert american_put_price(t, above, curve).value != 100.0 - above
            assert american_put_price(t, above, curve).value == at_horizon
        assert calls == []

    @pytest.mark.parametrize("cfg", [SolverConfig(n=32, d=2), SolverConfig(n=8, d=2, hybrid_m=3)])
    @pytest.mark.parametrize("t", [1.7283, 2.5])
    def test_off_node_reads_boundary_once(self, cfg, t, monkeypatch):
        # one eval_boundary call gives the premium nodes and B(t), its last point
        curve = solve_boundary(cfg, TABLE3_PARAMS)
        calls = []
        monkeypatch.setattr(pricing, "eval_boundary",
                            lambda *args: calls.append(args) or eval_boundary(*args))
        for spot in (50.0, 100.0):  # exercise and continuation regions
            calls.clear()
            american_put_price(t, spot, curve)
            assert len(calls) == 1
            assert calls[0][0] is curve
            assert calls[0][1][-1] == t

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the premium's last interval "
                       "misses the endpoint kink just above B(T)")
    def test_price_above_boundary_at_least_payoff(self):
        # the benchmark's book market, seed 601 op 39.  S lies 9.8e-4 above
        # B(T) = 91.2776 in log, so the CDF factors fall from about 1/2 to 0
        # within tau* = (ln(S/B)/sigma)^2 = 3.8e-5 of the end, inside the last
        # interval h = 0.0156.  The integrand at tau = h reads 1.86, about
        # (rK - delta S)/2, while the endpoint term takes 0; taking 1/2 there
        # gives +1.5e-3 instead.  The price is 22.83279 against the payoff
        # 22.84168 (-8.9e-3, no flag; -1.9e-2, -4.1e-3, -1.8e-3 at n = 64, 256, 512).
        strike = 114.20837921082617
        p = MarketParams(strike=strike, expiry=2.0, rate=0.06863049275243101,
                         dividend=0.0445198020560671, volatility=0.15804837321889428)
        curve = solve_boundary(SolverConfig(n=128, d=2), p)
        value = american_put_price(2.0, 0.8 * strike, curve).value
        assert value >= 0.2 * strike - 1e-6 * strike

    def test_deep_out_of_the_money_no_dividend(self):
        p = MarketParams(strike=100.0, expiry=3.0, rate=0.08, dividend=0.0,
                         volatility=0.2)
        curve = solve_boundary(SolverConfig(n=32, d=2), p)
        result = american_put_price(3.0, 1e3 * 100.0, curve)
        assert abs(result.premium_part) < 1e-6
        assert result.value < 1e-6

    def test_interior_time_pricing(self, curve_n64_d3):
        # prices at node and off-node interior times stay between the
        # European floor and the strike, and grow with time to expiry
        values = []
        for t in (0.75, 1.0, 1.7283, 2.5, 3.0):
            result = american_put_price(t, 100.0, curve_n64_d3)
            assert result.value >= european_put(t, 100.0, TABLE3_PARAMS) - 1e-9
            assert result.value <= 100.0
            values.append(result.value)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_quadrature_refinement(self):
        prices = {}
        for n in (16, 32, 64, 128, 256):
            curve = solve_boundary(SolverConfig(n=n, d=2), TABLE3_PARAMS)
            prices[n] = american_put_price(3.0, 100.0, curve).value
        gaps = [abs(prices[2 * n] - prices[n]) for n in (16, 32, 64, 128)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_domain_errors(self, curve_n32_d2):
        with pytest.raises(ValueError):
            american_put_price(3.0, -10.0, curve_n32_d2)
        with pytest.raises(ValueError):
            american_put_price(0.0, 100.0, curve_n32_d2)
        with pytest.raises(ValueError):
            american_put_price(3.5, 100.0, curve_n32_d2)

    @pytest.mark.parametrize("spot", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_spot_rejected(self, curve_n32_d2, spot):
        with pytest.raises(ValueError, match="spot must be finite and > 0"):
            american_put_price(3.0, spot, curve_n32_d2)

    def test_kim2d_curve_prices_within_method_slack(self, bin_references):
        references, _ = bin_references
        curve = solve_boundary_kim2d(32, TABLE3_PARAMS)
        result = american_put_price(3.0, 90.0, curve)
        assert abs(result.value - references[90.0]) <= 2e-2

