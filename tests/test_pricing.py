import gc
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import kimvolterra.barycentric as barycentric
import kimvolterra.pricing as pricing
import kimvolterra.quadrature as quadrature
from kimvolterra import (
    BFH,
    FH,
    ConfigurationError,
    MarketParams,
    SolverConfig,
    SolverError,
    american_put_price,
    binomial_american_put,
    clear_weight_cache,
    error_bound_factor,
    eval_boundary,
    european_put,
    perpetual_lower_bound,
    solve_boundary,
)

from conftest import (TABLE3_BIN_COLUMN, TABLE3_METHOD_COLUMN, TABLE3_PARAMS, TABLE3_SPOTS,
                      premium_density, solve_boundary_kim2d)


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

    def test_exponent_rounding_to_zero_rejected(self):
        # theta rounds to 0, which the factor divides by
        p = MarketParams(strike=100.0, expiry=3.0, rate=1e-17, dividend=0.08,
                         volatility=0.2)
        with pytest.raises(ConfigurationError, match="not finite and negative"):
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
        # t within 1e-12 T of T snaps to T, where B(T) is the last stored node: one boundary
        # read per (curve, t), T included, ending on that node; later calls at T read nothing
        curve = solve_boundary(cfg, TABLE3_PARAMS)
        b_t = eval_boundary(curve, 3.0)
        assert b_t == curve.values[-1]
        calls = []
        monkeypatch.setattr(pricing, "eval_boundary",
                            lambda *args: calls.append(args) or eval_boundary(*args))
        above = math.nextafter(b_t, math.inf)
        at_horizon = american_put_price(3.0, above, curve).value
        assert len(calls) == 1
        assert calls[0][0] is curve
        assert calls[0][1].size == 17 and calls[0][1][-1] == 3.0
        for t in (3.0, 3.0 * (1.0 + 1e-13), 3.0 * (1.0 - 1e-13)):
            assert american_put_price(t, b_t, curve).value == 100.0 - b_t
            assert american_put_price(t, above, curve).value != 100.0 - above
            assert american_put_price(t, above, curve).value == at_horizon
        assert len(calls) == 1

    def test_prices_at_expiry_after_the_first_read_no_interpolant(self, monkeypatch):
        # a curve's first price at T makes one eval_boundary call, whose one basis_matrix call
        # reads the tail and the last node, and keeps its premium arrays; four more spots call
        # neither basis_matrix nor eval_boundary
        clear_weight_cache()
        curve = solve_boundary(SolverConfig(n=32, d=2), TABLE3_PARAMS)
        calls = []
        for module, name in ((pricing, "eval_boundary"), (quadrature, "basis_matrix"),
                             (barycentric, "basis_matrix")):
            fn, label = getattr(module, name), f"{module.__name__.rsplit('.')[-1]}.{name}"
            monkeypatch.setattr(module, name, lambda *args, fn=fn, label=label:
                                calls.append(label) or fn(*args))
        american_put_price(3.0, 100.0, curve)
        assert calls == ["pricing.eval_boundary", "barycentric.basis_matrix"]
        calls.clear()
        for spot in (80.0, 90.0, 110.0, 120.0):
            american_put_price(3.0, spot, curve)
        assert calls == []

    def test_premium_arrays_live_with_their_curve(self):
        # a curve keeps T's premium and its last off-T t's, whichever came first, and both die
        # with it
        gc.collect()
        kept = len(pricing._PREMIUMS)
        curve = solve_boundary(SolverConfig(n=16, d=2), TABLE3_PARAMS)
        american_put_price(1.7283, 100.0, curve)
        american_put_price(3.0, 100.0, curve)
        assert len(pricing._PREMIUMS) == kept + 1
        assert sorted(pricing._PREMIUMS[curve]) == [1.7283, 3.0]
        american_put_price(2.5, 100.0, curve)
        assert sorted(pricing._PREMIUMS[curve]) == [2.5, 3.0]
        del curve
        gc.collect()
        assert len(pricing._PREMIUMS) == kept

    @pytest.mark.parametrize("dividend,calls", [(0.0, 1), (0.08, 2)])
    @pytest.mark.parametrize("t", [3.0, 1.7283])
    def test_dividend_term_costs_a_cdf_call_only_when_delta_is_positive(self, dividend, calls, t,
                                                                          monkeypatch):
        # a warm price in the continuation region makes one ndtr call for the rate term and,
        # at delta > 0 alone, one for the dividend term
        curve = solve_boundary(SolverConfig(n=32, d=2), replace(TABLE3_PARAMS, dividend=dividend))
        american_put_price(t, 120.0, curve)
        args = []
        monkeypatch.setattr(pricing, "ndtr", lambda x: args.append(x) or ndtr(x))
        american_put_price(t, 120.0, curve)
        assert len(args) == calls

    @pytest.mark.parametrize("cfg", [SolverConfig(n=32, d=2), SolverConfig(n=8, d=2, hybrid_m=3)])
    @pytest.mark.parametrize("t", [1.7283, 2.5])
    def test_off_node_reads_boundary_once(self, cfg, t, monkeypatch):
        # one read per (curve, t): the first call at an off-node t makes one eval_boundary call,
        # which gives the 16 tail points and B(t), its last point; later calls at t, whatever
        # their spots, read nothing.  A new t reads once, and T's kept premium survives it
        curve = solve_boundary(cfg, TABLE3_PARAMS)
        american_put_price(3.0, 100.0, curve)
        calls = []
        monkeypatch.setattr(pricing, "eval_boundary",
                            lambda *args: calls.append(args) or eval_boundary(*args))
        american_put_price(t, 100.0, curve)
        assert len(calls) == 1
        assert calls[0][0] is curve
        assert calls[0][1].size == 17 and calls[0][1][-1] == t
        # exercise and continuation regions, then both in one call
        for spot in (50.0, 100.0, (50.0, 100.0, 80.0, 120.0, 50.0)):
            american_put_price(t, spot, curve)
        assert len(calls) == 1
        american_put_price(t / 2, 100.0, curve)
        assert len(calls) == 2 and calls[1][1][-1] == t / 2
        american_put_price(3.0, (50.0, 100.0), curve)
        assert len(calls) == 2

    @pytest.mark.parametrize("spots", [[100.0, math.nan, 90.0], (0.0, 100.0), [100.0, 90.0, -1.0],
                                       [100.0, math.inf], [[100.0, 90.0]],
                                       np.full((2, 1), 100.0), [], np.empty(0)])
    @pytest.mark.parametrize("t", [3.0, 1.7283])
    def test_bad_spots_raise_before_any_work(self, spots, t, monkeypatch):
        # a bad entry anywhere, a 2-D or an empty input raises the tree's error before the
        # boundary read, a European price, the factor build or a kept premium
        curve = solve_boundary(SolverConfig(n=16, d=2), TABLE3_PARAMS)
        calls = []
        for name in ("eval_boundary", "european_put", "_premium_factors"):
            fn = getattr(pricing, name)
            monkeypatch.setattr(pricing, name, lambda *args, fn=fn, name=name:
                                calls.append(name) or fn(*args))
        with pytest.raises(ValueError, match=r"spot must be finite and > 0 \(one or a 1-D") as put:
            american_put_price(t, spots, curve)
        assert calls == [] and curve not in pricing._PREMIUMS
        with pytest.raises(ValueError) as tree:
            binomial_american_put(10, spots, TABLE3_PARAMS)
        assert str(put.value) == str(tree.value)

    def test_price_above_boundary_at_least_payoff(self):
        # the benchmark's book market, seed 601 op 39.  S lies 9.8e-4 above
        # B(T) = 91.2776 in log, so the CDF factors fall from about 1/2 to 0
        # within tau* = (ln(S/B)/sigma)^2 = 3.8e-5 of the end, inside the last
        # interval h = 0.0156.  A rule on the integrand's nodal values misses
        # that fall (22.83279, 8.9e-3 below the payoff 22.84168); the sqrt tail
        # resolves it: 22.84172 (+4.8e-5; -2.2e-4, +1.2e-4, +1.3e-4 at n = 64,
        # 256, 512).
        strike = 114.20837921082617
        p = MarketParams(strike=strike, expiry=2.0, rate=0.06863049275243101,
                         dividend=0.0445198020560671, volatility=0.15804837321889428)
        curve = solve_boundary(SolverConfig(n=128, d=2), p)
        value = american_put_price(2.0, 0.8 * strike, curve).value
        assert value >= 0.2 * strike - 1e-6 * strike

    @pytest.mark.parametrize("dividend", [0.0, 0.08])
    def test_payoff_floor_just_above_the_boundary(self, dividend):
        # 200 spots with S / B(T) - 1 log-spaced over [1e-10, 0.05] at t = T.
        # A rule on the integrand's nodal values priced them up to 4.5e-2
        # (delta = 0.08) and 1.3e-1 (delta = 0) below the payoff at n = 32,
        # falling at first order; the sqrt tail keeps them above a band that
        # falls at second order
        p = replace(TABLE3_PARAMS, dividend=dividend)
        for n in (32, 64, 128, 256, 512):
            curve = solve_boundary(SolverConfig(n=n, d=2), p)
            spots = curve.values[-1] * (1.0 + np.geomspace(1e-10, 0.05, 200))
            gap = min(american_put_price(3.0, s, curve).value - (p.strike - s) for s in spots)
            assert gap >= -1e-4 * p.strike * (32 / n) ** 2, n

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

    @pytest.mark.parametrize("vol,t", [(5.0, 0.2), (8.0, 3.0)])
    def test_boundary_read_below_zero_raises(self, vol, t):
        # the n = 32 interpolant of these steep first steps dips below 0 (to -3.2 near
        # t = 0.135 at sigma = 5, and to -0.28 in the last tail at sigma = 8), where
        # the premium's log would price NaN
        curve = solve_boundary(SolverConfig(n=32, d=2), replace(TABLE3_PARAMS, volatility=vol))
        with pytest.raises(ConfigurationError, match=r"boundary reads -\d.* <= 0 on t in \["):
            american_put_price(t, 100.0, curve)

    def test_a_read_below_zero_keeps_nothing(self):
        # the raise comes before a (curve, t)'s premium is kept, so a repeat call raises the same
        # message, and a premium kept at another t stays
        curve = solve_boundary(SolverConfig(n=32, d=2), replace(TABLE3_PARAMS, volatility=8.0))
        messages, below_zero = [], r"boundary reads -\d.* <= 0 on t in \["
        for _ in range(2):
            with pytest.raises(ConfigurationError, match=below_zero) as err:
                american_put_price(3.0, 100.0, curve)
            messages.append(str(err.value))
            assert curve not in pricing._PREMIUMS
        curve = solve_boundary(SolverConfig(n=32, d=2), replace(TABLE3_PARAMS, volatility=5.0))
        american_put_price(3.0, 100.0, curve)
        american_put_price(2.5, 100.0, curve)
        for _ in range(2):
            with pytest.raises(ConfigurationError, match=below_zero) as err:
                american_put_price(0.2, 100.0, curve)
            messages.append(str(err.value))
            assert sorted(pricing._PREMIUMS[curve]) == [2.5, 3.0]
        assert messages[0] == messages[1] != messages[2] == messages[3]

    def test_threads_pricing_one_curve_at_alternating_t_get_single_threaded_bits(self):
        # three threads (more than the two cores CI gives) replace the curve's kept premium in
        # turn; a race may rebuild an entry but never prices with another t's factors
        times, spots, cfg = (3.0, 1.7283, 2.5, 0.4), (80.0, 95.0, 120.0), SolverConfig(n=32, d=2)
        expected = {}
        for t in times:  # each t on its own fresh curve, so no kept premium stands in for another
            expected[t] = american_put_price(t, spots, solve_boundary(cfg, TABLE3_PARAMS)).value
        curve = solve_boundary(cfg, TABLE3_PARAMS)
        start, wrong, done = threading.Barrier(3, timeout=60.0), [], []

        def price(offset):
            start.wait()
            for i in range(300):
                t = times[(i + offset) % len(times)]
                if american_put_price(t, spots, curve).value.tobytes() != expected[t].tobytes():
                    wrong.append((offset, i, t))
            done.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=price, args=(offset,), daemon=True)
                       for offset in (0, 1, 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == [0, 1, 2] and wrong == []

    @pytest.mark.parametrize("spot", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_spot_rejected(self, curve_n32_d2, spot):
        with pytest.raises(ValueError, match="spot must be finite and > 0"):
            american_put_price(3.0, spot, curve_n32_d2)

    def test_kim2d_curve_prices_within_method_slack(self, bin_references):
        references, _ = bin_references
        curve = solve_boundary_kim2d(32, TABLE3_PARAMS)
        result = american_put_price(3.0, 90.0, curve)
        assert abs(result.value - references[90.0]) <= 2e-2


@settings(max_examples=100, deadline=None)
@given(rate=st.floats(0.005, 0.3), dividend=st.floats(0.0, 0.5), vol=st.floats(0.05, 0.8),
       expiry=st.floats(0.02, 10.0), n=st.sampled_from([16, 32, 64]),
       moneyness=st.floats(0.5, 1.5), share=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
# near expiry on a coarse grid the interpolated B(t) overshoots a spot that the
# European price places in the continuation region (98.26 > 96.875 here)
@example(rate=0.25, dividend=0.0, vol=0.5, expiry=1.0, n=16, moneyness=0.96875,
         share=0.00390625)
@example(rate=0.25, dividend=0.25, vol=0.5, expiry=2.0, n=16, moneyness=0.875,
         share=0.015625)
def test_price_between_european_and_strike_property(rate, dividend, vol, expiry, n,
                                                     moneyness, share):
    # the domain of test_every_solve_converges_or_raises_property in
    # test_boundary.py, priced at t = T or at a share of it
    p = MarketParams(strike=100.0, expiry=expiry, rate=rate, dividend=dividend, volatility=vol)
    try:
        curve = solve_boundary(SolverConfig(n=n, d=2), p)
    except SolverError:
        assert perpetual_lower_bound(p) > 0.97 * p.strike
        return
    t, spot = share * expiry, moneyness * p.strike
    value = american_put_price(t, spot, curve).value
    assert european_put(t, spot, p) - 1e-10 * p.strike <= value <= p.strike * (1.0 + 1e-10)


def _price_by_the_node_and_tail_rule(t, spot, curve):
    """The price at t by the rule on the stored nodes: with k = max(0, floor(t n / T) - 1),
    row k of the alpha = 0 table times h on nodes 0..k, then 16 Gauss-Legendre points in
    sqrt(t - s) on [t_k, t], read through eval_boundary together with B(t); conftest's
    density is the integrand."""
    p, n = curve.params, curve.basis.n
    T = p.expiry
    k = max(0, int(t * n / T + 1e-9) - 1)
    x, w = np.polynomial.legendre.leggauss(16)
    u = 0.5 * (x + 1.0)
    g = t - curve.grid[k]
    ys = eval_boundary(curve, t - g * np.append(u * u, 0.0))
    euro = european_put(t, spot, p)
    if spot <= ys[-1] and euro <= p.strike - spot:
        return p.strike - spot
    head = (T / n) * quadrature.unit_weight_rows(n, curve.basis.degree, 0.0)[0][k, :k + 1]
    weights = np.concatenate((head, g * u * w))
    tau = np.concatenate((t - curve.grid[:k + 1], g * u * u))
    y = np.concatenate((curve.values[:k + 1], ys[:-1]))
    return euro + float(weights.dot(premium_density(spot, tau, y, p)))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from([FH, BFH]), d=st.integers(0, 3), n=st.sampled_from([1, 2, 16, 64]),
       hybrid_m=st.sampled_from([2, 3]), dividend=st.sampled_from([0.0, 0.08]),
       rate=st.sampled_from([0.03, 0.08]), strike=st.sampled_from([1e-300, 100.0, 1.7e308]),
       below=st.one_of(st.just(1.0), st.floats(0.5, 1.0)),
       above=st.one_of(st.just(1.0 + 2.0**-52), st.floats(1.0, 1.05)),
       share=st.one_of(st.just(1.0), st.floats(1e-3, 0.999)))
def test_price_at_expiry_matches_the_node_and_tail_rule_property(family, d, n, hybrid_m, dividend,
                                                                 rate, strike, below, above,
                                                                 share):
    # at every t the first spot builds the (curve, t)'s premium arrays and the second reads
    # them.  r = 0.03 keeps r and delta apart, so no e^(-r tau) can stand in for an
    # e^(-delta tau)
    assume(n >= d + 1)
    p = replace(TABLE3_PARAMS, strike=strike, dividend=dividend, rate=rate)
    curve = solve_boundary(SolverConfig(n=n, d=d, family=family, hybrid_m=hybrid_m), p)
    t = share * p.expiry
    b_t = curve.values[-1] if share == 1.0 else float(eval_boundary(curve, t))
    for spot in (below * b_t, above * b_t):
        value = american_put_price(t, spot, curve).value
        assert abs(value - _price_by_the_node_and_tail_rule(t, spot, curve)) <= 1e-14 * strike


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([4, 16, 32]), hybrid_m=st.sampled_from([2, 3]),
       dividend=st.sampled_from([0.0, 0.08]), strike=st.sampled_from([1e-300, 100.0, 1.7e308]),
       shares=st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=3),
       calls=st.lists(st.tuples(st.integers(0, 3), st.floats(0.5, 1.0), st.floats(1.0, 1.05)),
                      min_size=1, max_size=8))
def test_pricing_history_does_not_change_a_price_property(n, hybrid_m, dividend, strike, shares,
                                                          calls):
    # a sequence of t (T, repeats and new off-T values, index 0 being T) on one curve, with spots
    # on both sides of B(t): each call has the bits of the same call on a freshly solved curve,
    # whatever premiums the curve keeps from the calls before it
    cfg, p = SolverConfig(n=n, d=2, hybrid_m=hybrid_m), replace(TABLE3_PARAMS, strike=strike,
                                                                dividend=dividend)
    curve, times = solve_boundary(cfg, p), [1.0, *shares]
    for index, below, above in calls:
        t = times[min(index, len(times) - 1)] * p.expiry
        b_t = float(curve.values[-1] if t == p.expiry else eval_boundary(curve, t))
        spots = [below * b_t, above * b_t]
        kept, fresh = (american_put_price(t, spots, c) for c in (curve, solve_boundary(cfg, p)))
        for name in ("value", "european_part", "premium_part"):
            assert getattr(kept, name).tobytes() == getattr(fresh, name).tobytes()


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from([FH, BFH]), d=st.integers(0, 3), n=st.sampled_from([1, 2, 16, 64]),
       hybrid_m=st.sampled_from([2, 3]), dividend=st.sampled_from([0.0, 0.08]),
       rate=st.sampled_from([0.03, 0.08]), strike=st.sampled_from([1e-300, 100.0, 1.7e308]),
       below=st.one_of(st.just(1.0), st.floats(0.5, 1.0)),
       above=st.one_of(st.just(1.0 + 2.0**-52), st.floats(1.0, 1.05)),
       more=st.lists(st.floats(0.5, 1.05), max_size=4),
       share=st.one_of(st.just(1.0), st.floats(1e-3, 0.999)))
def test_many_spots_match_one_spot_calls_property(family, d, n, hybrid_m, dividend, rate, strike,
                                                  below, above, more, share):
    # the node-and-tail property's domain: spots on both sides of B(t), duplicates included, in
    # one call give read-only arrays whose entries have the bits of one-spot calls, which give
    # Python floats.  At T the sequence call keeps the curve's premium arrays, which the
    # one-spot calls then read
    assume(n >= d + 1)
    p = replace(TABLE3_PARAMS, strike=strike, dividend=dividend, rate=rate)
    curve = solve_boundary(SolverConfig(n=n, d=d, family=family, hybrid_m=hybrid_m), p)
    t = share * p.expiry
    b_t = float(curve.values[-1] if share == 1.0 else eval_boundary(curve, t))
    spots = [below * b_t, above * b_t, *(f * b_t for f in more)]
    spots += spots[::2]
    many = american_put_price(t, spots, curve)
    ones = [american_put_price(t, x, curve) for x in spots]
    assert type(many.wall_time) is float
    for name in ("value", "european_part", "premium_part"):
        field = getattr(many, name)
        assert field.dtype == np.float64 and field.shape == (len(spots),)
        assert not field.flags.writeable
        with pytest.raises(ValueError):
            field[0] = 0.0
        assert all(type(getattr(one, name)) is float for one in ones)
        assert field.tobytes() == np.array([getattr(one, name) for one in ones]).tobytes()
    assert american_put_price(t, np.float64(spots[0]), curve).value == ones[0].value
