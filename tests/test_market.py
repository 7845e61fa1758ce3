import itertools
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import kimvolterra.market as market
from kimvolterra import (
    ConfigurationError,
    MarketParams,
    binomial_american_put,
    european_put,
)
from kimvolterra.market import _d1d2

from conftest import TABLE3_PARAMS, TABLE3_SPOTS


def mp_norm_cdf(x: float) -> float:
    """High-precision normal CDF oracle (50-digit erfc series)."""
    with mpmath.workdps(50):
        return float(mpmath.ncdf(x))


def european_binomial_put(steps: int, spot: float, p: MarketParams) -> float:
    """Plain backward-induction tree without early exercise (oracle)."""
    dt = p.expiry / steps
    u = math.exp(p.volatility * math.sqrt(dt))
    d = 1.0 / u
    q = (math.exp((p.rate - p.dividend) * dt) - d) / (u - d)
    disc = math.exp(-p.rate * dt)
    ladder = spot * np.exp(p.volatility * math.sqrt(dt) * np.arange(-steps, steps + 1))
    values = np.maximum(p.strike - ladder[0::2], 0.0)
    for _ in range(steps):
        values = disc * (q * values[1:] + (1.0 - q) * values[:-1])
    return float(values[0])


def reference_american_put(steps: int, spot: float, p: MarketParams) -> float | None:
    """Full-sweep CRR American put (oracle): every node of every level, a new
    array per level.  None when the risk-neutral probability is outside (0, 1)."""
    dt = p.expiry / steps
    u = math.exp(p.volatility * math.sqrt(dt))
    d = 1.0 / u
    q = (math.exp((p.rate - p.dividend) * dt) - d) / (u - d)
    if not 0.0 < q < 1.0:
        return None
    disc = math.exp(-p.rate * dt)
    qu, qd = disc * q, disc * (1.0 - q)
    ladder = spot * np.exp(p.volatility * math.sqrt(dt) * np.arange(-steps, steps + 1))
    values = np.maximum(p.strike - ladder[0::2], 0.0)
    for i in range(steps - 1, -1, -1):
        values = qu * values[1:] + qd * values[:-1]
        level = ladder[steps - i: steps + i + 1: 2]
        np.maximum(values, p.strike - level, out=values)
    return float(values[0])


NONFINITE_SPOTS = [float("nan"), float("inf"), float("-inf")]
# BIN(10000) on the Table-3 market, bit for bit as the full sweep gives
TABLE3_BIN10000 = (22.204973911901547, 16.207103085731152, 11.703665434763924,
                   8.367125440191309, 5.9299404958686175)


def bits(values) -> list[str]:
    return [float.hex(v) for v in values]


class CountingNumpy:
    """Stand-in for ``market.np`` counting np.multiply calls and the values
    passed through np.multiply and np.maximum."""

    def __init__(self):
        self.multiply_calls = 0
        self.multiply_values = 0
        self.maximum_values = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, *args, **kwargs):
        self.multiply_calls += 1
        self.multiply_values += np.size(args[0])
        return np.multiply(*args, **kwargs)

    def maximum(self, x, *args, **kwargs):
        self.maximum_values += np.size(x)
        return np.maximum(x, *args, **kwargs)


class TestMarketParams:
    def test_valid_construction(self):
        p = MarketParams(strike=100.0, expiry=3.0, rate=0.08, dividend=0.08,
                         volatility=0.2)
        assert p.strike == 100.0 and p.volatility == 0.2

    @pytest.mark.parametrize("kwargs", [
        dict(strike=0.0), dict(strike=-1.0), dict(expiry=0.0),
        dict(volatility=0.0), dict(rate=-0.01), dict(dividend=-0.1),
        dict(strike=float("nan")), dict(expiry=float("inf")),
    ])
    def test_invalid_fields_rejected(self, kwargs):
        base = dict(strike=100.0, expiry=3.0, rate=0.08, dividend=0.0,
                    volatility=0.2)
        base.update(kwargs)
        with pytest.raises(ValueError):
            MarketParams(**base)


class TestNdtr:
    """scipy's ndtr is every normal CDF in the package."""

    def test_symmetry_at_zero(self):
        assert ndtr(0.0) == 0.5

    def test_known_value(self):
        # frozen from the 50-digit erfc oracle
        assert ndtr(1.96) == pytest.approx(0.9750021048517795, abs=1e-16)

    def test_reflection_identity(self):
        rng = np.random.default_rng(42)
        for x in rng.uniform(-8.0, 8.0, 1000):
            assert abs(ndtr(x) + ndtr(-x) - 1.0) <= 1e-15

    def test_against_high_precision_oracle(self):
        xs = np.linspace(-8.0, 8.0, 321)
        worst = max(abs(ndtr(x) - mp_norm_cdf(x)) for x in xs)
        assert worst <= 1e-15

    def test_monotone_pointwise(self):
        xs = np.linspace(-8.0, 8.0, 2001)
        values = [float(ndtr(x)) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


class TestD1D2:
    def test_at_the_money_closed_form(self):
        p = MarketParams(strike=100.0, expiry=1.0, rate=0.08, dividend=0.0,
                         volatility=0.2)
        d1, d2 = _d1d2(100.0, 1.0, 100.0, p)
        assert d1 == pytest.approx(0.5, abs=1e-15)
        assert d2 == pytest.approx(0.3, abs=1e-15)

    def test_at_the_money_general_t(self):
        p = MarketParams(strike=100.0, expiry=5.0, rate=0.05, dividend=0.02,
                         volatility=0.3)
        for t in (0.1, 0.7, 2.5):
            d1, _ = _d1d2(50.0, t, 50.0, p)
            expected = (p.rate - p.dividend + 0.5 * p.volatility**2) \
                * math.sqrt(t) / p.volatility
            assert d1 == pytest.approx(expected, rel=1e-14)

    def test_derived_value(self):
        # frozen from a 50-digit mpmath evaluation of the closed form
        d1, d2 = _d1d2(120.0, 3.0, 100.0, TABLE3_PARAMS)
        assert d1 == pytest.approx(0.6995220802271944, abs=1e-15)
        assert d2 == pytest.approx(0.35311191871341896, abs=1e-15)
        with mpmath.workdps(50):
            d1_mp = (mpmath.log(mpmath.mpf(120) / 100)
                     + mpmath.mpf("0.02") * 3) / (mpmath.mpf("0.2") * mpmath.sqrt(3))
        assert d1 == pytest.approx(float(d1_mp), abs=1e-15)

    def test_d2_identity_random(self):
        rng = np.random.default_rng(7)
        p = TABLE3_PARAMS
        for _ in range(300):
            x, y = rng.uniform(10.0, 300.0, 2)
            t = rng.uniform(1e-3, 3.0)
            d1, d2 = _d1d2(x, t, y, p)
            gap = d1 - p.volatility * math.sqrt(t)
            assert abs(d2 - gap) <= 1e-14 * max(1.0, abs(d1))


class TestEuropeanPut:
    def test_expiry_payoff(self):
        assert european_put(0.0, 80.0, TABLE3_PARAMS) == 20.0
        assert european_put(0.0, 120.0, TABLE3_PARAMS) == 0.0

    def test_deep_out_of_the_money(self):
        assert european_put(1.0, 1e6 * 100.0, TABLE3_PARAMS) < 1e-6

    def test_value_against_oracles(self):
        value = european_put(3.0, 100.0, TABLE3_PARAMS)
        # frozen from the closed form evaluated with the mpmath CDF oracle
        assert value == pytest.approx(10.816901614393402, abs=1e-12)
        with mpmath.workdps(50):
            st = mpmath.mpf("0.2") * mpmath.sqrt(3)
            d1 = mpmath.mpf("0.02") * 3 / st
            d2 = d1 - st
            disc = mpmath.e ** (-mpmath.mpf("0.08") * 3)
            oracle = 100 * disc * (mpmath.ncdf(-d2) - mpmath.ncdf(-d1))
        assert value == pytest.approx(float(oracle), abs=1e-13)
        tree = european_binomial_put(10_000, 100.0, TABLE3_PARAMS)
        assert value == pytest.approx(tree, abs=1e-3)

    def test_bounds(self):
        p = TABLE3_PARAMS
        for t in (0.25, 1.0, 3.0):
            for spot in (60.0, 100.0, 150.0):
                v = european_put(t, spot, p)
                lower = max(p.strike * math.exp(-p.rate * t)
                            - spot * math.exp(-p.dividend * t), 0.0)
                assert lower - 1e-12 <= v <= p.strike * math.exp(-p.rate * t) + 1e-12

    def test_monotone_decreasing_in_spot(self):
        spots = np.linspace(40.0, 200.0, 101)
        values = [european_put(1.5, s, TABLE3_PARAMS) for s in spots]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            european_put(1.0, 0.0, TABLE3_PARAMS)
        with pytest.raises(ValueError):
            european_put(-0.5, 100.0, TABLE3_PARAMS)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_time_rejected(self, t):
        with pytest.raises(ValueError, match="european_put requires a finite t"):
            european_put(t, 100.0, TABLE3_PARAMS)

    @pytest.mark.parametrize("spot", NONFINITE_SPOTS)
    def test_nonfinite_spot_rejected(self, spot):
        with pytest.raises(ValueError, match="spot must be finite and > 0"):
            european_put(1.0, spot, TABLE3_PARAMS)


class TestBinomialAmericanPut:
    def test_one_step_by_hand(self):
        p = MarketParams(strike=100.0, expiry=1.0, rate=0.0, dividend=0.0,
                         volatility=0.2)
        value = binomial_american_put(1, 100.0, p)
        u = math.exp(0.2)
        q = (1.0 - 1.0 / u) / (u - 1.0 / u)
        expected = (1.0 - q) * (100.0 - 100.0 / u)
        assert value == pytest.approx(expected, abs=1e-12)
        assert f"{value:.4f}" == "9.9668"

    def test_benchmark_points(self, bin_references):
        values, _ = bin_references
        assert values[80.0] == pytest.approx(22.2050, abs=5e-4)
        assert values[100.0] == pytest.approx(11.7037, abs=5e-4)

    def test_benchmark_points_frozen(self, bin_references):
        # the fixture prices the five spots in one call
        values, _ = bin_references
        assert [values[s] for s in TABLE3_SPOTS] == list(TABLE3_BIN10000)

    @pytest.mark.parametrize("steps", [1, 2, 7, 400, 2500])
    def test_matches_full_sweep_reference(self, steps):
        strike = 100.0
        for rate, dividend, vol, expiry, moneyness in itertools.product(
                (0.0, 0.02, 0.3), (0.0, 0.04, 0.5), (0.05, 0.2, 0.8),
                (0.02, 1.0, 10.0), (0.5, 1.0, 3.0)):
            p = MarketParams(strike=strike, expiry=expiry, rate=rate,
                             dividend=dividend, volatility=vol)
            spot = moneyness * strike
            reference = reference_american_put(steps, spot, p)
            if reference is None:
                with pytest.raises(ConfigurationError):
                    binomial_american_put(steps, spot, p)
                continue
            value = binomial_american_put(steps, spot, p)
            if reference < 1e-280 * strike:
                assert abs(value - reference) <= 1e-290 * strike, p
            else:
                assert value == reference, p

    def test_tail_cut_reaches_the_root(self):
        p = MarketParams(strike=100.0, expiry=0.02, rate=0.0, dividend=0.0,
                         volatility=0.2)
        reference = reference_american_put(2500, 300.0, p)
        assert 0.0 < reference < 1e-290 * p.strike
        assert binomial_american_put(2500, 300.0, p) == 0.0
        spots = [100.0, 300.0, 90.0, 300.0]
        batch = binomial_american_put(2500, spots, p)
        assert bits(batch) == bits(binomial_american_put(2500, s, p) for s in spots)
        assert batch[1] == batch[3] == 0.0

    # far out of the money, where each spot's own cut thins the tree most
    @pytest.mark.parametrize("p,moneyness", [
        (MarketParams(100.0, 0.25, 0.05, 0.0, 0.2), (3.0, 5.0, 7.0)),
        (MarketParams(1.0, 0.1, 0.3, 0.5, 0.4), (4.0, 8.0, 12.0)),
        (MarketParams(1e5, 3.0, 0.0, 0.04, 0.1), (6.0, 15.0, 30.0)),
        (MarketParams(100.0, 0.02, 0.02, 0.0, 0.8), (3.0, 6.0, 8.0)),
        (MarketParams(100.0, 10.0, 0.3, 0.0, 0.05), (1.2, 2.0, 3.0)),
    ])
    def test_far_tail_bits_match_full_sweep(self, p, moneyness):
        far = [m * p.strike for m in moneyness]
        spots = far + [0.8 * p.strike, p.strike]
        references = {s: reference_american_put(400, s, p) for s in spots}
        assert all(1e-250 * p.strike <= references[s] <= 1e-20 * p.strike for s in far)
        alone = [binomial_american_put(400, s, p) for s in far]
        assert bits(alone) == bits(references[s] for s in far)
        random.Random(sum(moneyness)).shuffle(spots)  # priced among in-the-money spots
        assert bits(binomial_american_put(400, spots, p)) == bits(references[s] for s in spots)

    # steps either side of the first and second block of levels between two per-spot
    # passes; at r = 0 no node is skipped, so every window starts at its level's first node
    @pytest.mark.parametrize("steps", [market._PASS_EVERY - 1, market._PASS_EVERY,
                                       market._PASS_EVERY + 1, 2 * market._PASS_EVERY,
                                       2 * market._PASS_EVERY + 1, 600])
    @pytest.mark.parametrize("p", [TABLE3_PARAMS, MarketParams(100.0, 3.0, 0.0, 0.04, 0.2)])
    def test_pass_block_edges_match_full_sweep(self, steps, p):
        spots = [*TABLE3_SPOTS, 250.0, 1000.0, 5000.0, 1e40 * p.strike]
        for spot, value in zip(spots, binomial_american_put(steps, spots, p)):
            reference = reference_american_put(steps, spot, p)
            if reference < 1e-280 * p.strike:  # the documented tail cut
                assert abs(value - reference) <= 1e-290 * p.strike, spot
            else:
                assert float.hex(value) == float.hex(reference), spot

    def test_convergence_as_steps_double(self):
        values = {n: binomial_american_put(n, 100.0, TABLE3_PARAMS)
                  for n in (250, 500, 1000, 2000, 4000)}
        gaps = [abs(values[2 * n] - values[n]) for n in (250, 500, 1000, 2000)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_american_dominates_european(self, bin_references):
        values, _ = bin_references
        for spot, value in values.items():
            assert value >= european_put(3.0, spot, TABLE3_PARAMS) - 1e-3

    def test_risk_neutral_probability_guard(self):
        p = MarketParams(strike=100.0, expiry=3.0, rate=0.5, dividend=0.0,
                         volatility=0.05)
        with pytest.raises(ConfigurationError):
            binomial_american_put(1, 100.0, p)

    def test_up_and_down_factors_equal_rejected(self):
        # sigma sqrt(dt) is below an ulp, so u = d = 1.0 and q would divide by zero
        p = MarketParams(strike=100.0, expiry=3.0, rate=0.08, dividend=0.08,
                         volatility=1e-300)
        with pytest.raises(ConfigurationError, match="risk-neutral probability nan"):
            binomial_american_put(8, 100.0, p)

    def test_underflowing_discount_prices_the_payoff(self):
        # exp(-r dt) underflows to 0: the continuation is 0, and so is the European floor
        p = MarketParams(strike=100.0, expiry=1.0, rate=1000.0, dividend=1000.0,
                         volatility=1.0)
        assert binomial_american_put(1, [90.0, 120.0], p) == [10.0, 0.0]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_american_put(0, 100.0, TABLE3_PARAMS)
        with pytest.raises(ValueError):
            binomial_american_put(10, -5.0, TABLE3_PARAMS)

    @pytest.mark.parametrize("spot", NONFINITE_SPOTS)
    def test_nonfinite_spot_rejected(self, spot):
        with pytest.raises(ValueError, match="spot must be finite and > 0"):
            binomial_american_put(10, spot, TABLE3_PARAMS)

    @pytest.mark.parametrize("bad", [*NONFINITE_SPOTS, 0.0, -5.0])
    def test_bad_spot_in_a_batch_rejected(self, bad):
        with pytest.raises(ValueError, match="spot must be finite and > 0"):
            binomial_american_put(10, [100.0, bad, 90.0], TABLE3_PARAMS)
        # checked before the tree: this market has no valid one-step tree
        p = MarketParams(strike=100.0, expiry=3.0, rate=0.5, dividend=0.0,
                         volatility=0.05)
        with pytest.raises(ValueError, match="spot must be finite and > 0"):
            binomial_american_put(1, (bad, 100.0), p)

    @pytest.mark.parametrize("spots", [[], np.empty(0), [[100.0, 90.0]],
                                       np.full((2, 1), 100.0)])
    def test_empty_or_2d_spots_rejected(self, spots):
        with pytest.raises(ValueError):
            binomial_american_put(10, spots, TABLE3_PARAMS)

    def test_return_types(self):
        for spot in (100.0, 100, np.float64(100.0), np.array(100.0)):
            assert type(binomial_american_put(10, spot, TABLE3_PARAMS)) is float
        for spots in ([100.0], (90.0, 100, 90.0), np.array([120.0, 80.0])):
            values = binomial_american_put(10, spots, TABLE3_PARAMS)
            assert type(values) is list and len(values) == len(spots)
            assert all(type(v) is float for v in values)

    @pytest.mark.parametrize("steps", [2.5, 10.0, True])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            binomial_american_put(steps, 100.0, TABLE3_PARAMS)

    @given(steps=st.integers(1, 600), rate=st.floats(0.0, 0.3),
           dividend=st.floats(0.0, 0.5), vol=st.floats(0.05, 0.8),
           expiry=st.floats(0.02, 10.0), moneyness=st.floats(0.2, 5.0))
    @example(steps=600, rate=0.0, dividend=0.04, vol=0.2, expiry=3.0, moneyness=0.8)
    @example(steps=600, rate=0.08, dividend=0.08, vol=0.2, expiry=3.0, moneyness=1.0)
    @example(steps=600, rate=0.02, dividend=0.3, vol=0.3, expiry=1.0, moneyness=0.7)
    @example(steps=600, rate=0.3, dividend=0.0, vol=0.05, expiry=10.0, moneyness=0.2)
    @settings(max_examples=200, deadline=None)
    def test_matches_full_sweep_property(self, steps, rate, dividend, vol, expiry,
                                         moneyness):
        p = MarketParams(strike=100.0, expiry=expiry, rate=rate,
                         dividend=dividend, volatility=vol)
        spot = moneyness * p.strike
        reference = reference_american_put(steps, spot, p)
        if reference is None:
            with pytest.raises(ConfigurationError):
                binomial_american_put(steps, spot, p)
            return
        value = binomial_american_put(steps, spot, p)
        if reference < 1e-280 * p.strike:  # the documented tail cut
            assert abs(value - reference) <= 1e-290 * p.strike
        else:
            assert value == reference

    @given(steps=st.integers(1, 600), rate=st.floats(0.0, 0.3),
           dividend=st.floats(0.0, 0.5), vol=st.floats(0.05, 0.8),
           expiry=st.floats(0.02, 10.0), moneyness=st.floats(0.2, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_price_floor_below_full_sweep_property(self, steps, rate, dividend, vol,
                                                   expiry, moneyness):
        p = MarketParams(strike=100.0, expiry=expiry, rate=rate,
                         dividend=dividend, volatility=vol)
        spot = moneyness * p.strike
        reference = reference_american_put(steps, spot, p)
        if reference is None:
            return
        floors, price_floors = [], market._price_floors

        def spy(*args):
            floors.extend(price_floors(*args))
            return floors
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(market, "_price_floors", spy)
            binomial_american_put(steps, spot, p)
        [floor] = floors
        assert floor >= p.strike - spot
        # below 2^110 x 1e-290 K the floor sets no cut, and a full sweep there may
        # run through subnormal values, whose rounding is no longer relative
        cut_by_floor = market._TAIL_SHARE * floor > market._TAIL_CUTOFF * p.strike
        assert floor <= reference or not cut_by_floor

    @given(steps=st.integers(1, 600), rate=st.floats(0.0, 0.3),
           dividend=st.floats(0.0, 0.5), vol=st.floats(0.05, 0.8),
           expiry=st.floats(0.02, 10.0),
           moneyness=st.lists(st.floats(0.2, 5.0), min_size=1, max_size=6),
           duplicate=st.booleans(), deep=st.booleans(), order=st.randoms())
    @example(steps=600, rate=0.08, dividend=0.08, vol=0.2, expiry=3.0,
             moneyness=[1.2, 0.8, 1.0, 0.9, 1.1], duplicate=True, deep=True,
             order=random.Random(0))
    # every spot far above the strike: the windows near the root lie above every payoff
    @example(steps=600, rate=0.05, dividend=0.1, vol=0.3, expiry=3.0,
             moneyness=[3.0, 4.0, 5.0], duplicate=True, deep=False, order=random.Random(1))
    # r = 0 with a dividend: no node is provably exercised
    @example(steps=600, rate=0.0, dividend=0.2, vol=0.2, expiry=3.0,
             moneyness=[0.5, 0.8, 1.0, 1.3], duplicate=True, deep=True,
             order=random.Random(2))
    @settings(max_examples=100, deadline=None)
    def test_batch_matches_per_spot_calls_property(self, steps, rate, dividend, vol,
                                                   expiry, moneyness, duplicate, deep,
                                                   order):
        p = MarketParams(strike=100.0, expiry=expiry, rate=rate,
                         dividend=dividend, volatility=vol)
        spots = [m * p.strike for m in moneyness]
        if duplicate:
            spots.append(order.choice(spots))
        if deep:  # every node of this spot lies in the tail, the root included
            spots.append(1e40 * p.strike)
        order.shuffle(spots)
        try:
            singles = [binomial_american_put(steps, s, p) for s in spots]
        except ConfigurationError:
            with pytest.raises(ConfigurationError):
                binomial_american_put(steps, spots, p)
            return
        assert bits(binomial_american_put(steps, spots, p)) == bits(singles)
        if deep:
            assert singles[spots.index(1e40 * p.strike)] == 0.0

    def test_exercised_prefix_is_skipped(self, monkeypatch):
        # updating every live node passes 3.40e7 values through the exercise
        # maximum in the Table-3 BIN(10000) tree at S = 100
        counting = CountingNumpy()
        monkeypatch.setattr(market, "np", counting)
        binomial_american_put(10_000, 100.0, TABLE3_PARAMS)
        assert 0 < counting.maximum_values < 0.4 * 3.40e7

    def test_tail_and_prefix_are_not_updated(self, monkeypatch):
        # each level updates a node by two products, so a sweep of every live node
        # in the Table-3 BIN(10000) tree at S = 100 multiplies 2 x 3.40e7 values
        counting = CountingNumpy()
        monkeypatch.setattr(market, "np", counting)
        binomial_american_put(10_000, 100.0, TABLE3_PARAMS)
        assert 0 < counting.multiply_values <= 0.3 * 2 * 3.40e7

    def test_tail_cut_per_spot_halves_the_updates(self, monkeypatch):
        # a cut at 1e-290 K for every spot multiplies 9.95e7 values in the five-spot
        # Table-3 BIN(10000) tree; a cut at 2^-110 of each spot's floor, 4.77e7
        counting = CountingNumpy()
        monkeypatch.setattr(market, "np", counting)
        binomial_american_put(10_000, TABLE3_SPOTS, TABLE3_PARAMS)
        assert 0 < counting.multiply_values <= 0.6 * 9.95e7

    def test_windows_between_passes_add_few_updates(self, monkeypatch):
        # a per-spot pass at every level multiplies 4.611e7 values in the five-spot
        # Table-3 BIN(10000) tree; a pass on two levels in every 32, 4.77e7
        counting = CountingNumpy()
        monkeypatch.setattr(market, "np", counting)
        binomial_american_put(10_000, TABLE3_SPOTS, TABLE3_PARAMS)
        assert 0 < counting.multiply_values <= 1.04 * 4.611e7

    def test_exercise_maximum_only_below_the_strike(self, monkeypatch):
        # above the strike the continuation, >= 0, is what the maximum returns
        counting = CountingNumpy()
        monkeypatch.setattr(market, "np", counting)
        binomial_american_put(10_000, 100.0, TABLE3_PARAMS)
        assert 0 < counting.maximum_values < 1e6

    def test_batch_makes_each_numpy_call_once_per_level(self, monkeypatch):
        one, five = CountingNumpy(), CountingNumpy()
        monkeypatch.setattr(market, "np", one)
        value = binomial_american_put(10_000, 100.0, TABLE3_PARAMS)
        monkeypatch.setattr(market, "np", five)
        values = binomial_american_put(10_000, TABLE3_SPOTS, TABLE3_PARAMS)
        assert (value, tuple(values)) == (TABLE3_BIN10000[2], TABLE3_BIN10000)
        # not one tree per spot, and the exercised prefix is still skipped
        assert five.multiply_calls == one.multiply_calls > 0
        assert 0 < five.maximum_values < 0.4 * 5 * 3.40e7
