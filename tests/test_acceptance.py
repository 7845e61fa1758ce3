"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline;
under plain ``pytest -v`` the per-test PASSED/FAILED status carries the
same information.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from kimvolterra import (
    BaryBasis,
    MarketParams,
    SolverConfig,
    american_put_price,
    basis_matrix,
    clear_weight_cache,
    collocation_residuals,
    eval_boundary,
    lebesgue_constant,
    perpetual_lower_bound,
    product_weights,
    solve_boundary,
)

from conftest import FIXED_POINT_PRICES, TABLE3_BIN_COLUMN, TABLE3_PARAMS, TABLE3_SPOTS


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)


def test_criterion_01_binomial_reproduction(bin_references):
    values, elapsed = bin_references
    worst = max(abs(values[s] - TABLE3_BIN_COLUMN[s]) for s in TABLE3_SPOTS)
    ok = worst <= 5e-4 and elapsed < 60.0
    report(1, "binomial reproduction", ok,
           f"max |BIN - reference| = {worst:.2e}, runtime {elapsed:.1f}s")
    assert worst <= 5e-4
    assert elapsed < 60.0


def test_criterion_02_method_accuracy(bin_references):
    values, _ = bin_references
    start = time.perf_counter()
    curve = solve_boundary(SolverConfig(n=32, d=2), TABLE3_PARAMS)
    errors = {s: abs(american_put_price(3.0, s, curve).value - values[s])
              for s in TABLE3_SPOTS}
    elapsed = time.perf_counter() - start
    worst = max(errors.values())
    ok = worst <= 1e-3 and elapsed < 30.0
    report(2, "five-point pricing accuracy", ok,
           f"max |price - BIN| = {worst:.2e}, reference-level 5e-4 "
           f"{'met' if worst <= 5e-4 else 'missed'}, runtime {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 30.0


@pytest.mark.parametrize("family", ["fh", "bfh"])
@pytest.mark.parametrize("dividend,n,tolerance", [(0.08, 64, 1e-4), (0.0, 128, 5e-4)])
def test_prices_within_the_fixed_point_reference(family, dividend, n, tolerance):
    # beside criterion 02, whose tree is itself about 2e-4 off at S = 100: the fixed point is
    # good to 1e-8, so the bounds hold the method's own error (fh 5.3e-5 and bfh 7.4e-5 at
    # delta = 0.08, fh 2.0e-4 and bfh 2.4e-4 at delta = 0)
    params = replace(TABLE3_PARAMS, dividend=dividend)
    curve = solve_boundary(SolverConfig(n=n, d=2, family=family), params)
    reference = FIXED_POINT_PRICES[dividend]
    worst = max(abs(american_put_price(params.expiry, s, curve).value - reference[s])
                for s in TABLE3_SPOTS)
    report(2, f"five-point pricing against the fixed point ({family}, delta = {dividend}, "
              f"n = {n})", worst <= tolerance,
           f"max |price - FP-B| = {worst:.2e}, tolerance {tolerance:.0e}")
    assert worst <= tolerance


def test_criterion_03_boundary_limits(figure1_curves):
    details = []
    ok = True
    for dividend, curve in sorted(figure1_curves.items()):
        expected = 100.0 if dividend <= 0.08 else 100.0 * 0.08 / 0.12
        tolerance = 1e-2 if dividend > 0.08 else 1e-9
        limit_ok = abs(curve.values[0] - expected) <= tolerance
        monotone = bool(np.all(np.diff(curve.values) <= 1e-9 * 100.0))
        ok = ok and limit_ok and monotone
        details.append(f"delta={dividend}: B(0)={curve.values[0]:.4f}")
        assert limit_ok
        assert monotone
    report(3, "expiry limits and monotonicity", ok, "; ".join(details))


def test_criterion_04_perpetual_bracketing(figure1_curves):
    ok = True
    for dividend, curve in figure1_curves.items():
        lower = perpetual_lower_bound(curve.params)
        upper = curve.values[0]
        inside = bool(np.all((curve.values >= lower - 1e-6)
                             & (curve.values <= upper + 1e-6)))
        ok = ok and inside
        assert inside
    zero_dividend_bound = perpetual_lower_bound(
        MarketParams(strike=100.0, expiry=3.0, rate=0.08, dividend=0.0,
                     volatility=0.2))
    exact = abs(zero_dividend_bound - 80.0) <= 1e-12
    ok = ok and exact
    report(4, "perpetual bracketing", ok,
           f"all values inside bounds; delta=0 bound = {zero_dividend_bound:.12f}")
    assert exact


def test_criterion_05_interpolation_order():
    start = time.perf_counter()
    samples = np.linspace(0.0, 1.0, 3137)[1:-1]
    orders = {}
    for d in (1, 2, 3):
        errors = {}
        for n in (32, 256):
            basis = BaryBasis(np.linspace(0.0, 1.0, n + 1), d)
            approx = basis_matrix(basis, samples) @ np.exp(basis.nodes)
            errors[n] = np.max(np.abs(approx - np.exp(samples)))
        orders[d] = math.log(errors[32] / errors[256]) / math.log(8.0)
    elapsed = time.perf_counter() - start
    ok = all(orders[d] >= d + 0.5 for d in orders) and elapsed < 5.0
    report(5, "interpolation order", ok,
           ", ".join(f"d={d}: {o:.2f}" for d, o in orders.items())
           + f", runtime {elapsed:.1f}s")
    for d, order in orders.items():
        assert order >= d + 0.5
    assert elapsed < 5.0


def test_criterion_06_lebesgue_bound():
    start = time.perf_counter()
    worst_margin = -math.inf
    for d in (1, 2, 3):
        for n in (8, 16, 32, 64, 128, 256):
            basis = BaryBasis(np.linspace(0.0, 1.0, n + 1), d)
            lam = lebesgue_constant(basis, 30)
            bound = 2.0 ** (d - 1) * (2.0 + math.log(n))
            worst_margin = max(worst_margin, lam - bound)
            assert lam <= bound
    elapsed = time.perf_counter() - start
    ok = worst_margin <= 0.0 and elapsed < 10.0
    report(6, "Lebesgue bound", ok,
           f"worst (estimate - bound) = {worst_margin:.3f}, runtime {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_07_product_weight_identities():
    worst_sum = 0.0
    worst_monomial = 0.0
    d = 2
    for n in (8, 16, 32):
        grid = np.linspace(0.0, 1.0, n + 1)
        for i in range(1, n + 1):
            order = min(d, i)
            basis = BaryBasis(grid[: i + 1], order)
            w = product_weights(basis)
            worst_sum = max(worst_sum,
                            abs(w.sum() - 2.0 * math.sqrt(grid[i])))
            for degree in range(order + 1):
                exact = (grid[i] ** (degree + 0.5) * math.sqrt(math.pi)
                         * math.gamma(degree + 1) / math.gamma(degree + 1.5))
                worst_monomial = max(worst_monomial,
                                     abs(w @ grid[: i + 1] ** degree - exact))
    ok = worst_sum <= 1e-10 and worst_monomial <= 1e-8
    report(7, "product-weight identities", ok,
           f"worst sum defect {worst_sum:.2e}, worst monomial defect "
           f"{worst_monomial:.2e}")
    assert worst_sum <= 1e-10
    assert worst_monomial <= 1e-8


def test_criterion_08_residual_certificate(figure1_curves, curve_n32_d2):
    worst = 0.0
    for curve in list(figure1_curves.values()) + [curve_n32_d2]:
        worst = max(worst, float(collocation_residuals(curve).max()))
    ok = worst <= 1e-10 * 100.0
    report(8, "residual certificate", ok, f"max re-evaluated residual {worst:.2e}")
    assert worst <= 1e-10 * 100.0


def test_criterion_09_self_convergence():
    results = {}
    ok = True
    for d in (1, 2):
        curves = {n: solve_boundary(SolverConfig(n=n, d=d), TABLE3_PARAMS)
                  for n in (16, 32, 64, 128, 256)}
        gaps = []
        for n in (16, 32, 64, 128):
            coarse, fine = curves[n], curves[2 * n]
            mask = coarse.grid >= 3.0 / 8.0
            gaps.append(float(np.max(np.abs(coarse.values[mask]
                                            - fine.values[::2][mask]))))
        results[d] = gaps
        ok = ok and all(b < a for a, b in zip(gaps, gaps[1:]))
    report(9, "self-convergence", ok,
           "; ".join(f"d={d}: " + " > ".join(f"{g:.2e}" for g in gaps)
                     for d, gaps in results.items()))
    for gaps in results.values():
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_criterion_10_value_matching(curve_n64_d3):
    boundary_at_horizon = float(eval_boundary(curve_n64_d3, 3.0))
    result = american_put_price(3.0, boundary_at_horizon, curve_n64_d3)
    gap = abs(result.value - (100.0 - boundary_at_horizon))
    # one-sided continuation limit, as a diagnostic of the seam quality
    near = american_put_price(3.0, boundary_at_horizon * (1.0 + 1e-9),
                              curve_n64_d3)
    near_gap = abs(near.value - (100.0 - boundary_at_horizon * (1.0 + 1e-9)))
    ok = gap <= 1e-2
    report(10, "value matching", ok,
           f"|P - payoff| = {gap:.2e} at the boundary, {near_gap:.2e} "
           f"approaching from the continuation side")
    assert gap <= 1e-2


def test_value_matching_from_the_continuation_side(curve_n64_d3):
    # criterion 10's gap at S = B(T) is the payoff by construction; just above B(T) the put
    # takes the premium from every node, so a boundary 1e-3 K off moves the gap past 2e-2
    spot = float(eval_boundary(curve_n64_d3, 3.0)) * (1.0 + 1e-9)
    gap = american_put_price(3.0, spot, curve_n64_d3).value - (100.0 - spot)
    report(10, "value matching from the continuation side", abs(gap) <= 1e-3,
           f"P - payoff = {gap:.2e} at S = B(T)(1 + 1e-9)")
    assert abs(gap) <= 1e-3


def test_criterion_11_hybrid_speedup():
    m = 4
    coarse_nodes = 17
    total = coarse_nodes + (coarse_nodes - 1) * (m - 2)  # 49 stored nodes
    hybrid_cfg = SolverConfig(n=16, d=2, hybrid_m=m)
    plain_cfg = SolverConfig(n=total - 1, d=2)

    # best of five alternating cold runs each, so that one run slowed by
    # machine load decides nothing
    hybrid_time = math.inf
    plain_time = math.inf
    for _ in range(5):
        clear_weight_cache()
        hybrid_time = min(hybrid_time,
                          solve_boundary(hybrid_cfg, TABLE3_PARAMS)
                          .diagnostics.wall_time)
        clear_weight_cache()
        plain_time = min(plain_time,
                         solve_boundary(plain_cfg, TABLE3_PARAMS)
                         .diagnostics.wall_time)
    ratio = hybrid_time / plain_time
    ok = ratio < 1.0
    report(11, "hybrid speedup", ok,
           f"N={total}: hybrid {hybrid_time:.3f}s vs plain {plain_time:.3f}s, "
           f"ratio {ratio:.2f}")
    assert ratio < 1.0
