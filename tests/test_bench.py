"""bench/bench.py run in-process with --quick: the file's layout and its deterministic fields.

The sweep's SHA-256 and residual-eval totals are not pinned: both follow the
platform's BLAS bits.
"""

import importlib.util
import itertools
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from kimvolterra.cli import TABLE3_PARAMS, TABLE3_SPOTS

from conftest import FIXED_POINT_FILE

BENCH = Path(__file__).resolve().parent.parent / "bench" / "bench.py"
STATS = {"wall_s", "weights_s", "newton_s", "price_s"}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def quick(bench, tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_t.json"
    assert bench.main(["--quick", "--tag", "t", "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_layout(quick):
    assert set(quick) == {"tag", "quick", "machine", "spots", "binomial_steps", "table3",
                          "to_tolerance", "sweep"}
    assert quick["tag"] == "t" and quick["quick"] is True
    assert set(quick["machine"]) == {"nproc", "python", "numpy", "scipy", "commit"}
    assert quick["spots"] == list(TABLE3_SPOTS)
    assert [(c["dividend"], c["n"]) for c in quick["table3"]] == \
        list(itertools.product((0.0, 0.08), (32, 64)))
    for case in quick["table3"]:
        assert set(case) == {"n", "dividend", "runs", "residual_evals", "evals_per_row",
                             "error_vs_bin10000", "error_vs_fixed_point", "cold", "warm"}
        assert case["runs"] == 3
        for mode in ("cold", "warm"):
            assert set(case[mode]) == STATS | {"table_builds"}
            for key in STATS:
                stat = case[mode][key]
                assert set(stat) == {"median", "q1", "q3"}
                assert 0.0 <= stat["q1"] <= stat["median"] <= stat["q3"]


def test_cold_runs_build_both_tables_and_warm_runs_none(quick):
    for case in quick["table3"]:
        assert (case["cold"]["table_builds"], case["warm"]["table_builds"]) == (2, 0)


def test_quick_sweep_solves_every_market(quick):
    (sweep,) = quick["sweep"]
    assert (sweep["n"], sweep["cases"], sweep["solver_errors"], sweep["failures"]) == \
        (32, 144, 0, [])
    assert set(sweep["flagged_curves"]) == {"non_monotone", "outside_bounds", "bisection"}


def test_to_tolerance_is_the_smallest_n_within_it(quick):
    rows = quick["to_tolerance"]
    assert [(r["dividend"], r["tolerance"]) for r in rows] == \
        list(itertools.product((0.0, 0.08), (1e-4, 1e-5)))
    for row in rows:
        within = [c for c in quick["table3"] if c["dividend"] == row["dividend"]
                  and c["error_vs_fixed_point"] <= row["tolerance"]]
        case = min(within, key=lambda c: c["n"]) if within else None
        assert row["n"] == (case and case["n"])
        assert row["cold_wall_s"] == (case and case["cold"]["wall_s"]["median"])
    # delta = 0.08 at n = 32 reads 1.025e-4
    reached = {(r["dividend"], r["tolerance"]): r["n"] for r in rows}
    assert reached == {(0.0, 1e-4): None, (0.0, 1e-5): None, (0.08, 1e-4): 64,
                       (0.08, 1e-5): None}


def test_fixed_point_file_quotes_the_table3_market(bench):
    quoted = json.loads(FIXED_POINT_FILE.read_text(encoding="utf-8"))
    assert bench.FIXED_POINT == FIXED_POINT_FILE.resolve()
    assert quoted["spots"] == list(TABLE3_SPOTS)
    market = asdict(TABLE3_PARAMS)
    del market["dividend"]
    assert quoted["market"] == market
    assert sorted(map(float, quoted["prices_by_dividend"])) == list(bench.DIVIDENDS)
