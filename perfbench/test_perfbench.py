"""Smoke tests of the benchmark itself, each workload cut to one op per phase.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


def test_injected_bad_price_is_counted():
    lib, _ = workloads.setup("book")
    wl = workloads.Book(seed=7, lib=lib)
    calls = workloads.make_calls(lib)
    price = calls.price

    def bad_price(t, spot, curve):
        result = price(t, spot, curve)
        return dataclasses.replace(result, value=result.value - 0.5 * curve.params.strike)

    phase = run.measure(wl, dataclasses.replace(calls, price=bad_price), 1,
                        lib["boundary"].SolverError)
    assert phase.attempted == phase.failed == 1
    assert any(f["op"] == 0 and f["kind"].startswith("price_below_lower")
               for f in phase.failures)
    assert run.report_only(phase, wl)["fail_share"]["value"] == 1.0
