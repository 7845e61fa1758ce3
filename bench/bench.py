"""Write BENCH_<tag>.json: the Table-3 end-to-end cases and the 144-market sweep.

    python bench/bench.py --tag <tag> [--quick] [--out PATH]

The file lands at the repo root unless ``--out`` names another path.  It
imports only the installed (or ``PYTHONPATH``-selected) ``kimvolterra``, so
running it against another checkout's ``src/`` measures that checkout.

* ``machine``: nproc, Python, numpy, scipy and ``git describe --always
  --dirty`` of the checkout that holds the imported package.
* ``table3``: the Table-3 market (K = 100, T = 3, r = 0.08, sigma = 0.2,
  fh, d = 2) at delta in {0, 0.08} and n in {32, 64, 128, 256, 512}.  One
  run is a solve plus one call pricing the five t = T spots S = 80 ... 120.
  Cold runs follow ``clear_weight_cache()`` and warm runs reuse the tables;
  the two alternate, 9 of each (3 with ``--quick``).  Times are the median and
  quartiles in seconds; ``residual_evals``, ``table_builds`` (misses of the
  unit weight-table cache), ``error_vs_bin10000`` (largest |price -
  BIN(10000)| over the five spots) and ``error_vs_fixed_point`` (the same
  against the fixed-point values of ``tests/data/fixed_point_prices.json``)
  are deterministic.
* ``to_tolerance``: per delta and tolerance in {1e-4, 1e-5}, the smallest
  run n whose ``error_vs_fixed_point`` is within it and that case's cold
  ``wall_s`` median, both null when no n is (in a full run, none by n = 512).
* ``sweep``: r in {0.02, 0.05, 0.08}, delta in {0, 0.08, 0.2, 0.5}, sigma in
  {0.1, 0.2, 0.4}, T in {0.25, 1, 3, 10}, K = 100, fh, d = 2, at n = 32 and
  128: the ``SolverError``s, the curves with each flag kind, the residual
  evals, and a SHA-256 over every curve's nodes and its five t = T prices.

``--quick`` keeps n = 32 and 64 and the n = 32 sweep, as a smoke run.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

import kimvolterra
from kimvolterra import (FH, MarketParams, SolverConfig, SolverError, american_put_price,
                         binomial_american_put, clear_weight_cache, solve_boundary)
from kimvolterra.cli import BINOMIAL_STEPS, TABLE3_PARAMS, TABLE3_SPOTS
from kimvolterra.quadrature import unit_weight_rows

DIVIDENDS = (0.0, 0.08)
FIXED_POINT = Path(__file__).resolve().parent.parent / "tests" / "data" / "fixed_point_prices.json"
TOLERANCES = (1e-4, 1e-5)
FLAG_KINDS = ("non_monotone", "outside_bounds", "bisection")
SWEEP = {"rate": (0.02, 0.05, 0.08), "dividend": (0.0, 0.08, 0.2, 0.5),
         "volatility": (0.1, 0.2, 0.4), "expiry": (0.25, 1.0, 3.0, 10.0)}


def machine() -> dict:
    package = Path(kimvolterra.__file__).resolve().parent
    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=package,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "commit": commit}


def spread(samples: list[float]) -> dict:
    """Median and quartiles of the samples."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def run_once(cfg: SolverConfig, params: MarketParams) -> tuple[object, list[float], dict]:
    """One end-to-end run: a solve plus the five t = T prices in one call."""
    builds = unit_weight_rows.cache_info().misses
    start = time.perf_counter()
    curve = solve_boundary(cfg, params)
    result = american_put_price(params.expiry, TABLE3_SPOTS, curve)
    wall = time.perf_counter() - start
    diag = curve.diagnostics
    return curve, result.value.tolist(), {
        "wall_s": wall, "weights_s": diag.weights_s, "newton_s": diag.newton_s,
        "price_s": result.wall_time,
        "table_builds": unit_weight_rows.cache_info().misses - builds}


def table3_case(n: int, params: MarketParams, runs: int, reference: list[float],
                fixed_point: list[float]) -> dict:
    cfg = SolverConfig(n=n, d=2, family=FH)
    samples = {"cold": [], "warm": []}
    for _ in range(runs):
        for mode in ("cold", "warm"):
            if mode == "cold":
                clear_weight_cache()
            samples[mode].append(run_once(cfg, params))
    curve, prices, _ = samples["warm"][-1]
    evals = curve.diagnostics.residual_evals
    case = {"n": n, "dividend": params.dividend, "runs": runs, "residual_evals": evals,
            "evals_per_row": evals / n,
            "error_vs_bin10000": max(abs(v - ref) for v, ref in zip(prices, reference)),
            "error_vs_fixed_point": max(abs(v - ref) for v, ref in zip(prices, fixed_point))}
    for mode, rows in samples.items():
        stats = {key: spread([m[key] for _, _, m in rows])
                 for key in ("wall_s", "weights_s", "newton_s", "price_s")}
        (stats["table_builds"],) = {m["table_builds"] for _, _, m in rows}  # one count per mode
        case[mode] = stats
    return case


def to_tolerance(table3: list[dict]) -> list[dict]:
    """Per delta and tolerance, the smallest n within it of the fixed point, and its cold time."""
    rows = []
    for dividend, tol in itertools.product(DIVIDENDS, TOLERANCES):
        case = min((c for c in table3 if c["dividend"] == dividend
                    and c["error_vs_fixed_point"] <= tol), key=lambda c: c["n"], default=None)
        rows.append({"dividend": dividend, "tolerance": tol,
                     "n": None if case is None else case["n"],
                     "cold_wall_s": None if case is None else case["cold"]["wall_s"]["median"]})
    return rows


def sweep(n: int) -> dict:
    cfg = SolverConfig(n=n, d=2, family=FH)
    digest = hashlib.sha256()
    markets = [dict(zip(SWEEP, values)) for values in itertools.product(*SWEEP.values())]
    errors, flagged, evals = [], dict.fromkeys(FLAG_KINDS, 0), 0
    for market in markets:
        params = MarketParams(strike=100.0, **market)
        try:
            curve = solve_boundary(cfg, params)
        except SolverError as exc:
            errors.append({**market, "error": str(exc)})
            continue
        evals += curve.diagnostics.residual_evals
        for kind in {kind for _, kind, _ in curve.diagnostics.flags}:
            flagged[kind] += 1
        digest.update(curve.values.tobytes())
        digest.update(american_put_price(params.expiry, TABLE3_SPOTS, curve).value.tobytes())
    return {"n": n, "cases": len(markets),
            "solver_errors": len(errors), "failures": errors, "flagged_curves": flagged,
            "residual_evals": evals, "sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    parser.add_argument("--quick", action="store_true",
                        help="n = 32 and 64, 3 runs each, and the n = 32 sweep only")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (BENCH_<tag>.json at the repo root if omitted)")
    args = parser.parse_args(argv)
    sizes, runs, sweep_sizes = ((32, 64), 3, (32,)) if args.quick else ((32, 64, 128, 256, 512),
                                                                          9, (32, 128))
    quoted = json.loads(FIXED_POINT.read_text(encoding="utf-8"))["prices_by_dividend"]
    table3 = []
    for dividend in DIVIDENDS:
        params = replace(TABLE3_PARAMS, dividend=dividend)
        reference = [float(v)
                     for v in binomial_american_put(BINOMIAL_STEPS, TABLE3_SPOTS, params)]
        fixed_point = quoted[str(dividend)]  # keyed "0.0" and "0.08"
        table3 += [table3_case(n, params, runs, reference, fixed_point) for n in sizes]
    report = {"tag": args.tag, "quick": args.quick, "machine": machine(),
              "spots": list(TABLE3_SPOTS), "binomial_steps": BINOMIAL_STEPS, "table3": table3,
              "to_tolerance": to_tolerance(table3), "sweep": [sweep(n) for n in sweep_sizes]}
    out = args.out or Path(__file__).resolve().parent.parent / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
