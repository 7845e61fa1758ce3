"""Benchmark CLI: boundary curves, prices, and convergence studies as CSV/JSON.

Commands
--------
table3          five-spot put values against a fresh binomial reference
boundary        solved boundary curves sampled on 200 points per dividend yield
price           premium-representation prices at given spots
convergence     interpolation-error orders for the rational basis on exp(t)
lebesgue        sampled Lebesgue constants against the logarithmic bound
workprecision   wall time and error per (method, grid size) cell

Exit codes: 0 all embedded tolerances pass, 1 a tolerance failed,
2 usage/configuration/output error, 3 solver failure.  Output is CSV (comma,
header row, LF, UTF-8, quoted as needed) or JSON with ``spec``, ``rows`` and
``passed`` fields; the JSON ``spec`` of ``table3``, ``boundary`` and ``price``
lists each solve's counts and flags.  All outputs are deterministic except
the measured wall-time column of ``workprecision``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .barycentric import BaryBasis, basis_matrix, lebesgue_constant
from .boundary import (
    BFH,
    FH,
    SolverConfig,
    SolverError,
    clear_weight_cache,
    eval_boundary,
    solve_boundary,
)
from .market import ConfigurationError, MarketParams, binomial_american_put
from .pricing import american_put_price, error_bound_factor

__all__ = ["main", "build_parser"]

TABLE3_SPOTS = (80.0, 90.0, 100.0, 110.0, 120.0)
TABLE3_PARAMS = MarketParams(strike=100.0, expiry=3.0, rate=0.08,
                             dividend=0.08, volatility=0.2)
_FIXED_POINT_AT_120 = {0.08: 5.92980488, 0.0: 2.51026022}  # tests/data/fixed_point_prices.json
TABLE3_TOLERANCE = 1e-3
FIGURE1_DIVIDENDS = (0.0, 0.04, 0.08, 0.12)
BINOMIAL_STEPS = 10_000
DIAGNOSTIC_FIELDS = ("residual_evals", "newton_steps", "bisections", "weights_cached", "flags")

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


def _fmt_price(v: float) -> str:
    return f"{v:.4f}"


def _fmt_err(v: float) -> str:
    return f"{v:.1e}"


def _comma_list(kind, noun: str, ok, rule: str):
    """An argparse type: a comma list of ``kind`` that ``ok`` accepts, or ``rule.format(text)``."""
    def parse(text: str) -> list:
        try:
            values = [kind(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {noun} list {text!r}") from exc
        if not values or not ok(values):
            raise argparse.ArgumentTypeError(rule.format(text))
        return values
    return parse


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand declares only the options it reads, so any other
    option is a usage error (exit 2)."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="output path (stdout if omitted)")
    output.add_argument("--format", choices=("csv", "json"), default="csv")

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", choices=(FH, BFH), default=FH)

    market = argparse.ArgumentParser(add_help=False)
    market.add_argument("--strike", type=float, default=TABLE3_PARAMS.strike)
    market.add_argument("--expiry", type=float, default=TABLE3_PARAMS.expiry)
    market.add_argument("--rate", type=float, default=TABLE3_PARAMS.rate)
    market.add_argument("--dividend", type=float, default=None,
                        help="continuous dividend yield (boundary sweeps four yields when "
                             f"omitted; other commands default to {TABLE3_PARAMS.dividend})")
    market.add_argument("--vol", type=float, default=TABLE3_PARAMS.volatility)

    # None defaults resolve in code: subparsers share parent Actions, so set_defaults(d=) sets all
    scheme = argparse.ArgumentParser(add_help=False)
    scheme.add_argument("--d", type=int, default=None, help="rational blending order")
    scheme.add_argument("--m", type=int, default=None,
                        help="hybrid fill: m - 2 interpolated points per Newton "
                             "interval, n (m - 1) stored intervals")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--n", type=int, default=None, help="Newton grid subintervals")

    parser = argparse.ArgumentParser(
        prog="kimvolterra",
        description="Early exercise boundaries and American option prices "
                    "by product integration on a barycentric rational basis.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table3", parents=[family, output],
                   help="five-spot benchmark against a binomial reference"
                   ).set_defaults(run=cmd_table3)
    sub.add_parser("boundary", parents=[market, scheme, grid, family, output],
                   help="solved boundary curves").set_defaults(run=cmd_boundary)
    price = sub.add_parser("price", parents=[market, scheme, grid, family, output],
                           help="price given spots")
    price.set_defaults(run=cmd_price)
    price.add_argument("--spots", default=[100.0],
                       type=_comma_list(float, "spot", lambda v: all(0.0 < x < math.inf for x in v),
                                        "spots must be finite and positive, got {!r}"),
                       help="comma-separated spot prices")
    sub.add_parser("convergence", parents=[output],
                   help="interpolation convergence orders on exp(t)"
                   ).set_defaults(run=cmd_convergence)
    sub.add_parser("lebesgue", parents=[output],
                   help="Lebesgue constants against the logarithmic bound"
                   ).set_defaults(run=cmd_lebesgue)
    wp = sub.add_parser("workprecision", parents=[market, scheme, output],
                        help="wall time and error per (method, n) cell")
    wp.set_defaults(run=cmd_workprecision)
    wp.add_argument("--n-list", default=[8, 16, 32, 64],
                    type=_comma_list(int, "integer", lambda v: v == sorted(v),
                                     "grid sizes must be an ascending list"),
                    help="ascending comma-separated grid sizes")
    return parser


def _market_from_args(args) -> MarketParams:
    dividend = args.dividend if args.dividend is not None else TABLE3_PARAMS.dividend
    return MarketParams(strike=args.strike, expiry=args.expiry, rate=args.rate,
                        dividend=dividend, volatility=args.vol)


def _config_from_args(args, default_n: int, default_d: int) -> SolverConfig:
    return SolverConfig(n=args.n if args.n is not None else default_n,
                        d=args.d if args.d is not None else default_d,
                        family=args.family,
                        hybrid_m=args.m if args.m is not None else 2)


def _diagnostics(curves) -> list[dict]:
    """Each solve's counts and flags, for the JSON spec."""
    return [{name: getattr(c.diagnostics, name) for name in DIAGNOSTIC_FIELDS} for c in curves]


def cmd_table3(args) -> tuple[list[str], list[list[str]], bool, dict]:
    """Fixed five-spot benchmark: binomial reference vs the n=32, d=2 scheme."""
    cfg = SolverConfig(n=32, d=2, family=args.family)
    curve = solve_boundary(cfg, TABLE3_PARAMS)
    header = ["S", "bin", "price", "abs_error"]
    references = binomial_american_put(BINOMIAL_STEPS, TABLE3_SPOTS, TABLE3_PARAMS)
    values = american_put_price(TABLE3_PARAMS.expiry, TABLE3_SPOTS, curve).value.tolist()
    errors = [abs(value - reference) for value, reference in zip(values, references)]
    rows = [[f"{spot:.0f}", _fmt_price(reference), _fmt_price(value), _fmt_err(err)]
            for spot, reference, value, err in zip(TABLE3_SPOTS, references, values, errors)]
    passed = all(err <= TABLE3_TOLERANCE for err in errors)
    spec = {"command": "table3", "family": args.family, "n": cfg.n, "d": cfg.d,
            "spots": list(TABLE3_SPOTS), "binomial_steps": BINOMIAL_STEPS,
            "tolerance": TABLE3_TOLERANCE, "diagnostics": _diagnostics([curve])}
    return header, rows, passed, spec


def cmd_boundary(args) -> tuple[list[str], list[list[str]], bool, dict]:
    """Boundary curves on 200 evaluation points per dividend yield."""
    dividends = (args.dividend,) if args.dividend is not None else FIGURE1_DIVIDENDS
    header = ["dividend", "t", "boundary"]
    rows = []
    cfg = _config_from_args(args, default_n=64, default_d=3)
    curves = []
    for dividend in dividends:
        params = replace(_market_from_args(args), dividend=dividend)
        curve = solve_boundary(cfg, params)
        curves.append(curve)
        ts = np.linspace(0.0, params.expiry, 200)
        values = eval_boundary(curve, ts)
        for t, b in zip(ts, values):
            rows.append([f"{dividend:.4f}", f"{t:.6f}", f"{b:.6f}"])
    passed = all(kind != "non_monotone" for c in curves for _, kind, _ in c.diagnostics.flags)
    spec = {"command": "boundary", "dividends": [float(d) for d in dividends],
            "strike": args.strike, "expiry": args.expiry, "rate": args.rate,
            "vol": args.vol, "family": args.family, "n": cfg.n, "d": cfg.d, "m": args.m,
            "eval_points": 200, "diagnostics": _diagnostics(curves)}
    return header, rows, passed, spec


def cmd_price(args) -> tuple[list[str], list[list[str]], bool, dict]:
    """Premium-representation prices at the requested spots."""
    params = _market_from_args(args)
    cfg = _config_from_args(args, default_n=32, default_d=2)
    curve = solve_boundary(cfg, params)
    header = ["S", "value", "european", "premium", "bound_factor"]
    result = american_put_price(params.expiry, args.spots, curve)
    rows = [[*map(_fmt_price, row), f"{error_bound_factor(row[0], params):.6f}"]
            for row in zip(args.spots, result.value, result.european_part, result.premium_part)]
    spec = {"command": "price", "strike": params.strike, "expiry": params.expiry,
            "rate": params.rate, "dividend": params.dividend, "vol": params.volatility,
            "family": cfg.family, "n": cfg.n, "d": cfg.d, "m": args.m,
            "spots": [float(s) for s in args.spots], "diagnostics": _diagnostics([curve])}
    return header, rows, True, spec


def cmd_convergence(args) -> tuple[list[str], list[list[str]], bool, dict]:
    """Max-norm interpolation errors and observed orders for f = exp(t)."""
    sizes = (32, 64, 128, 256)
    samples = np.linspace(0.0, 1.0, 4001)[1:-1]
    header = ["d", "n", "error", "order"]
    rows = []
    passed = True
    for d in (1, 2, 3):
        errors = {}
        for n in sizes:
            basis = BaryBasis(np.linspace(0.0, 1.0, n + 1), d)
            approx = basis_matrix(basis, samples) @ np.exp(basis.nodes)
            errors[n] = float(np.max(np.abs(approx - np.exp(samples))))
        for prev, n in zip((None,) + sizes[:-1], sizes):
            order = "" if prev is None else f"{math.log2(errors[prev] / errors[n]):.3f}"
            rows.append([str(d), str(n), _fmt_err(errors[n]), order])
        overall = math.log(errors[32] / errors[256]) / math.log(256 / 32)
        passed = passed and overall >= d + 0.5
    spec = {"command": "convergence", "sizes": list(sizes),
            "orders_required": {str(d): d + 0.5 for d in (1, 2, 3)}}
    return header, rows, passed, spec


def cmd_lebesgue(args) -> tuple[list[str], list[list[str]], bool, dict]:
    """Sampled Lebesgue constants against 2^(d-1) (2 + ln n)."""
    header = ["d", "n", "lebesgue", "bound", "within_bound"]
    rows = []
    for d in (1, 2, 3):
        for n in (8, 16, 32, 64, 128, 256):
            basis = BaryBasis(np.linspace(0.0, 1.0, n + 1), d)
            lam = lebesgue_constant(basis, oversample=30)
            bound = 2.0 ** (d - 1) * (2.0 + math.log(n))
            rows.append([str(d), str(n), f"{lam:.6f}", f"{bound:.6f}",
                         "true" if lam <= bound else "false"])
    passed = all(row[-1] == "true" for row in rows)
    spec = {"command": "lebesgue", "oversample": 30}
    return header, rows, passed, spec


def cmd_workprecision(args) -> tuple[list[str], list[list[str]], bool, dict]:
    """Wall time and absolute error per (method, n) at S = 120, against the fixed point on the
    Table-3 market at a dividend it holds and against BIN(10000) on any other market."""
    methods = [("fh", FH, 2), ("bfh", BFH, 2)]
    if (m := args.m) is not None:
        if m < 2:
            # the Newton-grid size below divides by m - 1
            raise ConfigurationError(f"--m must be >= 2, got {m}")
        methods += [(f"fh_m{m}", FH, m), (f"bfh_m{m}", BFH, m)]
    params = _market_from_args(args)
    d = args.d if args.d is not None else 2
    spot = 120.0
    if params in (replace(TABLE3_PARAMS, dividend=q) for q in _FIXED_POINT_AT_120):
        reference = _FIXED_POINT_AT_120[params.dividend]
        source = "fixed point (Andersen, Lake & Offengelden 2016)"
    else:
        reference = binomial_american_put(BINOMIAL_STEPS, spot, params)
        source = f"BIN({BINOMIAL_STEPS})"
    header = ["method", "n", "total_nodes", "wall_time", "abs_error", "status"]
    rows = []
    passed = True
    for n in args.n_list:
        for label, family, fill in methods:
            try:
                # plain cells (label == family) solve on n, hybrid ones store about n intervals
                newton_n = (n if label == family
                            else max(d + 2, round((n + fill - 1) / (fill - 1))) - 1)
                cfg = SolverConfig(n=newton_n, d=d, family=family, hybrid_m=fill)
                clear_weight_cache()
                curve = solve_boundary(cfg, params)
                result = american_put_price(params.expiry, spot, curve)
                wall = curve.diagnostics.wall_time + result.wall_time
                err = abs(result.value - reference)
                rows.append([label, str(n), str(curve.grid.size),
                             f"{wall:.6f}", _fmt_err(err), "ok"])
            except (SolverError, ValueError) as exc:
                rows.append([label, str(n), "", "", "", f"failed: {exc}"])
                passed = False
    spec = {"command": "workprecision", "n_list": list(args.n_list), "d": d,
            "m": args.m, "spot": spot, "strike": params.strike,
            "expiry": params.expiry, "rate": params.rate,
            "dividend": params.dividend, "vol": params.volatility,
            "reference": source}
    return header, rows, passed, spec


def _emit(args, header: list[str], rows: list[list[str]], passed: bool,
          spec: dict) -> None:
    if args.format == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
        text = buffer.getvalue()
    else:
        payload = {"spec": spec,
                   "rows": [dict(zip(header, row)) for row in rows],
                   "passed": passed}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        header, rows, passed, spec = args.run(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:  # ConfigurationError included
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _emit(args, header, rows, passed, spec)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if passed else EXIT_TOLERANCE
