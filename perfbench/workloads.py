"""Workloads of the kimvolterra benchmark: seeded inputs, one timed op, checks.

Every workload uses d = 2 and the Floater-Hormann family.  Markets are
drawn per op from ``random.Random(f"{workload}:{seed}:{op}")`` (see
``_CurveWorkload.market``), so an op's inputs depend only on the seed and
its index and any failing case can be replayed on its own.  The library is imported inside :func:`setup`, which
is what ``setup_s`` times; nothing here imports numpy before that.
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

D = 2
FAMILY = "fh"
SPOT_FRACTIONS = (0.8, 0.9, 1.0, 1.1, 1.2)
# Relative tolerances of the per-op checks, in units of the strike.
MONOTONE_TOL = 1e-9
PRICE_TOL = 1e-6
TABLE3_ERR_MAX = 1e-3

MODULES = ("market", "barycentric", "quadrature", "boundary", "pricing", "cli")


def setup(name: str):
    """Import the library and run the workload's warm-up; return (lib, seconds)."""
    start = perf_counter()
    lib = {mod: importlib.import_module(f"kimvolterra.{mod}") for mod in MODULES}
    WORKLOADS[name].warm(lib)
    return lib, perf_counter() - start


@dataclass
class Calls:
    """The library entry points an op uses, traced or not."""

    solve: object
    price: object
    certify: object
    cli_main: object


def make_calls(lib: dict, wrap=lambda fn, name: fn) -> Calls:
    boundary = lib["boundary"]

    def certify(curve) -> float:
        """Largest collocation residual of a solved curve, relative to K."""
        return float(boundary.collocation_residuals(curve).max()) / curve.params.strike

    return Calls(solve=wrap(boundary.solve_boundary, "boundary.solve"),
                 price=wrap(lib["pricing"].american_put_price, "pricing.put"),
                 certify=wrap(certify, "boundary.certificate"),
                 cli_main=wrap(lib["cli"].main, "cli.main"))


def draw_market(rng: random.Random, expiry: float, zero_dividend: bool, lib: dict):
    """K in [80, 120], r in [0.02, 0.10], sigma in [0.15, 0.40]; delta = 0
    if ``zero_dividend``, else delta in [0.01, 0.10]."""
    strike = rng.uniform(80.0, 120.0)
    rate = rng.uniform(0.02, 0.10)
    vol = rng.uniform(0.15, 0.40)
    dividend = 0.0 if zero_dividend else rng.uniform(0.01, 0.10)
    return lib["market"].MarketParams(strike=strike, expiry=expiry, rate=rate,
                                      dividend=dividend, volatility=vol)


def price_failures(value: float, t: float, spot: float, p, lib: dict) -> list[str]:
    """A put price must lie in [max(K - S, European), K], to 1e-6 K."""
    lower = max(p.strike - spot, lib["market"].european_put(t, spot, p))
    tol = PRICE_TOL * p.strike
    if value < lower - tol:
        return [f"price_below_lower(S={spot:.6g},t={t:.6g},"
                f"value={value:.6g},lower={lower:.6g})"]
    if value > p.strike + tol:
        return [f"price_above_strike(S={spot:.6g},t={t:.6g},value={value:.6g})"]
    return []


def curve_failures(curve, calls: Calls, newton_tol: float) -> list[str]:
    """Node monotonicity and the residual certificate of a solved curve."""
    kinds = []
    strike = curve.params.strike
    rise = float((curve.values[1:] - curve.values[:-1]).max())
    if rise > MONOTONE_TOL * strike:
        kinds.append(f"non_monotone(rise={rise:.3g})")
    cert = calls.certify(curve)
    if cert > newton_tol:
        kinds.append(f"certificate(max_rel={cert:.3g})")
    return kinds


class _CurveWorkload:
    """Solve one seeded market, then price the five spots at given times."""

    name = ""
    n = 0
    speed_kernel = "small"
    # Ops per second of a run at the reference speed, speed kernel and
    # checks included; a run of s seconds makes round(s * ops_per_s) ops.
    ops_per_s = 0.0

    def __init__(self, seed: int, lib: dict) -> None:
        self.seed = seed
        self.lib = lib
        self.cfg = lib["boundary"].SolverConfig(n=self.n, d=D, family=FAMILY)

    @staticmethod
    def warm(lib: dict) -> None:
        pass

    def reset(self) -> None:
        """Return the library to its post-set-up state between phases."""

    def market(self, op: int, expiry_range: tuple[float, float]):
        """The op's seeded market and its random stream for further draws.

        A zero-dividend solve costs about a third of one with dividends, so
        the delta = 0 share is stratified rather than drawn per op: exactly
        one op in each block of four, at a seeded position.  Each op still
        has delta = 0 with probability 1/4, and a run's cost no longer
        depends on how many zero-dividend ops it happened to draw.
        """
        block = random.Random(f"{self.name}:{self.seed}:block{op // 4}")
        rng = random.Random(f"{self.name}:{self.seed}:{op}")
        expiry = rng.uniform(*expiry_range)
        return draw_market(rng, expiry, block.randrange(4) == op % 4, self.lib), rng

    def op(self, inputs, calls: Calls):
        params, times = inputs
        curve = calls.solve(self.cfg, params)
        spots = [f * params.strike for f in SPOT_FRACTIONS]
        return curve, [(t, s, calls.price(t, s, curve).value)
                       for t in times for s in spots]

    def check(self, inputs, output, calls: Calls) -> list[str]:
        params, _ = inputs
        curve, quotes = output
        kinds = curve_failures(curve, calls, self.cfg.newton_tol)
        for t, spot, value in quotes:
            kinds += price_failures(value, t, spot, params, self.lib)
        return kinds


class Book(_CurveWorkload):
    """n = 128 at the fixed horizon T = 2; both table keys built in set-up.

    Each op prices the five spots at t = T and at one seeded remaining
    maturity t in [0.05, 2), which goes through the non-node premium grid.
    """

    name = "book"
    n = 128
    ops_per_s = 8.5
    horizon = 2.0

    @staticmethod
    def warm(lib: dict) -> None:
        # One solve per weight-table key: with and without the dividend term.
        cfg = lib["boundary"].SolverConfig(n=Book.n, d=D, family=FAMILY)
        for dividend in (0.04, 0.0):
            params = lib["market"].MarketParams(strike=100.0, expiry=Book.horizon,
                                                rate=0.06, dividend=dividend,
                                                volatility=0.25)
            lib["boundary"].solve_boundary(cfg, params)

    def inputs(self, op: int):
        params, rng = self.market(op, (self.horizon, self.horizon))
        return params, (self.horizon, rng.uniform(0.05, self.horizon))


class ExpiryChain(_CurveWorkload):
    """n = 64 with a seeded expiry T in [0.25, 3] per op, priced at t = T.

    The weight-table cache is keyed on the horizon, so every op misses it.
    """

    name = "expiry_chain"
    n = 64
    ops_per_s = 6.0

    def reset(self) -> None:
        self.lib["boundary"].clear_weight_cache()

    def inputs(self, op: int):
        params, _ = self.market(op, (0.25, 3.0))
        return params, (params.expiry,)


class Table3:
    """The CLI's ``table3`` command in-process, after clearing the table cache.

    The paper's fixed case: it takes no seed.  Five fresh BIN(10000) trees
    dominate the op.
    """

    name = "table3"
    speed_kernel = "stream"
    ops_per_s = 0.65

    def __init__(self, seed: int, lib: dict) -> None:
        self.lib = lib
        self.out = Path(__file__).resolve().parent / "out" / f"table3-cli-{seed}.json"
        self.out.parent.mkdir(exist_ok=True)
        self._curve_kinds: dict[tuple, list[str]] = {}
        self.price_err_max = 0.0

    @staticmethod
    def warm(lib: dict) -> None:
        pass

    def reset(self) -> None:
        self._curve_kinds = {}

    def inputs(self, op: int):
        return ["table3", "--format", "json", "--out", str(self.out)]

    def op(self, argv, calls: Calls):
        self.lib["boundary"].clear_weight_cache()
        return calls.cli_main(argv)

    def curve_kinds(self, spec: dict, calls: Calls) -> list[str]:
        """Curve checks of the solve the CLI reports in its JSON spec.

        The config is read from the CLI's own output, so a change to how
        the command solves is checked, not a copy of its old config.  Each
        distinct config is solved and checked once per phase.
        """
        key = (spec["n"], spec["d"], spec["family"])
        if key not in self._curve_kinds:
            boundary = self.lib["boundary"]
            cfg = boundary.SolverConfig(n=key[0], d=key[1], family=key[2])
            curve = boundary.solve_boundary(cfg, self.lib["cli"].TABLE3_PARAMS)
            self._curve_kinds[key] = curve_failures(curve, calls, cfg.newton_tol)
        return list(self._curve_kinds[key])

    def check(self, argv, code, calls: Calls) -> list[str]:
        kinds = [f"cli_exit_{code}"] if code != 0 else []
        if not self.out.exists():
            return kinds + ["cli_no_output"]
        payload = json.loads(self.out.read_text(encoding="utf-8"))
        self.out.unlink()
        kinds += self.curve_kinds(payload["spec"], calls)
        params = self.lib["cli"].TABLE3_PARAMS
        errors = []
        for row in payload["rows"]:
            errors.append(float(row["abs_error"]))
            kinds += price_failures(float(row["price"]), params.expiry,
                                    float(row["S"]), params, self.lib)
        self.price_err_max = max(self.price_err_max, *errors)
        if self.price_err_max > TABLE3_ERR_MAX:
            kinds.append(f"price_err_max({self.price_err_max:.3g})")
        return kinds


WORKLOADS = {"book": Book, "expiry_chain": ExpiryChain, "table3": Table3}
