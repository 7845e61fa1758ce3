import csv
import io
import json
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import kimvolterra
import kimvolterra.cli as cli
from kimvolterra import MarketParams, SolverConfig, SolverError, clear_weight_cache, solve_boundary
from kimvolterra.cli import main


def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def rows_of(data: bytes):
    header, *lines = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    assert all(len(line) == len(header) for line in lines)
    return header, [dict(zip(header, line)) for line in lines]


class TestTable3:
    def test_benchmark_run(self, tmp_path):
        code, data = run(tmp_path, "t3.csv", ["table3"])
        assert code == 0
        header, rows = rows_of(data)
        assert header == ["S", "bin", "price", "abs_error"]
        assert [r["S"] for r in rows] == ["80", "90", "100", "110", "120"]
        by_spot = {r["S"]: r for r in rows}
        assert abs(float(by_spot["80"]["bin"]) - 22.2050) <= 5e-4
        assert all(float(r["abs_error"]) <= 1e-3 for r in rows)

    def test_deterministic_rerun(self, tmp_path):
        _, first = run(tmp_path, "a.csv", ["table3"])
        _, second = run(tmp_path, "b.csv", ["table3"])
        assert first == second


class TestBoundary:
    def test_default_dividend_sweep(self, tmp_path):
        code, data = run(tmp_path, "b.csv", ["boundary"])
        assert code == 0
        header, rows = rows_of(data)
        assert header == ["dividend", "t", "boundary"]
        assert len(rows) == 4 * 200
        first = {r["dividend"]: float(r["boundary"])
                 for r in rows if float(r["t"]) == 0.0}
        assert abs(first["0.0000"] - 100.0) <= 1e-6
        assert abs(first["0.0400"] - 100.0) <= 1e-6
        assert abs(first["0.1200"] - 66.67) <= 1e-2
        # columns decrease along t; the last interval may wiggle by the size
        # of the local solution error, nothing more
        for dividend in ("0.0000", "0.0400", "0.0800", "0.1200"):
            column = [float(r["boundary"]) for r in rows
                      if r["dividend"] == dividend]
            assert all(b <= a + 1e-2 for a, b in zip(column, column[1:]))
            assert column[-1] < column[0]

    def test_single_dividend(self, tmp_path):
        code, data = run(tmp_path, "b1.csv",
                         ["boundary", "--dividend", "0.08", "--n", "16", "--d", "2"])
        assert code == 0
        _, rows = rows_of(data)
        assert len(rows) == 200

    def test_json_output(self, tmp_path):
        code, data = run(tmp_path, "b.json", ["boundary", "--dividend", "0.08",
                                              "--n", "16", "--d", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(data)
        assert payload["passed"] is True
        assert len(payload["rows"]) == 200

    def test_deterministic_rerun(self, tmp_path):
        args = ["boundary", "--dividend", "0.08", "--n", "16", "--d", "2"]
        _, first = run(tmp_path, "c.csv", args)
        _, second = run(tmp_path, "d.csv", args)
        assert first == second


class TestPrice:
    def test_benchmark_point(self, tmp_path):
        code, data = run(tmp_path, "p.csv", ["price", "--spots", "100"])
        assert code == 0
        header, rows = rows_of(data)
        assert header == ["S", "value", "european", "premium", "bound_factor"]
        assert abs(float(rows[0]["value"]) - 11.7037) <= 1e-3

    def test_json_schema(self, tmp_path):
        code, data = run(tmp_path, "p.json",
                         ["price", "--spots", "90,110", "--format", "json"])
        assert code == 0
        payload = json.loads(data)
        assert set(payload) == {"spec", "rows", "passed"}
        assert payload["passed"] is True
        assert len(payload["rows"]) == 2
        assert payload["spec"]["command"] == "price"

    def test_deterministic_rerun(self, tmp_path):
        _, first = run(tmp_path, "p1.csv", ["price", "--spots", "85,105"])
        _, second = run(tmp_path, "p2.csv", ["price", "--spots", "85,105"])
        assert first == second


class TestDiagnostics:
    MARKETS = {
        "table3": (["table3"], [0.08], SolverConfig(n=32, d=2)),
        "boundary": (["boundary", "--n", "16", "--d", "2", "--dividend", "0.5"], [0.5],
                     SolverConfig(n=16, d=2)),
        "boundary_sweep": (["boundary", "--n", "16", "--d", "2"], [0.0, 0.04, 0.08, 0.12],
                           SolverConfig(n=16, d=2)),
        "price": (["price", "--spots", "90,110", "--family", "bfh"], [0.08],
                  SolverConfig(n=32, d=2, family="bfh")),
    }

    @pytest.mark.parametrize("case", list(MARKETS))
    def test_counts_match_direct_solves(self, tmp_path, case):
        argv, dividends, cfg = self.MARKETS[case]
        clear_weight_cache()
        code, data = run(tmp_path, "d.json", argv + ["--format", "json"])
        assert code in (0, 1)
        clear_weight_cache()
        expected = []
        for dividend in dividends:
            diag = solve_boundary(cfg, MarketParams(strike=100.0, expiry=3.0, rate=0.08,
                                                    dividend=dividend, volatility=0.2)).diagnostics
            expected.append({"residual_evals": diag.residual_evals,
                             "newton_steps": diag.newton_steps,
                             "bisections": diag.bisections,
                             "weights_cached": diag.weights_cached,
                             "flags": [list(flag) for flag in diag.flags]})
        assert json.loads(data)["spec"]["diagnostics"] == expected

    def test_flags_reach_the_json(self, tmp_path):
        # the same rises fail the boundary command's monotonicity gate
        argv = self.MARKETS["boundary"][0]
        code, data = run(tmp_path, "d.json", argv + ["--format", "json"])
        payload = json.loads(data)
        kinds = {kind for _, kind, _ in payload["spec"]["diagnostics"][0]["flags"]}
        assert {"non_monotone", "outside_bounds"} <= kinds
        assert (code, payload["passed"]) == (1, False)

    def test_hybrid_gate_reads_the_node_flags(self, tmp_path, monkeypatch):
        # --m 3 splits a node rise in two in the stored values, so a check on
        # them passed a 1.5e-9 K rise; the gate reads the solve's flags instead
        argv = ["boundary", "--dividend", "0.08", "--n", "16", "--d", "2", "--m", "3"]
        assert run(tmp_path, "plain.csv", argv)[0] == 0
        solve = cli.solve_boundary

        def flagged(cfg, params):
            curve = solve(cfg, params)
            diag = replace(curve.diagnostics, flags=((5, "non_monotone", 1.5e-7),))
            return replace(curve, diagnostics=diag)

        monkeypatch.setattr(cli, "solve_boundary", flagged)
        assert run(tmp_path, "flagged.csv", argv)[0] == 1


class TestConvergence:
    def test_orders(self, tmp_path):
        code, data = run(tmp_path, "c.csv", ["convergence"])
        assert code == 0
        header, rows = rows_of(data)
        assert header == ["d", "n", "error", "order"]
        d3_orders = [float(r["order"]) for r in rows if r["d"] == "3" and r["order"]]
        assert all(order >= 3.5 for order in d3_orders)


class TestLebesgue:
    def test_all_within_bound(self, tmp_path):
        code, data = run(tmp_path, "l.csv", ["lebesgue"])
        assert code == 0
        _, rows = rows_of(data)
        assert len(rows) == 18
        assert all(r["within_bound"] == "true" for r in rows)

    def test_deterministic_rerun(self, tmp_path):
        _, first = run(tmp_path, "l1.csv", ["lebesgue"])
        _, second = run(tmp_path, "l2.csv", ["lebesgue"])
        assert first == second


class TestWorkPrecision:
    def test_small_scan(self, tmp_path, monkeypatch):
        curves = []
        solve = cli.solve_boundary

        def recorded(cfg, params):
            curves.append(solve(cfg, params))
            return curves[-1]

        monkeypatch.setattr(cli, "solve_boundary", recorded)
        scans = []
        for k in range(9):
            code, data = run(tmp_path, f"w{k}.csv",
                             ["workprecision", "--n-list", "8,32", "--m", "3"])
            assert code == 0
            header, rows = rows_of(data)
            scans.append(rows)
        assert header == ["method", "n", "total_nodes", "wall_time",
                          "abs_error", "status"]
        untimed = [[{**r, "wall_time": ""} for r in scan] for scan in scans]
        assert all(u == untimed[0] for u in untimed)
        assert all(r["status"] == "ok" for r in rows)
        assert all(float(r["wall_time"]) > 0.0 for r in rows)
        fh = {r["n"]: float(r["abs_error"]) for r in rows if r["method"] == "fh"}
        assert fh["32"] <= fh["8"]
        assert {r["method"] for r in rows} == {"fh", "bfh", "fh_m3", "bfh_m3"}
        # hybrid beats the plain scheme at a comparable stored-node count, by the
        # median of its per-scan time ratio: a scan runs the two cold cells one
        # cell apart, so machine load moves both, and a slow scan is one vote
        cells = {(r["method"], r["n"]): r for r in rows}
        plain, hybrid = cells[("fh", "32")], cells[("fh_m3", "32")]
        assert abs(int(plain["total_nodes"]) - int(hybrid["total_nodes"])) <= 1
        ratios = []
        for scan in scans:
            wall = {(r["method"], r["n"]): float(r["wall_time"]) for r in scan}
            ratios.append(wall[("fh_m3", "32")] / wall[("fh", "32")])
        assert statistics.median(ratios) < 1.0
        # the same comparison counted in residual evals, free of machine load
        evals = {(c.config.family, c.config.hybrid_m, c.grid.size): c.diagnostics.residual_evals
                 for c in curves}
        assert (evals[("fh", 3, int(hybrid["total_nodes"]))]
                < evals[("fh", 2, int(plain["total_nodes"]))])


class TestErrorHandling:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_bad_market_configuration_exits_2(self, capsys):
        code = main(["price", "--vol", "-0.5"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table3", "--spots", "inf"],
        ["table3", "--n", "64"],
        ["convergence", "--rate", "0.1"],
        ["workprecision", "--family", "bfh"],
    ])
    def test_option_the_command_does_not_read_exits_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_bad_spots_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["price", "--spots", "abc"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["price", "--spots", "0,90"],
        ["workprecision", "--n-list", "8,2"],
        ["workprecision", "--n-list", "x"],
        ["price", "--spots", "nan"],
        ["price", "--spots", "inf,100"],
    ])
    def test_bad_list_exits_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["price", "--spots", "nan"], "spots must be finite and positive, got 'nan'"),
        (["price", "--spots", "abc"], "bad spot list 'abc'"),
        (["workprecision", "--n-list", "8,2"], "grid sizes must be an ascending list"),
        (["workprecision", "--n-list", "x"], "bad integer list 'x'"),
    ])
    def test_bad_list_names_its_rule(self, capsys, argv, message):
        with pytest.raises(SystemExit):
            main(argv)
        assert message in capsys.readouterr().err

    def test_lists_skip_empty_entries(self):
        args = cli.build_parser().parse_args(["price", "--spots", "80,,100, "])
        assert args.spots == [80.0, 100.0]
        args = cli.build_parser().parse_args(["workprecision", "--n-list", "8, 16"])
        assert args.n_list == [8, 16]

    def test_workprecision_n_below_d_plus_1_fails_its_rows(self, tmp_path):
        code, data = run(tmp_path, "w.csv", ["workprecision", "--n-list", "2,8"])
        assert code == 1
        header, rows = rows_of(data)
        assert len(header) == 6
        status = {(r["method"], r["n"]): r["status"] for r in rows}
        # the quoted status keeps every row at the header's six fields
        assert status[("fh", "2")] == status[("bfh", "2")] == \
            "failed: need n >= d + 1, got n=2, d=2"
        assert status[("fh", "8")] == status[("bfh", "8")] == "ok"

    @pytest.mark.parametrize("argv", [
        ["price", "--vol", "1e-170"],  # sigma^2 underflows in the perpetual exponent
        ["boundary", "--vol", "1e-300", "--dividend", "0.08"],
        ["price", "--rate", "1e-17"],  # the perpetual exponent rounds to 0
        ["workprecision", "--vol", "1e-300", "--n-list", "8"],  # the tree's u = d
        ["price", "--vol", "8"],  # the boundary interpolant dips below 0 near t = T
        ["price", "--strike", "1e-320"],  # a subnormal strike has no exact scale
    ])
    def test_degenerate_market_exits_2(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error:") and "Traceback" not in err

    def test_workprecision_m_below_2_exits_2(self, capsys):
        code = main(["workprecision", "--n-list", "8", "--m", "1"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, target):
        code = main(["lebesgue", "--out", str(tmp_path / target)])
        assert code == 2
        assert "output error" in capsys.readouterr().err

    def test_stdout_when_no_out(self, capsys):
        code = main(["lebesgue"])
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.startswith("d,n,lebesgue,bound,within_bound\n")

    def test_solver_failure_exits_3(self, capsys, monkeypatch):
        def broken(cfg, params):
            raise SolverError("stub failure")

        monkeypatch.setattr(cli, "solve_boundary", broken)
        code = main(["price", "--spots", "100"])
        assert code == 3
        assert "solver failure" in capsys.readouterr().err

    def test_hybrid_through_cli(self, tmp_path):
        code, data = run(tmp_path, "h.csv",
                         ["price", "--spots", "100", "--n", "17", "--m", "3"])
        assert code == 0
        _, rows = rows_of(data)
        # coarse Newton grid plus linear fill: accuracy is O(h^2) of the
        # coarse grid, so only a loose sanity band applies here
        assert abs(float(rows[0]["value"]) - 11.7037) <= 2e-2


def test_python_dash_m_entry_point():
    src = str(Path(kimvolterra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "kimvolterra", "convergence", "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


GOLDEN = Path(__file__).parent / "data" / "cli"
SPOTS = ["--spots", "80,90,100,110,120"]


@pytest.mark.parametrize("name,argv", [
    ("table3.csv", ["table3"]),
    ("table3_bfh.csv", ["table3", "--family", "bfh"]),
    ("boundary.csv", ["boundary"]),
    ("boundary_n256.csv", ["boundary", "--n", "256"]),
    ("price.csv", ["price", *SPOTS]),
    ("price_bfh.csv", ["price", *SPOTS, "--family", "bfh"]),
    ("price_m3.csv", ["price", *SPOTS, "--m", "3"]),
    ("convergence.csv", ["convergence"]),
    ("lebesgue.csv", ["lebesgue"]),
])
def test_golden_csv(tmp_path, name, argv):
    # the committed CSV of each deterministic command, byte for byte
    code, data = run(tmp_path, name, argv)
    assert code == 0
    assert data == (GOLDEN / name).read_bytes()


def _no_inf(text):
    assert "inf" not in text


def _at_least_payoff(text):
    # S = 1.001 B(T): the put lies above the boundary, so it is worth at least its payoff
    assert float(json.loads(text)["rows"][0]["value"]) >= 22.8417


# The CLI's regression pins: each row once ran as a CI step of its own through the installed
# console script, in a fresh process with no weight tables; the comment above it is that
# step's name without "through the console script".  Add a new pin as a row here.
CONSOLE_PINS = [
    # Table-3 benchmark
    pytest.param(["table3", "--format", "json"], 0, None, id="table3"),
    # Hybrid solves
    pytest.param(["workprecision", "--n-list", "8,16", "--m", "3", "--format", "json"], 0, None,
                 id="workprecision-hybrid"),
    # Boundary JSON output
    pytest.param(["boundary", "--format", "json"], 0, None, id="boundary-json"),
    # Blocked weight-row builder at n = 256
    pytest.param(["boundary", "--n", "256", "--format", "json"], 0, None, id="boundary-n256"),
    # Lebesgue constants
    pytest.param(["lebesgue", "--format", "json"], 0, None, id="lebesgue"),
    # Berrut-product (bfh) solve
    pytest.param(["price", "--family", "bfh", "--format", "json"], 0, None, id="price-bfh"),
    # Hybrid-curve pricing
    pytest.param(["price", "--m", "3", "--spots", "80,100,120", "--format", "json"], 0, None,
                 id="price-hybrid"),
    # Row-1 root below the perpetual bound
    pytest.param(["price", "--rate", "0.02", "--dividend", "0.5", "--vol", "0.1",
                  "--expiry", "10", "--n", "32", "--format", "json"], 0, None,
                 id="row1-below-perpetual"),
    # Curvature-proved Newton rows on a delta > r market whose nodes dip below the
    # perpetual bound, at n = 256
    pytest.param(["price", "--n", "256", "--dividend", "0.5", "--vol", "0.1",
                  "--expiry", "10", "--format", "json"], 0, None, id="curvature-rows-n256"),
    # A non-finite spot is a usage error (exit 2)
    pytest.param(["price", "--spots", "nan"], 2, None, id="spot-nan"),
    # A hybrid fill below 2 is a configuration error (exit 2)
    pytest.param(["workprecision", "--n-list", "8", "--m", "1"], 2, None, id="hybrid-m1"),
    # A volatility whose square underflows is a configuration error (exit 2)
    pytest.param(["price", "--vol", "1e-170"], 2, None, id="vol-1e-170"),
    # A strike of 1e200 solves
    pytest.param(["price", "--strike", "1e200", "--spots", "1e200", "--format", "json"], 0, None,
                 id="strike-1e200"),
    # A volatility whose d2 squares past the float range is a solver failure (exit 3)
    # without a warning
    pytest.param(["price", "--vol", "1e-160"], 3, None, id="vol-1e-160"),
    # A volatility whose boundary interpolant dips below zero near t = T is a
    # configuration error (exit 2) without a warning
    pytest.param(["price", "--vol", "8"], 2, None, id="vol-8"),
    # A strike of 1e308, which the rows see as K / 2^1022 in [1, 2), solves (exit 0)
    # without a warning
    pytest.param(["price", "--strike", "1e308", "--spots", "1e308", "--n", "128"], 0, None,
                 id="strike-1e308"),
    # A strike of 3e307, whose sqrt-t start overflowed to inf - inf at the unscaled K, solves
    pytest.param(["price", "--strike", "3e307", "--spots", "3e307", "--n", "32",
                  "--format", "json"], 0, None, id="strike-3e307"),
    # A strike of 1.7e308, whose boundary reads run on K / 2^1023, prices (exit 0)
    # without a warning
    pytest.param(["price", "--strike", "1.7e308", "--spots", "1.36e308", "--n", "128"], 0, None,
                 id="strike-1.7e308"),
    # A strike of 1e308 prints its boundary (exit 0) with no inf and no warning
    pytest.param(["boundary", "--strike", "1e308", "--dividend", "0.08", "--n", "64",
                  "--format", "csv"], 0, _no_inf, id="boundary-strike-1e308"),
    # A subnormal strike is a configuration error (exit 2)
    pytest.param(["price", "--strike", "1e-320", "--spots", "1e-320"], 2, None,
                 id="strike-subnormal"),
    # A spot 0.1% above B(T) prices at least its payoff 22.8417
    pytest.param(["price", "--strike", "114.20837921082617", "--expiry", "2",
                  "--rate", "0.06863049275243101", "--dividend", "0.0445198020560671",
                  "--vol", "0.15804837321889428", "--n", "128",
                  "--spots", "91.36670336866094", "--format", "json"], 0, _at_least_payoff,
                 id="above-boundary"),
]


@pytest.mark.filterwarnings("error")  # several steps failed on a "Warning" in their stderr
@pytest.mark.parametrize("argv,code,check", CONSOLE_PINS)
def test_console_script_pin(capsys, argv, code, check):
    clear_weight_cache()
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        got = exc.code
    captured = capsys.readouterr()
    assert got == code, captured.err
    if check is not None:
        check(captured.out + captured.err)
