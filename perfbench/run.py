"""Benchmark of kimvolterra: one workload per run, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload book --seed 1 --seconds 20 --trace 0

Each op runs to completion before the next starts, in this one process on
one thread.  A run makes a fixed number of ops, ``--seconds`` times the
workload's op rate at the reference speed, so the same seed always checks
the same inputs and counts the same failures.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the same ops
untraced and then traced, each for half of ``--seconds``, and reports the
per-layer metrics from the traced half.  The last line of standard output is one JSON
object; details (environment, raw timings, failing cases, spans) go to
``perfbench/out/``.  The library is imported from ``src/`` of the checkout
and nowhere else.

Times are reported at a reference machine speed.  On a shared virtual
machine the speed of identical work drifts by up to 1.8x over tens of
seconds, and a fixed numpy kernel slows in step with the library.  So a
short speed kernel of the workload's kind runs after every op, outside the
timed span.  Each op's time is multiplied by the kernel's time at the
reference speed over its measured time, the mean of the kernel runs before
and after the op, raised to the kernel's elasticity.  Set-up times are scaled the same way, by a kernel run
right after the set-up.  The raw seconds are kept in the details file.
"""

import os

# Single-threaded BLAS: must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Each gated metric's unit, as BENCHMARK.json names it.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Set-up is timed this many times per run: once in this process and the
# rest in fresh interpreters; setup_s is the median.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120


def small_kernel_seconds() -> float:
    """Time of a fixed run of small-array numpy operations, like the solver's.

    One timing of the whole kernel, not the best of several: an op's time
    includes whatever share of the machine it lost to other tenants, and
    only an average over a similar span tracks that.
    """
    import numpy as np

    x = np.linspace(0.1, 1.0, 64)
    y = x[::2] + 1.5
    acc = 0.0
    t0 = perf_counter()
    for _ in range(300):
        acc += float((1.0 / (x[:, None] - y[None, :])).sum(axis=1)[3])
        acc += float(np.exp(-0.5 * x).sum())
    return perf_counter() - t0


def stream_kernel_seconds() -> float:
    """Time of 600 backward-induction steps on about 10,000-element arrays.

    The binomial tree streams long arrays and slows less than small-array
    code when the machine is busy, so it gets a kernel of its own kind.
    Its ops take over a second, so this kernel is longer too.
    """
    import numpy as np

    ladder = np.exp(0.001 * np.arange(-10000, 10001))
    t0 = perf_counter()
    values = np.maximum(1.0 - ladder[0::2], 0.0)
    for i in range(600):
        values = 0.5 * values[1:] + 0.49 * values[:-1]
        np.maximum(values, 1.0 - ladder[i + 1: i + 1 + 2 * values.size: 2], out=values)
    return perf_counter() - t0


# Each kernel with its time at the reference speed (about its time on an
# idle 2-vCPU Intel Xeon guest at 2.0 GHz) and its elasticity: the slope of
# log op time on log kernel time as the machine's speed drifts.  The
# binomial tree's time moves by about 0.7 of the stream kernel's (fit over
# 333 tree/kernel pairs), so the full ratio over-corrects table3.
SPEED_KERNELS = {"small": (small_kernel_seconds, 0.005, 1.0),
                 "stream": (stream_kernel_seconds, 0.018, 0.7)}


@dataclass
class Phase:
    """Raw latencies, speed scales and failures of the ops of one phase."""

    latencies: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    errors: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len({f["op"] for f in self.failures})

    @property
    def scaled(self) -> list:
        return [lat * s for lat, s in zip(self.latencies, self.scales)]

    @property
    def quotes_per_s(self) -> float:
        return self.attempted / sum(self.scaled)


def op_count(wl, seconds: float) -> int:
    """Ops in a phase of ``seconds``: at least one, and fixed by ``seconds``
    alone, so the failures of a seed do not depend on the machine's speed."""
    return max(1, round(seconds * wl.ops_per_s))


def measure(wl, calls, ops: int, solver_error, tracer=None) -> Phase:
    """Run ops 0 to ``ops`` - 1 back to back.

    Only the op itself is timed; the speed kernel and the checks run
    after it, outside the span.
    """
    phase = Phase()
    kernel, ref_seconds, elasticity = SPEED_KERNELS[wl.speed_kernel]
    ref_before = kernel()
    for op in range(ops):
        inputs = wl.inputs(op)
        if tracer is not None:
            tracer.op = op
            span = tracer.open("op")
        kinds = []
        t0 = perf_counter()
        try:
            output = wl.op(inputs, calls)
        except solver_error as exc:
            output, kinds = None, [f"solver_error({exc})"]
        except Exception as exc:  # an unexpected error is a failed op, and marks the run
            output, kinds = None, [f"error({type(exc).__name__}: {exc})"]
            phase.errors += 1
        finally:
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
        ref_after = kernel()
        phase.latencies.append(elapsed)
        phase.scales.append((2.0 * ref_seconds / (ref_before + ref_after)) ** elasticity)
        ref_before = ref_after
        if output is not None:
            kinds = wl.check(inputs, output, calls)
        phase.failures += [{"op": op, "kind": kind} for kind in kinds]
    return phase


def tail_latency(latencies: list) -> dict | None:
    """Latency at the highest percentile that leaves at least 10 samples above it.

    None when that percentile is below the 90th: the run is too short.
    """
    n = len(latencies)
    rank = n - 11  # 0-based index with 10 samples beyond it
    percentile = 100.0 * (rank + 1) / n
    if percentile < 90.0:
        return None
    return {"value": sorted(latencies)[rank], "percentile": percentile,
            "samples": n, "beyond": n - rank - 1}


def setup_samples(name: str, first: float) -> list:
    """``first`` plus set-up times measured in fresh interpreters, all scaled."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--setup-only",
                               "--workload", name], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def git_commit() -> str:
    """HEAD's commit, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "commit": git_commit(),
            "threads": ",".join(f"{v}={os.environ[v]}" for v in ("OPENBLAS_NUM_THREADS",
                                                                 "OMP_NUM_THREADS"))}


def with_units(values: dict) -> dict:
    """Each metric's value with its unit from BENCHMARK.json."""
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}


def end_to_end(phase: Phase, setup: list) -> dict:
    return with_units({
        "quotes_per_s": phase.quotes_per_s,
        "quote_s_p50": statistics.median(phase.scaled),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })


def report_only(phase: Phase, wl) -> dict:
    """Metrics printed and kept in the details file but not in BENCHMARK.json:
    the tail needs 10 samples beyond it, fail_share is 0 on a clean run,
    price_err_max exists only for table3, and raw times drift with the
    machine."""
    extra = {"fail_share": {"value": phase.failed / phase.attempted, "unit": "ratio"}}
    tail = tail_latency(phase.scaled)
    if tail is not None:
        extra["quote_s_p90"] = {"unit": "s", **tail}
    if hasattr(wl, "price_err_max"):
        extra["price_err_max"] = {"value": wl.price_err_max, "unit": "price"}
    extra["raw.quotes_per_s"] = {"value": phase.attempted / sum(phase.latencies),
                                 "unit": "1/s"}
    extra["raw.quote_s_p50"] = {"value": statistics.median(phase.latencies), "unit": "s"}
    extra["speed_scale_p50"] = {"value": statistics.median(phase.scales), "unit": "ratio"}
    return extra


def layers(analysis, traced: Phase, untraced: Phase) -> dict:
    values = analysis.layer_metrics(traced.attempted)
    values["trace.overhead"] = untraced.quotes_per_s / traced.quotes_per_s
    return with_units(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print one scaled set-up time and exit")
    args = parser.parse_args(argv)

    if not (SRC / "kimvolterra" / "__init__.py").is_file():
        print(f"error: no kimvolterra sources under {SRC}", file=sys.stderr)
        return 2
    lib, setup_raw = workloads.setup(args.workload)
    if Path(lib["cli"].__file__).resolve().parent != SRC / "kimvolterra":
        print(f"error: kimvolterra was imported from {lib['cli'].__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    kernel, ref_seconds, _ = SPEED_KERNELS["small"]
    first_setup = setup_raw * ref_seconds / kernel()
    if args.setup_only:
        print(f"{first_setup!r}")
        return 0

    solver_error = lib["boundary"].SolverError
    wl = workloads.WORKLOADS[args.workload](args.seed, lib)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = op_count(wl, args.seconds / 2 if args.trace else args.seconds)

    plain = measure(wl, workloads.make_calls(lib), ops, solver_error)
    phases = {"untraced": plain}
    if args.trace:
        wl.reset()
        tracer = tracing.Tracer()
        tracer.install(lib)
        try:
            traced = measure(wl, workloads.make_calls(lib, tracer.wrap), ops,
                             solver_error, tracer)
        finally:
            tracer.uninstall()
        phases["traced"] = traced
        analysis = tracing.Analysis(tracer.spans, traced.scales)
        metrics = layers(analysis, traced, plain)
        extra = {"self_s_by_span": analysis.self_by_span(), "stage_s": analysis.stages(),
                 "spans": len(tracer.spans)}
        tracer.write(OUT / f"{stem}-spans.tsv")
    else:
        metrics = end_to_end(plain, setup_samples(args.workload, first_setup))
        extra = report_only(plain, wl)

    attempted = sum(p.attempted for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    correct = all(p.errors == 0 for p in phases.values())
    env = environment()
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": env, "metrics": metrics, "extra": extra,

               "ops": {k: p.attempted for k, p in phases.items()},
               "failed": {k: p.failed for k, p in phases.items()},
               "failures": {k: p.failures for k, p in phases.items()},
               "latencies_raw": {k: p.latencies for k, p in phases.items()},
               "speed_scales": {k: p.scales for k, p in phases.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {details['ops']}  failed {details['failed']}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in {**metrics, **extra}.items():
        if isinstance(m, dict) and "unit" in m:
            note = (f"  (p{m['percentile']:.1f} of {m['samples']}, {m['beyond']} beyond)"
                    if "percentile" in m else "")
            print(f"{name:36s} {m['value']:.6g} {m['unit']}{note}")
    if args.trace:
        for title, key in (("self time by span", "self_s_by_span"),
                           ("time by stage", "stage_s")):
            total = sum(extra[key].values())
            print(f"{title}, share of op time:")
            for name, s in sorted(extra[key].items(), key=lambda kv: -kv[1]):
                print(f"  {name:34s} {s / total:6.1%}")
    for kind, phase in phases.items():
        for f in phase.failures:
            print(f"FAILED {kind} seed {args.seed} op {f['op']}: {f['kind']}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
