"""Outside-in span tracer for the kimvolterra benchmark.

The library's modules import each other's functions by name
(``from .quadrature import brq_weights``), so a function is wrapped in the
namespace of the module that *calls* it, not where it is defined.  Spans
are kept in memory and written out once, when the run ends.  Nothing in
``src/`` is modified; :meth:`Tracer.uninstall` restores every wrapped name.
"""

from __future__ import annotations

import functools
from time import perf_counter

# (module, attribute, span name): the library calls that are traced.
LIBRARY_CALLS = (
    ("boundary", "product_weights", "quadrature.product_weights"),
    ("boundary", "brq_weights", "quadrature.brq_weights.solve"),
    ("pricing", "brq_weights", "quadrature.brq_weights.price"),
    ("pricing", "eval_boundary", "boundary.eval_boundary"),
    ("pricing", "european_put", "market.european_put"),
    ("quadrature", "basis_matrix", "barycentric.basis_matrix"),
    ("barycentric", "basis_matrix", "barycentric.basis_matrix"),
    ("cli", "binomial_american_put", "market.binomial"),
    ("cli", "solve_boundary", "boundary.solve"),
    ("cli", "american_put_price", "pricing.put"),
)

NAME, START, END, PARENT, OP, EXTRA = range(6)
TABLE_BUILDERS = ("quadrature.product_weights", "quadrature.brq_weights.solve")


def _solve_iters_per_row(curve) -> float:
    return float(curve.diagnostics.iterations[1:].mean())


def _binomial_nodes(steps, *args, **kwargs) -> int:
    return steps * (steps + 1) // 2


def _basis_cells(basis, ts, *args, **kwargs) -> int:
    points = getattr(ts, "size", None)
    if points is None:
        points = len(ts) if hasattr(ts, "__len__") else 1
    return len(basis.nodes) * points


# Extra value recorded with a span: a count computed from the arguments,
# or a value read from the result.
ARG_COUNTS = {"market.binomial": _binomial_nodes,
              "barycentric.basis_matrix": _basis_cells}
RESULT_VALUES = {"boundary.solve": _solve_iters_per_row,
                 "boundary.certificate": float}


class Tracer:
    """Records spans (name, start, end, parent, op id, extra) in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, extra: float = 0.0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, extra])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that every call records a span."""
        count = ARG_COUNTS.get(name)
        on_result = RESULT_VALUES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, count(*args, **kwargs) if count else 0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                self.spans[idx][EXTRA] = on_result(result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every name of :data:`LIBRARY_CALLS` in its calling module."""
        for mod_name, attr, span_name in LIBRARY_CALLS:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, one span per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart\tend\tparent\top\textra\n")
            for idx, s in enumerate(self.spans):
                handle.write(f"{idx}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}"
                             f"\t{s[PARENT]}\t{s[OP]}\t{s[EXTRA]}\n")


class Analysis:
    """Durations, self times and op membership of a list of spans.

    Each duration is multiplied by the speed scale of the op the span
    belongs to (see ``run.py``), so traced times are on the same footing
    as the end-to-end metrics.  The self time of a span is its duration
    minus the durations of its direct children, which run one after
    another on this one thread.
    """

    def __init__(self, spans: list[list], scales: list[float]) -> None:
        self.spans = spans
        self.dur = [(s[END] - s[START]) * (scales[s[OP]] if 0 <= s[OP] < len(scales) else 1.0)
                    for s in spans]
        self.self = list(self.dur)
        self.in_op = [False] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self.self[s[PARENT]] -= self.dur[i]
            self.in_op[i] = s[NAME] == "op" or (s[PARENT] >= 0 and self.in_op[s[PARENT]])

    def table_builds(self) -> list[int]:
        """Weight-table builds made by a solve inside an op.

        The lru-cached table function between the solve and the builders
        is not traced, so a build's parent is the solve span itself.
        """
        spans = self.spans
        return [i for i, s in enumerate(spans)
                if self.in_op[i] and s[NAME] in TABLE_BUILDERS
                and spans[s[PARENT]][NAME] == "boundary.solve"]

    def self_by_span(self) -> dict[str, float]:
        """Total self time per span name, over the spans inside ops."""
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if self.in_op[i]:
                out[s[NAME]] = out.get(s[NAME], 0.0) + self.self[i]
        return out

    def stages(self) -> dict[str, float]:
        """Op time split into the stages a change targets.

        ``boundary.tables`` is weight-table building under a solve and
        ``boundary.newton`` the rest of the solve; ``pricing`` and
        ``market.binomial`` include everything they call; ``cli.main`` and
        ``op`` are their own self time.
        """
        out = dict.fromkeys(("boundary.tables", "boundary.newton", "pricing",
                             "market.binomial", "cli.main", "op"), 0.0)
        inclusive = {"boundary.solve": "boundary.newton", "pricing.put": "pricing",
                     "market.binomial": "market.binomial"}
        for i, s in enumerate(self.spans):
            if not self.in_op[i]:
                continue
            if s[NAME] in inclusive:
                out[inclusive[s[NAME]]] += self.dur[i]
            elif s[NAME] in ("cli.main", "op"):
                out[s[NAME]] += self.self[i]
        for i in self.table_builds():
            out["boundary.tables"] += self.dur[i]
            out["boundary.newton"] -= self.dur[i]
        return out

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, as per-op averages over the spans inside ops.

        The residual certificate runs outside the timed op; its time is
        per certificate and its residual the largest seen.
        """
        spans = self.spans
        calls: dict[str, int] = {}
        secs: dict[str, float] = {}
        self_s: dict[str, float] = {}
        extra: dict[str, float] = {}
        for i, s in enumerate(spans):
            if not self.in_op[i]:
                continue
            name = s[NAME]
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + self.dur[i]
            self_s[name] = self_s.get(name, 0.0) + self.self[i]
            extra[name] = extra.get(name, 0.0) + s[EXTRA]

        solves = calls.get("boundary.solve", 0)
        builds = self.table_builds()
        tables_s = sum(self.dur[i] for i in builds)
        built = len({spans[i][PARENT] for i in builds})
        puts = calls.get("pricing.put", 0)
        priced = len({s[PARENT] for s in spans if s[NAME] == "quadrature.brq_weights.price"})
        certs = [i for i, s in enumerate(spans) if s[NAME] == "boundary.certificate"]
        n = max(ops, 1)

        def per_op(table: dict, name: str) -> float:
            return table.get(name, 0) / n

        return {
            "market.binomial.calls": per_op(calls, "market.binomial"),
            "market.binomial.s": per_op(secs, "market.binomial"),
            "market.binomial.nodes": per_op(extra, "market.binomial"),
            "barycentric.basis_matrix.calls": per_op(calls, "barycentric.basis_matrix"),
            "barycentric.basis_matrix.s": per_op(secs, "barycentric.basis_matrix"),
            "barycentric.basis_matrix.cells": per_op(extra, "barycentric.basis_matrix"),
            "quadrature.product_weights.calls": per_op(calls, "quadrature.product_weights"),
            "quadrature.product_weights.s": per_op(secs, "quadrature.product_weights"),
            "quadrature.brq_weights.solve.calls": per_op(calls, "quadrature.brq_weights.solve"),
            "quadrature.brq_weights.solve.s": per_op(secs, "quadrature.brq_weights.solve"),
            "quadrature.brq_weights.price.calls": per_op(calls, "quadrature.brq_weights.price"),
            "quadrature.brq_weights.price.s": per_op(secs, "quadrature.brq_weights.price"),
            "boundary.solve.calls": per_op(calls, "boundary.solve"),
            "boundary.solve.s": per_op(secs, "boundary.solve"),
            "boundary.tables.s": tables_s / n,
            "boundary.newton.s": (secs.get("boundary.solve", 0.0) - tables_s) / n,
            "boundary.newton.iters_per_row": extra.get("boundary.solve", 0.0) / max(solves, 1),
            "boundary.table_hit_ratio": (solves - built) / solves if solves else 0.0,
            "boundary.certificate.s": sum(self.dur[i] for i in certs) / max(len(certs), 1),
            "boundary.certificate.max_rel": max((spans[i][EXTRA] for i in certs), default=0.0),
            "boundary.eval_boundary.s": per_op(secs, "boundary.eval_boundary"),
            "pricing.put.calls": per_op(calls, "pricing.put"),
            "pricing.put.s": per_op(secs, "pricing.put"),
            "pricing.put.self_s": per_op(self_s, "pricing.put"),
            "pricing.exercise_share": (puts - priced) / puts if puts else 0.0,
            "cli.main.self_s": per_op(self_s, "cli.main"),
        }
