"""Per-layer spans for covergame, recorded entirely from outside the program.

A ``Tracer`` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent span, op id). The
replacement happens at the module attribute, in every ``covergame``
module namespace that binds the function, so a call that one layer makes
into another (``covers`` calling ``lp.solve``, ``oracle.brute_core_check``
calling ``brute_min_cover``) is caught as well. ``restore`` puts every
original back. A function that no longer exists is skipped, and its
metrics read 0.

Spans stay in memory until ``dump`` writes them once, at the end of the
traced run. Self time is a span's duration minus the durations of its
direct children; the op root span's self time is the harness remainder,
so the self times of one op add up to its traced wall time.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYER_MODULES = ("cli", "graphs", "rationals", "lp", "covers", "game", "oracle")

# An O(1) key normaliser called from the inner loops of every layer: one
# span per call would cost more than the call and swamp the self times.
UNTRACED = {("graphs", "edge_key")}

# Span names that differ from "<module>.<function>"; several functions
# can share one span name.
SPAN_NAMES = {
    ("lp", "solve"): "lp.solve",
    ("lp", "fractional_cover_lp"): "lp.build",
    ("lp", "dual_packing_lp"): "lp.build",
    ("covers", "half_integral_cover"): "covers.half_integral",
    ("covers", "bipartite_min_edge_cover"): "covers.bipartite",
    ("covers", "canonicalize_to_odd_cycles"): "covers.canonicalize",
    ("covers", "is_feasible_cover"): "covers.feasible",
    ("covers", "min_edge_cover_exact"): "covers.exact",
    ("graphs", "coalition"): "graphs.coalition",
    ("graphs", "edges_within"): "graphs.coalition",
    ("graphs", "boundary"): "graphs.coalition",
    ("graphs", "parse_graph"): "graphs.parse",
    ("graphs", "load_graph"): "graphs.parse",
    ("graphs", "shortest_odd_cycle"): "graphs.odd_cycle",
    ("graphs", "is_bipartite"): "graphs.bipartite",
    ("graphs", "double_graph"): "graphs.double",
    ("rationals", "parse_rational"): "rationals.parse",
    ("rationals", "format_rational"): "rationals.format",
    ("game", "check_core_dual"): "game.check",
    ("game", "check_core_stars"): "game.check",
    ("game", "integrality_gap"): "game.gap",
    ("game", "verify_scaled_cover_membership"): "game.membership",
    ("oracle", "brute_fractional_optimum"): "oracle.grid",
    ("oracle", "brute_min_cover"): "oracle.min_cover",
    ("oracle", "brute_core_check"): "oracle.core_check",
    ("cli", "main"): "cli",
}

OP_SPAN = "harness.op"
STARTUP_SPAN = "cli.startup"


def _members(g, members):
    return set(range(g.vertex_count) if members is None else members)


def _exact_counts(g, members=None, *args, **kwargs):
    s = _members(g, members)
    return {"covers.exact.candidates": sum(1 for u, v in g.edges if u in s or v in s)}


def _min_cover_counts(g, members, *args, **kwargs):
    s = _members(g, members)
    k = sum(1 for u, v in g.edges if u in s or v in s)
    return {"oracle.min_cover.subsets": (1 << k) - 1}


def _parse_counts(source, *args, **kwargs):
    size = len(source) if isinstance(source, bytes) else len(source.encode("utf-8"))
    return {"graphs.parse.bytes": size}


# Work counters computed from a call's arguments, before the call runs.
COUNTERS = {
    ("lp", "solve"): lambda lp, *a, **k: {
        "lp.solve.cells": len(lp.constraints) * len(lp.objective)
    },
    ("covers", "min_edge_cover_exact"): _exact_counts,
    ("graphs", "parse_graph"): _parse_counts,
    ("oracle", "brute_fractional_optimum"): lambda g, *a, **k: {
        "oracle.grid.points": 3**g.edge_count
    },
    ("oracle", "brute_min_cover"): _min_cover_counts,
    ("oracle", "brute_core_check"): lambda g, *a, **k: {
        "oracle.core_check.coalitions": (1 << g.vertex_count) - 1
    },
    ("game", "verify_scaled_cover_membership"): lambda g, *a, **k: {
        "game.membership.odd_sets": 1 << (g.vertex_count - 1)
    },
}


class _PivotCount:
    """Stands in for ``solve``'s ``trace`` writer: counts one pivot per
    "enters" line and forwards the text to the caller's writer, if any."""

    def __init__(self, tracer: "Tracer", inner):
        self.tracer = tracer
        self.inner = inner

    def write(self, text: str) -> None:
        self.tracer.counts["lp.solve.pivots"] += text.count(" enters, ")
        if self.inner is not None:
            self.inner.write(text)


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or None, op id].
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, args=(), kwargs=None):
        spans = self.spans
        index = len(spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op_id]
        spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span; returns (result, root span index)."""
        self.op_id = op_id
        index = len(self.spans)
        try:
            return self.span(OP_SPAN, fn, args), index
        finally:
            self.op_id = None

    def merge_child(self, child: dict, parent: int) -> None:
        """Adopt the spans and counts a child process wrote (see ``dump``),
        hanging its top-level spans under ``parent``."""
        offset = len(self.spans)
        op_id = self.spans[parent][4]
        for name, start, end, p, _ in child["spans"]:
            self.spans.append([name, start, end, parent if p is None else p + offset, op_id])
        for key, value in child["counts"].items():
            self.counts[key] += value

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps({"spans": self.spans, "counts": dict(self.counts)}), encoding="utf-8"
        )

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, module: str, attr: str, fn):
        name = SPAN_NAMES.get((module, attr), f"{module}.{attr}")
        count = COUNTERS.get((module, attr))
        code = fn.__code__
        params = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
        pivots = (module, attr) == ("lp", "solve") and "trace" in params
        tracer = self

        def traced(*args, **kwargs):
            if count is not None:
                for key, value in count(*args, **kwargs).items():
                    tracer.counts[key] += value
            if pivots:
                inner = args[1] if len(args) > 1 else kwargs.get("trace")
                args = args[:1]
                kwargs = {**kwargs, "trace": _PivotCount(tracer, inner)}
            return tracer.span(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, object] = {}
        for module in LAYER_MODULES:
            try:
                mod = importlib.import_module(f"covergame.{module}")
            except ImportError:
                continue
            for attr, fn in vars(mod).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and (module, attr) not in UNTRACED
                ):
                    wrappers[id(fn)] = self._wrapper(module, attr, fn)
        for name, mod in list(sys.modules.items()):
            if name != "covergame" and not name.startswith("covergame."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


def self_times(spans) -> dict[int, float]:
    """Self time of every span, by index: duration minus direct children."""
    own = {i: s[2] - s[1] for i, s in enumerate(spans)}
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


# Per-layer metrics, all per traced op: (name, unit, kind, source).
# kind "self": summed self time of the span names; "calls": span count;
# "count": a counter; "mean": a counter divided by a span count.
PER_LAYER = (
    ("lp.solve.self_ms", "ms/op", "self", ("lp.solve",)),
    ("lp.solve.calls", "count/op", "calls", "lp.solve"),
    ("lp.solve.pivots", "count/op", "count", "lp.solve.pivots"),
    ("lp.solve.cells", "count/op", "count", "lp.solve.cells"),
    ("lp.build.self_ms", "ms/op", "self", ("lp.build",)),
    ("covers.half_integral.self_ms", "ms/op", "self", ("covers.half_integral",)),
    ("covers.bipartite.self_ms", "ms/op", "self", ("covers.bipartite",)),
    ("covers.canonicalize.self_ms", "ms/op", "self", ("covers.canonicalize",)),
    ("covers.feasible.calls", "count/op", "calls", "covers.feasible"),
    ("covers.feasible.self_ms", "ms/op", "self", ("covers.feasible",)),
    ("covers.exact.self_ms", "ms/op", "self", ("covers.exact",)),
    ("covers.exact.calls", "count/op", "calls", "covers.exact"),
    ("covers.exact.candidates", "edges", "mean", ("covers.exact.candidates", "covers.exact")),
    ("game.coalition_cost.self_ms", "ms/op", "self", ("game.coalition_cost",)),
    ("graphs.coalition.self_ms", "ms/op", "self", ("graphs.coalition",)),
    ("graphs.parse.self_ms", "ms/op", "self", ("graphs.parse",)),
    ("graphs.parse.bytes", "B/op", "count", "graphs.parse.bytes"),
    ("rationals.parse.calls", "count/op", "calls", "rationals.parse"),
    ("rationals.parse.self_ms", "ms/op", "self", ("rationals.parse",)),
    ("rationals.format.self_ms", "ms/op", "self", ("rationals.format",)),
    ("game.check.self_ms", "ms/op", "self", ("game.check",)),
    ("game.parse_allocation.self_ms", "ms/op", "self", ("game.parse_allocation",)),
    ("cli.self_ms", "ms/op", "self", ("cli",)),
    ("cli.startup_ms", "ms/op", "self", (STARTUP_SPAN,)),
    ("graphs.odd_cycle.self_ms", "ms/op", "self", ("graphs.odd_cycle",)),
    ("graphs.odd_cycle.calls", "count/op", "calls", "graphs.odd_cycle"),
    ("game.gap.self_ms", "ms/op", "self", ("game.gap",)),
    ("graphs.bipartite.self_ms", "ms/op", "self", ("graphs.bipartite",)),
    ("graphs.double.self_ms", "ms/op", "self", ("graphs.double",)),
    ("oracle.grid.self_ms", "ms/op", "self", ("oracle.grid",)),
    ("oracle.grid.points", "count/op", "count", "oracle.grid.points"),
    ("oracle.min_cover.self_ms", "ms/op", "self", ("oracle.min_cover",)),
    ("oracle.min_cover.subsets", "count/op", "count", "oracle.min_cover.subsets"),
    ("oracle.core_check.self_ms", "ms/op", "self", ("oracle.core_check",)),
    ("oracle.core_check.coalitions", "count/op", "count", "oracle.core_check.coalitions"),
    ("game.membership.self_ms", "ms/op", "self", ("game.membership",)),
    ("game.membership.odd_sets", "count/op", "count", "game.membership.odd_sets"),
)


def layer_metrics(tracer: Tracer, ops: int, scale: float = 1.0) -> dict[str, dict]:
    """Aggregate the per-layer metrics over ``ops`` traced ops; self times
    are multiplied by ``scale``."""
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, own in self_times(tracer.spans).items():
        name = tracer.spans[i][0]
        self_ms[name] += own * 1000.0 * scale
        calls[name] += 1
    out = {}
    for metric, unit, kind, source in PER_LAYER:
        if kind == "self":
            total = sum(self_ms[name] for name in source)
        elif kind == "calls":
            total = calls[source]
        elif kind == "count":
            total = tracer.counts.get(source, 0)
        else:
            counter, span = source
            total = tracer.counts.get(counter, 0) / calls[span] * ops if calls[span] else 0
        out[metric] = {"value": total / ops if ops else 0.0, "unit": unit}
    return out
