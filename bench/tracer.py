"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of the fuzzcyl layers from outside the
package: each entry is rebound, under the same name, in every fuzzcyl module
that holds it, and methods are rebound on their class. Internal calls between
layers therefore go through the wrappers too.

Each wrapped call records one span (name, parent span, start, end) in flat
arrays while recording is on. Self time of a span is its duration minus the
durations of its direct children; with one thread, calls nest strictly, so
the children never overlap and never leave their parent's interval.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array

import numpy as np


class Tracer:
    """In-memory span recorder with per-entry counters."""

    def __init__(self) -> None:
        self.recording = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` (used for the benchmark's own op spans)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn, on_return=None, transform=None):
        """Wrap fn so that each call while recording becomes a span.

        on_return(args, kwargs, result) updates counters after the span ends;
        transform(result) replaces the returned value (traced or not), which
        lets a factory hand out wrapped callables.
        """
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.recording:
                result = fn(*args, **kwargs)
                return transform(result) if transform else result
            stack = tracer._stack
            sid = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_start.append(clock())
            tracer.span_end.append(0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer.span_end[sid] = clock()
            if on_return is not None:
                on_return(args, kwargs, result)
            return transform(result) if transform else result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- aggregation ---------------------------------------------------

    def summary(self) -> dict:
        """calls, self_ms and nested calls (parent has the same name), by name."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = (np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(self.span_start, dtype=np.int64)).astype(float)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_ms = np.bincount(name, weights=dur - covered, minlength=n) / 1e6
        same = np.zeros(len(name), dtype=bool)
        same[has_parent] = name[parent[has_parent]] == name[has_parent]
        nested = np.bincount(name[same], minlength=n)
        return {
            nm: {"calls": int(calls[i]), "self_ms": float(self_ms[i]), "nested": int(nested[i])}
            for i, nm in enumerate(self.names)
        }


def _fuzzcyl_modules():
    return [m for k, m in sys.modules.items() if (k == "fuzzcyl" or k.startswith("fuzzcyl.")) and m is not None]


def _rebind_function(tracer: Tracer, name: str, module, attr: str, saved: list, **hooks) -> None:
    """Replace module.attr, and every fuzzcyl module's alias of it, by one wrapper."""
    orig = getattr(module, attr)
    wrapped = tracer.wrap(name, orig, **hooks)
    for mod in _fuzzcyl_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                saved.append((mod, key, orig))
                setattr(mod, key, wrapped)


def _rebind_method(tracer: Tracer, name: str, cls, attr: str, saved: list, **hooks) -> None:
    orig = getattr(cls, attr)
    saved.append((cls, attr, orig))
    setattr(cls, attr, tracer.wrap(name, orig, **hooks))


def install(tracer: Tracer):
    """Wrap the layer entry points named by the per-layer metrics.

    Returns a function that puts the original entry points back.
    """
    # the package namespace rebinds `represent` and `star` to functions of the
    # same name, so the modules are looked up by their full names
    (bijection, cli, crossed, exprgrammar, functions, interval, oracle, represent, star, twogen) = (
        importlib.import_module(f"fuzzcyl.{m}")
        for m in ("bijection", "cli", "crossed", "exprgrammar", "functions", "interval",
                  "oracle", "represent", "star", "twogen")
    )
    saved: list = []

    def fn(name: str, module, **hooks) -> None:  # "layer.entry" names module.entry
        _rebind_function(tracer, name, module, name.split(".")[1], saved, **hooks)

    def meth(name: str, cls, attr: str, **hooks) -> None:
        _rebind_method(tracer, name, cls, attr, saved, **hooks)

    def eval_points(args, kwargs, result):
        tracer.add("functions.eval.points", int(np.size(args[1])))

    def multiply_pairs(args, kwargs, result):
        tracer.add("crossed.multiply.term_pairs", len(args[1].terms) * len(args[2].terms))

    def power_n(args, kwargs, result):
        tracer.maximum("bijection.power.max_n", abs(int(args[1])))

    def orbit_shape(args, kwargs, result):
        tracer.maximum("represent.orbit.dim_max", result.dim)
        tracer.add("represent.orbit.base_points", len(result.base_points))
        tracer.add("represent.orbit.chains", len(result.chains))

    def oracle_size(args, kwargs, result):
        tracer.maximum("oracle.M_max", int(result[2]["M"]))

    def report_size(args, kwargs, result):
        argv = list(args[0]) if args else list(kwargs.get("argv") or [])
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                tracer.add("cli.report_bytes", os.path.getsize(path))

    fn("interval.image_monotone", interval)
    fn("bijection.power", bijection, on_return=power_n)
    fn("bijection.compose", bijection)
    fn("bijection.make_family", bijection)
    meth("functions.eval", functions.SupportedFunction, "__call__", on_return=eval_points)
    fn("functions.pullback", functions)
    meth("crossed.multiply", crossed.CrossedProductAlgebra, "multiply", on_return=multiply_pairs)
    meth("crossed.involution", crossed.CrossedProductAlgebra, "involution")
    meth("crossed.distance", crossed.CrossedProductAlgebra, "distance")
    meth("crossed.power", crossed.CrossedProductAlgebra, "power")
    fn("represent.build_orbit", represent, on_return=orbit_shape)
    fn("represent.matrix_rep", represent)
    fn("represent.represent", represent)
    meth("represent.step_power", represent.MatrixRep, "step_power")
    fn("represent.covariance_check", represent)
    fn("star.psi_inv", star)
    meth("star.cylinder_eval", star.CylinderFunction, "eval")
    fn("star.star", star)
    fn("star.classical_limit_check", star)
    fn("oracle.sample_interval_to_finite", oracle, on_return=oracle_size)
    meth("oracle.finite_power", oracle.FinitePartialBijection, "power")
    meth("oracle.finite_compose", oracle.FinitePartialBijection, "compose")
    fn("twogen.standard_setup", twogen)
    fn("twogen.two_gen_relations", twogen)
    fn("twogen.boundary_continuity_check", twogen)
    eval_wrap = lambda compiled: tracer.wrap("exprgrammar.eval", compiled)
    fn("exprgrammar.compile_expression", exprgrammar, transform=eval_wrap)
    fn("cli.main", cli, on_return=report_size)

    def uninstall() -> None:
        for target, key, orig in reversed(saved):
            setattr(target, key, orig)

    return uninstall


# Per-layer metrics of the traced run: name -> unit. The list and its units
# match the per_layer block of BENCHMARK.json (the smoke test checks this).
PER_LAYER_UNITS = {
    "interval.image_monotone.calls": "count",
    "interval.image_monotone.self_ms": "ms",
    "bijection.power.calls": "count",
    "bijection.power.self_ms": "ms",
    "bijection.power.max_n": "steps",
    "bijection.compose.calls": "count",
    "bijection.make_family.calls": "count",
    "bijection.make_family.self_ms": "ms",
    "functions.eval.calls": "count",
    "functions.eval.self_ms": "ms",
    "functions.eval.points": "count",
    "functions.eval.nested_ratio": "ratio",
    "functions.pullback.calls": "count",
    "functions.pullback.self_ms": "ms",
    "crossed.multiply.calls": "count",
    "crossed.multiply.self_ms": "ms",
    "crossed.multiply.term_pairs": "count",
    "crossed.involution.calls": "count",
    "crossed.involution.self_ms": "ms",
    "crossed.distance.calls": "count",
    "crossed.distance.self_ms": "ms",
    "crossed.power.calls": "count",
    "crossed.power.hit_ratio": "ratio",
    "represent.build_orbit.calls": "count",
    "represent.build_orbit.self_ms": "ms",
    "represent.orbit.dim_max": "count",
    "represent.orbit.chain_ratio": "ratio",
    "represent.matrix_rep.self_ms": "ms",
    "represent.represent.calls": "count",
    "represent.represent.self_ms": "ms",
    "represent.step_power.calls": "count",
    "represent.step_power.self_ms": "ms",
    "represent.covariance_check.calls": "count",
    "represent.covariance_check.self_ms": "ms",
    "star.psi_inv.calls": "count",
    "star.psi_inv.self_ms": "ms",
    "star.cylinder_eval.calls": "count",
    "star.star.calls": "count",
    "star.classical_limit_check.calls": "count",
    "star.classical_limit_check.self_ms": "ms",
    "oracle.sample_interval_to_finite.calls": "count",
    "oracle.sample_interval_to_finite.self_ms": "ms",
    "oracle.finite_power.calls": "count",
    "oracle.finite_compose.calls": "count",
    "oracle.M_max": "count",
    "twogen.standard_setup.self_ms": "ms",
    "twogen.two_gen_relations.calls": "count",
    "twogen.two_gen_relations.self_ms": "ms",
    "twogen.boundary_continuity_check.calls": "count",
    "twogen.boundary_continuity_check.self_ms": "ms",
    "exprgrammar.compile_expression.calls": "count",
    "exprgrammar.eval.calls": "count",
    "exprgrammar.eval.self_ms": "ms",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def per_layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """Every per-layer metric by name with its unit; idle layers read 0."""
    spans = tracer.summary()
    values: dict[str, float] = {}
    for entry, row in spans.items():
        values[f"{entry}.calls"] = row["calls"]
        values[f"{entry}.self_ms"] = row["self_ms"]
    values.update(tracer.counts)
    values.update(tracer.maxima)

    def calls(entry: str) -> int:
        return spans.get(entry, {}).get("calls", 0)

    ev = spans.get("functions.eval", {"calls": 0, "nested": 0})
    top_level = ev["calls"] - ev["nested"]
    values["functions.eval.nested_ratio"] = ev["nested"] / top_level if top_level else 0.0
    cp = calls("crossed.power")
    values["crossed.power.hit_ratio"] = 1.0 - calls("bijection.power") / cp if cp else 0.0
    chains = tracer.counts.get("represent.orbit.chains", 0)
    values["represent.orbit.chain_ratio"] = (
        tracer.counts.get("represent.orbit.base_points", 0) / chains if chains else 0.0
    )
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
