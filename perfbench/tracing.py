"""Traced mode: spans around the public functions behind each layer.

The benchmark does not change the program.  It wraps, from outside, the
functions each layer exposes (``build_system``, ``analyze_system``,
``run_once``, ``Simulator.run`` ...) and records one span per call:
``(id, parent, name, start, end, value)``.  Spans stay in memory and are
written out as JSON lines when the run ends.  Nested calls into the same
layer are not recorded twice, so a layer's total is its outermost time.

Time inside the RTOS, MCSE and SMP code all runs within
``Simulator.run``; from outside it can only be seen as ``kernel.run``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Span names per layer metric.  Functions are patched in the module that
#: defines them and in every loaded ``repro`` module that imported them.
FUNCTION_SPANS = (
    ("repro.mcse.builder", "build_system", "mcse.build"),
    ("repro.personality", "lower_spec", "personality.lower"),
    ("repro.analyze.model", "analyze_system", "analyze.lint"),
    ("repro.corpus.pipeline", "lint_stage", "corpus.lint"),
    ("repro.corpus.pipeline", "simulate_stage", "corpus.simulate"),
    ("repro.corpus.pipeline", "verify_stage", "corpus.verify"),
    ("repro.verify.harness", "run_once", "verify.run"),
    ("repro.verify.state", "canonical_state", "verify.fingerprint"),
    ("repro.trace.statistics", "task_stats_from_functions", "trace.stats"),
    ("repro.trace.statistics", "task_stats_from_records", "trace.stats"),
    ("repro.trace.statistics", "relation_stats", "trace.stats"),
    ("repro.trace.html", "render_report", "trace.export"),
    ("repro.trace.vcd", "write_vcd", "trace.export"),
    ("repro.trace.svg", "render_svg", "trace.export"),
    ("repro.serve.workers", "validate_spec", "serve.gate"),
)

#: Every per-layer metric, in BENCHMARK.json order (name, unit).
LAYER_METRICS = (
    ("corpus.lint_ms", "ms"), ("corpus.simulate_ms", "ms"),
    ("corpus.verify_ms", "ms"),
    ("mcse.builds", "count"), ("mcse.build_ms", "ms"),
    ("personality.lower_ms", "ms"), ("analyze.lint_ms", "ms"),
    ("kernel.run_ms", "ms"), ("kernel.switches", "count"),
    ("kernel.switches_per_s", "1/s"),
    ("trace.records", "count"), ("trace.stats_ms", "ms"),
    ("trace.export_ms", "ms"),
    ("verify.runs", "count"), ("verify.states", "count"),
    ("verify.dedup_hit_rate", "ratio"), ("verify.states_per_s", "1/s"),
    ("verify.fingerprint_ms", "ms"), ("verify.build_ms", "ms"),
    ("campaign.cache_hits", "count"), ("campaign.cache_misses", "count"),
    ("serve.gate_ms", "ms"), ("serve.job_ms", "ms"),
    ("serve.request_ms", "ms"), ("serve.lateness_ms", "ms"),
    ("traced.ops_per_s", "1/s"),
)

Span = Tuple[int, int, str, float, float, object]


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module_name: str, attr: str,
                 make_wrapper: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    loaded is not None and \
                    loaded.__dict__.get(attr) is original:
                self._set(loaded, attr, wrapper)

    def method(self, cls, attr: str,
               make_wrapper: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        self._set(cls, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder, thread-aware (the server has many)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = Patches()

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             measure: Optional[Callable] = None):
        """Run ``fn`` inside a span; ``measure(before, result)`` -> value."""
        stack = self._stack()
        if any(entry[1] == name for entry in stack):
            return fn(*args, **kwargs)
        sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        before = measure(args, None) if measure else None
        stack.append((sid, name))
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            value = measure(args, (before, result)) if measure else None
            with self._lock:
                self.spans.append((sid, parent, name, start, end, value))

    def event(self, name: str) -> None:
        """A zero-length span: a counter increment at a point in time."""
        stack = self._stack()
        now = time.perf_counter()
        with self._lock:
            self.spans.append((next(self._ids), stack[-1][0] if stack else 0,
                               name, now, now, 1))

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary.  Imports the modules it patches."""
        tracer = self
        for module_name, attr, name in FUNCTION_SPANS:
            def make(original, name=name):
                def wrapper(*args, **kwargs):
                    return tracer.call(name, original, args, kwargs)
                return wrapper
            self._patches.function(module_name, attr, make)

        def verify_stats(args, done):
            if done is None or done[1] is None:
                return None if done is None else (0, 0, 0)
            stats = done[1].stats
            return (stats.runs, stats.states, stats.dedup_hits)

        self._patches.function(
            "repro.verify", "verify_model",
            lambda original: lambda *a, **k: tracer.call(
                "verify.check", original, a, k, verify_stats))

        from repro.campaign.cache import ResultCache
        from repro.kernel.scheduler import KernelCore
        from repro.serve.app import Gateway
        from repro.serve.jobs import JobStore

        def kernel_counts(args, done):
            sim = args[0]
            recorder = sim.recorder
            now = (sim.process_switch_count,
                   len(recorder) if recorder is not None else 0)
            if done is None:
                return now
            before = done[0]
            return (now[0] - before[0], now[1] - before[1])

        self._patches.method(
            KernelCore, "run",
            lambda original: lambda *a, **k: tracer.call(
                "kernel.run", original, a, k, kernel_counts))
        self._patches.method(
            JobStore, "execute",
            lambda original: lambda *a, **k: tracer.call(
                "serve.job", original, a, k))
        self._patches.method(
            Gateway, "handle_request",
            lambda original: lambda *a, **k: tracer.call(
                "serve.request", original, a, k))

        def lookup(original):
            def wrapper(*args, **kwargs):
                record = original(*args, **kwargs)
                tracer.event("campaign.cache_hit" if record is not None
                             else "campaign.cache_miss")
                return record
            return wrapper

        self._patches.method(ResultCache, "lookup", lookup)

    def uninstall(self) -> None:
        self._patches.restore()

    # -- output ------------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for sid, parent, name, start, end, value in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "value": value,
                }) + "\n")


def load_spans(path: str) -> List[Span]:
    spans = []
    with open(path) as handle:
        for line in handle:
            row = json.loads(line)
            value = row["value"]
            spans.append((row["id"], row["parent"], row["name"], row["start"],
                          row["end"], tuple(value) if isinstance(value, list)
                          else value))
    return spans


def layer_metrics(spans: List[Span], ops: int, window: Tuple[float, float],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer figures per timed operation, from spans inside ``window``.

    ``*_ms`` are host milliseconds spent in the layer per operation,
    counts are per operation, rates are over the layer's own time.
    """
    low, high = window
    inside = [s for s in spans if s[3] >= low and s[4] <= high]
    names = {s[0]: (s[1], s[2]) for s in spans}

    def total_s(name: str) -> float:
        return sum(s[4] - s[3] for s in inside if s[2] == name)

    def count(name: str) -> int:
        return sum(1 for s in inside if s[2] == name)

    def under(sid: int, ancestor: str) -> bool:
        parent = names.get(sid, (0, ""))[0]
        while parent:
            parent, name = names.get(parent, (0, ""))
            if name == ancestor:
                return True
        return False

    kernel = [s for s in inside if s[2] == "kernel.run"]
    switches = sum(s[5][0] for s in kernel)
    records = sum(s[5][1] for s in kernel)
    kernel_s = sum(s[4] - s[3] for s in kernel)
    checks = [s for s in inside if s[2] == "verify.check"]
    runs = sum(s[5][0] for s in checks)
    states = sum(s[5][1] for s in checks)
    hits = sum(s[5][2] for s in checks)
    check_s = sum(s[4] - s[3] for s in checks)
    verify_build_s = sum(s[4] - s[3] for s in inside
                         if s[2] == "mcse.build" and under(s[0], "verify.check"))

    def per_op_ms(seconds: float) -> float:
        return 1000.0 * seconds / ops

    metrics = {
        "corpus.lint_ms": per_op_ms(total_s("corpus.lint")),
        "corpus.simulate_ms": per_op_ms(total_s("corpus.simulate")),
        "corpus.verify_ms": per_op_ms(total_s("corpus.verify")),
        "mcse.builds": count("mcse.build") / ops,
        "mcse.build_ms": per_op_ms(total_s("mcse.build")),
        "personality.lower_ms": per_op_ms(total_s("personality.lower")),
        "analyze.lint_ms": per_op_ms(total_s("analyze.lint")),
        "kernel.run_ms": per_op_ms(kernel_s),
        "kernel.switches": switches / ops,
        "kernel.switches_per_s": switches / kernel_s if kernel_s else 0.0,
        "trace.records": records / ops,
        "trace.stats_ms": per_op_ms(total_s("trace.stats")),
        "trace.export_ms": per_op_ms(total_s("trace.export")),
        "verify.runs": runs / ops,
        "verify.states": states / ops,
        "verify.dedup_hit_rate": hits / (states + hits) if states + hits
        else 0.0,
        "verify.states_per_s": states / check_s if check_s else 0.0,
        "verify.fingerprint_ms": per_op_ms(total_s("verify.fingerprint")),
        "verify.build_ms": per_op_ms(verify_build_s),
        "campaign.cache_hits": count("campaign.cache_hit") / ops,
        "campaign.cache_misses": count("campaign.cache_miss") / ops,
        "serve.gate_ms": per_op_ms(total_s("serve.gate")),
        "serve.job_ms": per_op_ms(total_s("serve.job")),
        "serve.request_ms": per_op_ms(total_s("serve.request")),
        "serve.lateness_ms": 0.0,
    }
    metrics.update(extra)
    missing = {name for name, _ in LAYER_METRICS} - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return metrics
