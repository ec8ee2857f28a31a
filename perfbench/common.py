"""Shared plumbing: paths, seeds, statistics, set-up sampling, digests."""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPECS = os.path.join(ROOT, "perfbench", "specs")
#: Everything a run writes lives under these two (git-ignored) directories.
TMP_ROOT = os.path.join(ROOT, ".perfbench-tmp")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_SAMPLES = 3


def child_env() -> Dict[str, str]:
    """Environment for helper processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def rng_for(workload: str, seed: int, tag: str) -> random.Random:
    """The one source of randomness for a workload's inputs."""
    return random.Random(f"perfbench:{workload}:{seed}:{tag}")


def rounds_for(seconds: int, round_s: float, min_rounds: int) -> int:
    """Whole rounds a run makes: fixed by ``--seconds``, never by a clock.

    ``round_s`` is the nominal length of one round on the reference host
    (README), so every run with the same ``--seconds`` does exactly the
    same work on any host.
    """
    return max(min_rounds, int(round(seconds / round_s)))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_dir(kind: str) -> str:
    """A new empty directory inside the checkout for this run."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    path = os.path.join(TMP_ROOT, f"{kind}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(path)
    return path


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(TMP_ROOT)  # only succeeds once no other run uses it
    except OSError:
        pass


def time_prepare_in_child(workload: str, seed: int, seconds: int) -> float:
    """Seconds for a fresh interpreter to import and prepare a workload.

    This is the set-up a user pays before the first operation: start
    Python, import the toolchain, generate the inputs and warm up.
    """
    code = (f"from perfbench import {workload} as w; "
            f"w.prepare({seed}, {seconds})")
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - started


def median_prepare_s(workload: str, seed: int, seconds: int) -> float:
    return statistics.median(time_prepare_in_child(workload, seed, seconds)
                             for _ in range(SETUP_SAMPLES))


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    #: Output-check failures; empty means every non-failed op was right.
    problems: List[str]
    #: The generic end-to-end metrics (BENCHMARK.json ``end_to_end``).
    end_to_end: Dict[str, float]
    #: The same figures under the workload's own names, plus extras
    #: (for the human-readable summary only).
    summary: Dict[str, tuple] = field(default_factory=dict)
    digest: Dict = field(default_factory=dict)
    #: perf_counter interval of the timed operations.
    window: tuple = (0.0, 0.0)
    #: Spans recorded in another process (the server), if any.
    spans: Optional[List] = None
    #: Per-layer figures measured outside the spans.
    layer_extra: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Digest of simulated statistics
# ---------------------------------------------------------------------------
class Digest:
    """Exact counts of simulated work; identical for identical behaviour.

    Host timing never enters here, so a change that only speeds the
    toolchain up must leave the digest byte-identical for a given seed.
    """

    def __init__(self) -> None:
        self.switches = 0
        self.deltas = 0
        self.processors: Dict[str, Dict[str, int]] = {}
        self.verifier_runs = 0
        self.verifier_states = 0

    def add_system(self, system) -> None:
        sim = system.sim
        self.switches += sim.process_switch_count
        self.deltas += sim.delta_count
        for name, cpu in sorted(system.processors.items()):
            stats = cpu.stats()
            row = self.processors.setdefault(
                name, {"dispatches": 0, "preemptions": 0,
                       "overhead_time": 0, "migrations": 0})
            for key in row:
                row[key] += int(stats[key])

    def add_verify(self, result) -> None:
        self.verifier_runs += result.stats.runs
        self.verifier_states += result.stats.states

    def to_dict(self) -> Dict:
        payload = {
            "kernel_switches": self.switches,
            "kernel_deltas": self.deltas,
            "processors": self.processors,
            "verifier_runs": self.verifier_runs,
            "verifier_states": self.verifier_states,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        payload["sha256"] = hashlib.sha256(blob).hexdigest()
        return payload


class DigestCollector:
    """Counts every system built and every verification made.

    Systems are read when the next one is built (calls are sequential)
    and at :meth:`flush`, so explored runs never pile up in memory.  Its
    two wrappers cost less than the run-to-run noise (README), so it stays
    installed while operations are timed.
    """

    def __init__(self) -> None:
        from . import tracing

        self.digest = Digest()
        self._pending: List = []
        self._patches = tracing.Patches()
        collector = self

        def wrap_build(original):
            def build_system(*args, **kwargs):
                collector.flush()
                system = original(*args, **kwargs)
                collector._pending.append(system)
                return system
            return build_system

        def wrap_verify(original):
            def verify_model(*args, **kwargs):
                result = original(*args, **kwargs)
                collector.digest.add_verify(result)
                return result
            return verify_model

        self._patches.function("repro.mcse.builder", "build_system",
                               wrap_build)
        self._patches.function("repro.verify", "verify_model", wrap_verify)

    def flush(self) -> None:
        for system in self._pending:
            self.digest.add_system(system)
        self._pending.clear()

    def close(self) -> Dict:
        self.flush()
        self._patches.restore()
        return self.digest.to_dict()




#: The generic end-to-end metrics every run reports (BENCHMARK.json).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
)


def time_rounds(ops: Sequence[Callable[[], object]], rounds: int):
    """Run every op once per round, counting what they simulate.

    Returns per-op seconds, per-round results, the timed window and the
    digest of simulated statistics over all rounds.
    """
    latencies: List[float] = []
    results: List[List[object]] = []
    collector = DigestCollector()
    try:
        started = time.perf_counter()
        for _ in range(rounds):
            row = []
            for op in ops:
                begin = time.perf_counter()
                row.append(op())
                latencies.append(time.perf_counter() - begin)
                collector.flush()
            results.append(row)
        window = (started, time.perf_counter())
    finally:
        digest = collector.close()
    return latencies, results, window, digest


def closed_loop_metrics(latencies: Sequence[float],
                        window: tuple) -> Dict[str, float]:
    """ops_per_s and per-op percentiles of one closed-loop caller."""
    if len(latencies) < 100:
        raise ValueError(f"percentiles need >= 100 samples, "
                         f"got {len(latencies)}")
    return {
        "ops_per_s": len(latencies) / (window[1] - window[0]),
        "op_p50_ms": 1000.0 * percentile(latencies, 50),
        "op_p90_ms": 1000.0 * percentile(latencies, 90),
    }


def response_time_bounds(spec: Dict) -> Dict[str, Optional[int]]:
    """Fixed-priority response-time analysis, computed by the benchmark.

    For the periodic specs the corpus generates (``loop [execute wcet,
    delay period-wcet]``, zero overheads, one processor) each job's delay
    starts when it completes, so tasks are sporadic with minimum
    inter-arrival ``period`` and the synchronous-release fixed point
    ``R = C + sum(ceil(R / T_j) * C_j)`` over higher-priority tasks bounds
    every response time.  Higher ``priority`` numbers preempt lower ones.
    ``None`` marks a task whose iteration passes its period (unbounded).
    """
    from repro.kernel.time import parse_time

    tasks = [(fn["name"], fn["priority"], parse_time(fn["wcet"]),
              parse_time(fn["period"])) for fn in spec["functions"]]
    bounds: Dict[str, Optional[int]] = {}
    for name, prio, wcet, period in tasks:
        higher = [(c, t) for _, p, c, t in tasks if p > prio]
        response = wcet + sum(c for c, _ in higher)
        while response <= period:
            nxt = wcet + sum(-(-response // t) * c for c, t in higher)
            if nxt == response:
                break
            response = nxt
        bounds[name] = response if response <= period else None
    return bounds
