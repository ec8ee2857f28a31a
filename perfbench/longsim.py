"""``longsim``: a few long nominal simulations on the ``pyrtos-sc run`` path.

Each operation builds one model once, attaches a ``TraceRecorder``, runs
it to a long horizon and computes the Figure-8 statistics both ways
(online accumulators and trace replay).  The set per round: the MPEG-2
SoC under both section-4 engines, a zero-overhead periodic task set, the
``smp_global_edf`` example and a FreeRTOS personality application.

The run advances in ``SLICES`` equal steps of simulated time; the host
time of each step is one latency sample.  ``ops_per_s`` is simulated
milliseconds per host second over whole operations (build, run, stats).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from .common import SPECS, Digest, Result, median_prepare_s, percentile, \
    response_time_bounds, rng_for, rounds_for, self_peak_rss_mb

NAME = "longsim"
SLICES = 40
MPEG2_FRAMES = 210
PERIODIC_HORIZON_MS = 3_000
SMP_HORIZON_MS = 12_000
FREERTOS_HORIZON_MS = 1_200
#: Periods of the periodic task set, shortest (highest priority) first.
PERIODS_US = (2_000, 3_000, 5_000, 7_000, 11_000, 13_000)
#: Nominal seconds per round (five simulations) on the reference host.
ROUND_S = 2.9


@dataclass
class Case:
    name: str
    horizon: int
    spec: Optional[Dict] = None
    engine: Optional[str] = None  # MPEG-2 only
    seed: int = 0


def periodic_spec(rng) -> Dict:
    """A zero-overhead rate-monotonic task set in the corpus spec format.

    The periods are fixed and the seed splits a fixed utilization among
    the tasks (UUniFast), so every seed releases the same jobs per
    simulated second and the run's cost does not depend on the seed.
    """
    from repro.workloads.synthetic import uunifast

    shares = uunifast(len(PERIODS_US), 0.75, rng)
    functions = []
    for index, (period, share) in enumerate(zip(PERIODS_US, shares)):
        wcet = max(1, round(period * share))
        functions.append({
            "name": f"T{index}", "priority": len(PERIODS_US) - index,
            "processor": "cpu0", "wcet": f"{wcet}us",
            "period": f"{period}us", "deadline": f"{period}us",
            "script": [["loop", None, [["execute", f"{wcet}us"],
                                       ["delay", f"{period - wcet}us"]]]],
        })
    return {"name": "longsim_periodic", "relations": [],
            "processors": [{"name": "cpu0"}], "functions": functions}


def prepare(seed: int, seconds: int) -> List[Case]:
    from repro.corpus import generate
    from repro.kernel.time import MS
    from repro.workloads.mpeg2 import FRAME_PERIOD

    rng = rng_for(NAME, seed, "cases")
    mpeg2_seed = rng.randrange(1 << 30)
    periodic = periodic_spec(rng)
    # fixed producer period: the seed only draws costs and priorities
    freertos = generate("freertos", rng.randrange(1 << 30), {
        "iterations": 100_000, "period_min_us": 1_000,
        "period_max_us": 1_000})
    with open(os.path.join(SPECS, "smp_global_edf.json")) as handle:
        smp = json.load(handle)
    cases = [
        Case("mpeg2-procedural", MPEG2_FRAMES * FRAME_PERIOD,
             engine="procedural", seed=mpeg2_seed),
        Case("mpeg2-threaded", MPEG2_FRAMES * FRAME_PERIOD,
             engine="threaded", seed=mpeg2_seed),
        Case("periodic", PERIODIC_HORIZON_MS * MS, spec=periodic),
        Case("smp-global-edf", SMP_HORIZON_MS * MS, spec=smp),
        Case("freertos", FREERTOS_HORIZON_MS * MS, spec=freertos),
    ]
    _simulate(Case("warm-up", 10 * MS, spec=periodic))
    return cases


def _simulate(case: Case) -> Dict:
    """One long simulation; returns the live objects and timings."""
    from repro.mcse.builder import build_system
    from repro.trace.recorder import TraceRecorder
    from repro.trace.statistics import relation_stats, \
        task_stats_from_functions, task_stats_from_records
    from repro.workloads.mpeg2 import Mpeg2Soc

    started = time.perf_counter()
    soc = None
    if case.engine is not None:
        soc = Mpeg2Soc(frames=MPEG2_FRAMES, engine=case.engine,
                       seed=case.seed)
        system = soc.system
    else:
        system = build_system(case.spec)
    recorder = TraceRecorder(system.sim)
    slices = []
    for step in range(1, SLICES + 1):
        begin = time.perf_counter()
        system.run(until=case.horizon * step // SLICES)
        slices.append(time.perf_counter() - begin)
    if soc is not None:  # drain the frames still in flight
        begin = time.perf_counter()
        system.run()
        slices.append(time.perf_counter() - begin)
    by_fn = task_stats_from_functions(system.functions.values(),
                                      total=system.now)
    by_rec = task_stats_from_records(recorder, total=system.now)
    relation_stats(system.relations.values())
    return {"system": system, "soc": soc, "recorder": recorder,
            "slices": slices, "by_fn": by_fn, "by_rec": by_rec,
            "elapsed": time.perf_counter() - started}


def _fig8_problems(name: str, out: Dict) -> List[str]:
    """The two independent Figure-8 computations must agree exactly.

    ``preempted`` is left out: the accumulator path drops the interval of
    a task still preempted at the horizon (README, "Faults seen"), which
    happens on some seeds only.
    """
    by_fn = {s.name: s for s in out["by_fn"]}
    by_rec = {s.name: s for s in out["by_rec"]}
    if set(by_fn) != set(by_rec):
        return [f"{name}: Figure-8 task sets differ"]
    fields = ("running", "ready", "waiting", "waiting_resource")
    return [f"{name}: Figure-8 {task}.{field} differs"
            for task in sorted(by_fn) for field in fields
            if getattr(by_fn[task], field) != getattr(by_rec[task], field)]


def _response_problems(case: Case, out: Dict) -> List[str]:
    """Observed response times stay within the benchmark's own RTA bound."""
    from repro.trace.records import StateRecord, TaskState

    bounds = response_time_bounds(case.spec)
    released: Dict[str, Optional[int]] = {}
    worst: Dict[str, int] = {}
    for record in out["recorder"].of_type(StateRecord):
        task = record.task
        if record.state is TaskState.WAITING:
            if released.get(task) is not None:
                worst[task] = max(worst.get(task, 0),
                                  record.time - released[task])
            released[task] = None
        elif task not in released or released[task] is None:
            released[task] = record.time
    problems = []
    for task, bound in sorted(bounds.items()):
        if task not in worst:
            problems.append(f"periodic: {task} completed no job")
        elif bound is not None and worst[task] > bound:
            problems.append(f"periodic: {task} responded in {worst[task]}fs, "
                            f"above its RTA bound {bound}fs")
    return problems


def _frame_problems(outs: Dict[str, Dict]) -> List[str]:
    """Both engines agree frame by frame; frames obey their budgets."""
    from repro.workloads.mpeg2 import CHANNEL_LATENCY, STAGE_BUDGETS_US
    from repro.kernel.time import US

    path = ("Preprocess", "MotionEst", "Dct", "Quant", "Vlc", "Mux",
            "Demux", "Vld", "InvQuant", "Idct", "MotionComp")
    timings = {}
    problems = []
    for name, out in outs.items():
        frames = out["soc"].frame_stats
        timings[name] = [(f.captured, f.encoded, f.received, f.displayed)
                         for f in frames]
        for frame in frames:
            if frame.displayed is None:
                problems.append(f"{name}: frame {frame.index} never shown")
                continue
            # every stage budget is drawn from [0.85, 1.15] x nominal
            floor = sum(STAGE_BUDGETS_US[stage][frame.frame_type] * 85 // 100
                        for stage in path) * US + CHANNEL_LATENCY
            if frame.end_to_end < floor:
                problems.append(f"{name}: frame {frame.index} latency "
                                f"{frame.end_to_end}fs below {floor}fs")
    first, second = timings.values()
    if first != second:
        problems.append("mpeg2: procedural and threaded frame timings differ")
    return problems


def run(seed: int, seconds: int, tracer=None) -> Result:
    setup_s = None if tracer else median_prepare_s(NAME, seed, seconds)
    cases = prepare(seed, seconds)
    rounds = rounds_for(seconds, ROUND_S, 1)
    slices: List[float] = []
    elapsed = simulated = 0
    problems: List[str] = []
    digests = []
    if tracer:
        tracer.install()
    window_start = time.perf_counter()
    for _ in range(rounds):
        digest = Digest()
        mpeg2 = {}
        for case in cases:
            out = _simulate(case)
            slices.extend(out["slices"])
            elapsed += out["elapsed"]
            simulated += out["system"].now
            # checks run between operations, outside their timings
            digest.add_system(out["system"])
            if not digests:
                problems += _fig8_problems(case.name, out)
                if case.name == "periodic":
                    problems += _response_problems(case, out)
                if out["soc"] is not None:
                    mpeg2[case.name] = out
        if mpeg2:
            problems += _frame_problems(mpeg2)
        digests.append(digest.to_dict())
    window = (window_start, time.perf_counter())
    if tracer:
        tracer.uninstall()
    if any(d != digests[0] for d in digests[1:]):
        problems.append("simulated statistics differ between rounds")
    sim_ms_per_s = simulated / 1e12 / elapsed
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": self_peak_rss_mb(),
        "ops_per_s": sim_ms_per_s,
        "op_p50_ms": 1000.0 * percentile(slices, 50),
        "op_p90_ms": 1000.0 * percentile(slices, 90),
    }
    return Result(
        attempted=rounds * len(cases),
        failed=0,
        problems=problems,
        end_to_end=e2e,
        summary={
            "sim_ms_per_host_s": (sim_ms_per_s, "ms/s"),
            "slice_p50_ms": (e2e["op_p50_ms"], "ms"),
            "slice_p90_ms": (e2e["op_p90_ms"], "ms"),
        },
        digest=digests[0],
        window=window,
    )
