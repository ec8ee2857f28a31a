"""``explore``: exhaustive DFS model checking to a verdict.

One operation is one ``verify_spec`` call with the default DFS budget.
The fixed list per round:

* ``interval<k>`` for k = 2..5 -- k equal-priority tasks, each running two
  ``5us..10us`` executes (the symmetric space of ``bench_verify_scaling``);
  no deadline, so every schedule is fine and the verdict must be
  ``verified`` with the space covered;
* ``interval<k>-tight`` -- the same tasks with a deadline of k*20us - 1ns.
  Running every execute at its 10us maximum ends the last task at exactly
  k*20us, so a miss is reachable and the verdict must be ``violated``;
* two jittered periodic task sets (asymmetric: distinct periods,
  rate-monotonic priorities, release jitter): a two-task set drawn from
  the run's seed and a four-task set from a fixed generator seed;
* the frozen seeds and hazards of ``specs/explore_fixed.json``.

The canonical-state dedup currently prunes the reachable miss of every
``-tight`` spec and reports ``verified``; those four checks count as
failed operations (README, "Known fault").
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Optional

from .common import SPECS, Result, closed_loop_metrics, \
    median_prepare_s, response_time_bounds, rng_for, rounds_for, \
    self_peak_rss_mb, time_rounds

NAME = "explore"
INTERVAL_SIZES = (2, 3, 4, 5)
#: (tasks, generator seed or None for one drawn from --seed).  The
#: seeded set is small so that its cost, which varies with the seed, stays
#: below interval3 on every seed; the four-task set is fixed and costs
#: about 2.5x interval3.  No check whose cost depends on the seed can then
#: pass interval3 in rank, so op_p50_ms is interval3's median on every
#: seed (with 15 checks a round, the median is the eighth cheapest).
JITTERED = ((2, None), (4, 6))
JITTER_HORIZON = "5ms"
#: Nominal seconds per round (15 checks) on the reference host.
ROUND_S = 3.3
#: 7 rounds x 15 checks >= 100 latency samples.
MIN_ROUNDS = 7


@dataclass
class Check:
    name: str
    spec: dict
    horizon: Optional[int]
    #: Property a complete exploration must find; None: must verify.
    expect: Optional[str]
    #: Independent bound says no deadline can be missed (jittered sets).
    rta_clean: bool = False


def interval_spec(tasks: int, deadline_ns: Optional[int] = None) -> dict:
    functions = []
    for index in range(tasks):
        fn = {"name": f"t{index}", "priority": 1, "processor": "cpu",
              "script": [["execute", "5us..10us"], ["execute", "5us..10us"]]}
        if deadline_ns is not None:
            fn["deadline"] = f"{deadline_ns}ns"
        functions.append(fn)
    suffix = "" if deadline_ns is None else "-tight"
    return {"name": f"interval{tasks}{suffix}", "relations": [],
            "processors": [{"name": "cpu"}], "functions": functions}


def rta_schedulable(spec: dict) -> bool:
    """Whether the benchmark's own RTA bounds every job by its deadline.

    Release jitter only postpones a task's first job, so the sporadic
    bound of :func:`~perfbench.common.response_time_bounds` still holds.
    """
    from repro.kernel.time import parse_time

    bounds = response_time_bounds(spec)
    return all(bounds[fn["name"]] is not None
               and bounds[fn["name"]] <= parse_time(fn["deadline"])
               for fn in spec["functions"])


def prepare(seed: int, seconds: int) -> List[Check]:
    from repro.corpus import generate
    from repro.kernel.time import parse_time
    from repro.verify import verify_spec

    checks = [Check(f"interval{k}", interval_spec(k), None, None)
              for k in INTERVAL_SIZES]
    checks += [Check(f"interval{k}-tight",
                     interval_spec(k, k * 20_000 - 1),
                     None, "RTS-V002")
               for k in INTERVAL_SIZES]
    rng = rng_for(NAME, seed, "jittered")
    for n, fixed_seed in JITTERED:
        drawn = rng.randrange(1 << 30) if fixed_seed is None else fixed_seed
        spec = generate("periodic", drawn, {
            "n": n, "utilization": 0.7, "jitter_us": 50,
            "period_min_us": 200, "period_max_us": 2000})
        checks.append(Check(f"jittered-n{n}", spec,
                            parse_time(JITTER_HORIZON), None,
                            rta_clean=rta_schedulable(spec)))
    with open(os.path.join(SPECS, "explore_fixed.json")) as handle:
        for entry in json.load(handle):
            horizon = entry["horizon"]
            checks.append(Check(entry["name"], entry["spec"],
                                parse_time(horizon) if horizon else None,
                                entry["expect"]))
    verify_spec(checks[0].spec)  # warm-up: lazy imports
    return checks


def _check(checks: List[Check], results) -> tuple:
    """Failed checks per round, and output problems."""
    from repro.verify import replay_spec

    failed, problems = 0, []
    for check, result in zip(checks, results):
        counterexample = result.counterexample
        if counterexample is not None:
            _, _, outcome = replay_spec(check.spec, counterexample.choices,
                                        horizon=check.horizon)
            seen = {v.property_id for v in outcome.violations}
            if counterexample.property_id not in seen:
                problems.append(f"{check.name}: counterexample does not "
                                f"replay to {counterexample.property_id}")
        if check.expect is not None:
            if result.ok:
                failed += 1  # a reachable violation was reported verified
            elif check.expect not in {v.property_id
                                      for v in result.violations}:
                problems.append(f"{check.name}: expected {check.expect}, "
                                f"got {result.verdict()}")
        elif check.rta_clean and not result.ok:
            problems.append(f"{check.name}: RTA bounds every response "
                            "within its deadline, yet the verifier reports "
                            f"{sorted({v.property_id for v in result.violations})}")
        elif not check.name.startswith("jittered") and \
                not (result.ok and result.complete):
            problems.append(f"{check.name}: expected a complete "
                            f"verification, got {result.verdict()}")
    return failed, problems


def run(seed: int, seconds: int, tracer=None) -> Result:
    from repro.verify import verify_spec

    setup_s = None if tracer else median_prepare_s(NAME, seed, seconds)
    checks = prepare(seed, seconds)
    rounds = rounds_for(seconds, ROUND_S, MIN_ROUNDS)
    ops = [lambda c=c: verify_spec(c.spec, horizon=c.horizon)
           for c in checks]
    if tracer:
        tracer.install()
    latencies, results, window, digest = time_rounds(ops, rounds)
    if tracer:
        tracer.uninstall()
    peak = self_peak_rss_mb()
    failed, problems = _check(checks, results[0])
    verdicts = [r.verdict() for r in results[0]]
    if any([r.verdict() for r in row] != verdicts for row in results[1:]):
        problems.append("verdicts differ between rounds")
    e2e = closed_loop_metrics(latencies, window)
    e2e.update(setup_s=setup_s, peak_rss_mb=peak)
    return Result(
        attempted=len(latencies),
        failed=failed * rounds,
        problems=problems,
        end_to_end=e2e,
        summary={
            "checks_per_s": (e2e["ops_per_s"], "1/s"),
            "check_p50_ms": (e2e["op_p50_ms"], "ms"),
            "check_p90_ms": (e2e["op_p90_ms"], "ms"),
        },
        digest=digest,
        window=window,
    )
