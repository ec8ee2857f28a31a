"""``corpus``: the batch-run / fuzz path, one closed-loop caller.

Every spec of a seeded list (all nine ``repro.corpus`` generators) goes
through ``run_pipeline`` -- lint, nominal simulation, bounded verify with
the default 32-run budget -- at a fixed horizon.  One operation is one
spec through the whole pipeline.  Every spec is distinct: more specs, not
repeated rounds, is what evens out how costly a seed's draws are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .common import Result, closed_loop_metrics, \
    median_prepare_s, rng_for, self_peak_rss_mb, time_rounds

NAME = "corpus"
#: A verify-stage crash with both of these in its message is the seed-
#: dependent replay divergence at an SMP migration (README, "Faults seen"):
#: such a spec is left out of the run's operations and timings, since
#: counting it would make the failed share depend on the seed.
LEFT_OUT_FAULT = ("replay diverged", "migrate(")
#: Specs per generator and second of ``--seconds`` (72 each at 15 s).
SPECS_PER_GENERATOR_PER_S = 4.8
HORIZON_MS = 100


@dataclass
class Inputs:
    specs: List[tuple]  # (generator, scenario seed, spec)
    options: object


def prepare(seed: int, seconds: int) -> Inputs:
    from repro.corpus import GENERATORS, generate
    from repro.corpus.pipeline import PipelineOptions, run_pipeline
    from repro.kernel.time import MS

    rng = rng_for(NAME, seed, "specs")
    per_generator = max(12, round(seconds * SPECS_PER_GENERATOR_PER_S))
    specs = []
    for kind in sorted(GENERATORS):
        for _ in range(per_generator):
            scenario = rng.randrange(1 << 30)
            specs.append((kind, scenario, generate(kind, scenario)))
    rng.shuffle(specs)
    options = PipelineOptions(horizon=HORIZON_MS * MS)
    run_pipeline(specs[0][2], options)  # warm-up: lazy imports, caches
    return Inputs(specs, options)


def _left_out(verdict: Dict) -> bool:
    crash = verdict.get("crash")
    return crash is not None and crash.get("stage") == "verify" and all(
        part in crash.get("message", "") for part in LEFT_OUT_FAULT)


def _check(inputs: Inputs, verdicts: List[Dict]):
    """Failed ops, indices of left-out ops, and output problems.

    A crash or a static-vs-dynamic differential is a failed operation,
    except the known fault of ``LEFT_OUT_FAULT``, which is left out.
    Every counterexample must replay to its property.
    """
    from repro.verify import replay_spec
    from repro.verify.witness import declared_blocking_bound

    failed, left_out, problems = 0, [], []
    for index, ((kind, scenario, spec), verdict) in enumerate(
            zip(inputs.specs, verdicts)):
        label = f"{kind}:{scenario}"
        if _left_out(verdict):
            left_out.append(index)
            print(f"left out {label}: {verdict['crash']['message']}")
            continue
        if "crash" in verdict or verdict.get("differential"):
            failed += 1
            continue
        counterexample = verdict.get("verify", {}).get("counterexample")
        if counterexample is not None:
            _, _, outcome = replay_spec(
                spec, counterexample["choices"],
                horizon=inputs.options.horizon,
                max_depth=inputs.options.verify_max_depth,
                inversion_bound=declared_blocking_bound(spec))
            seen = {v.property_id for v in outcome.violations}
            if counterexample["property"] not in seen:
                problems.append(f"{label}: counterexample does not replay "
                                f"to {counterexample['property']}")
    return failed, left_out, problems


def run(seed: int, seconds: int, tracer=None) -> Result:
    from repro.corpus.pipeline import run_pipeline

    setup_s = None if tracer else median_prepare_s(NAME, seed, seconds)
    inputs = prepare(seed, seconds)
    ops = [lambda spec=spec: run_pipeline(spec, inputs.options)
           for _, _, spec in inputs.specs]
    if tracer:
        tracer.install()
    latencies, results, window, digest = time_rounds(ops, 1)
    if tracer:
        tracer.uninstall()
    peak = self_peak_rss_mb()
    failed, left_out, problems = _check(inputs, results[0])
    kept = [latency for index, latency in enumerate(latencies)
            if index not in left_out]
    e2e = closed_loop_metrics(kept, (window[0], window[1] - sum(
        latencies[index] for index in left_out)))
    e2e.update(setup_s=setup_s, peak_rss_mb=peak)
    return Result(
        attempted=len(kept),
        failed=failed,
        problems=problems,
        end_to_end=e2e,
        summary={
            "specs_per_s": (e2e["ops_per_s"], "1/s"),
            "spec_p50_ms": (e2e["op_p50_ms"], "ms"),
            "spec_p90_ms": (e2e["op_p90_ms"], "ms"),
        },
        digest=digest,
        window=window,
    )
