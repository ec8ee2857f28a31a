#!/usr/bin/env python3
"""One benchmark for the whole pyrtos-sc toolchain.

Run from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Workloads: ``corpus`` (lint -> simulate -> verify pipeline), ``explore``
(exhaustive model checking), ``longsim`` (long nominal simulations) and
``serve`` (the HTTP gateway under open-loop load).  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` repeats the same operations with
spans installed and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus", "explore", "longsim", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="nominal run length; fixes the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no toolchain sources under "
                         f"{os.path.join(ROOT, 'src')}; run from a full "
                         "checkout\n")
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    # One CPU for the run and every process it starts (they inherit it):
    # on the 2-vCPU reference host, handing work between vCPUs cost more
    # and varied more than sharing one (README, "Reference figures").
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from perfbench.common import END_TO_END, OUT_ROOT
    from perfbench.tracing import LAYER_METRICS, Tracer, layer_metrics

    module = importlib.import_module(f"perfbench.{args.workload}")
    tracer = Tracer() if args.trace else None
    result = module.run(args.seed, args.seconds, tracer)

    print(f"workload {args.workload} seed {args.seed}: "
          f"{result.attempted} operations, {result.failed} failed")
    for name, (value, unit) in result.summary.items():
        print(f"  {name:<22} {value:14.4f} {unit}")
    print(f"digest {json.dumps(result.digest, sort_keys=True)}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")

    if tracer is not None:
        spans = result.spans if result.spans is not None else tracer.spans
        os.makedirs(OUT_ROOT, exist_ok=True)
        spans_path = os.path.join(
            OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.spans = spans
        tracer.write(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        extra = dict(result.layer_extra)
        extra["traced.ops_per_s"] = result.end_to_end["ops_per_s"]
        values = layer_metrics(spans, result.attempted, result.window, extra)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        metrics = {name: {"value": result.end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if not result.problems else 1


if __name__ == "__main__":
    sys.exit(main())
