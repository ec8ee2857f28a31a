#!/usr/bin/env python3
"""Steadiness check: two sets of runs on one commit, judged by the bounds.

    python3 perfbench/steady.py [--workloads corpus,serve] [--runs 10]
                                [--first-seed 1] [--seconds N] [--sets 2]
                                [--traced]

Each set runs every workload once per seed (seeds ``first-seed`` ..
``first-seed + runs - 1``; the second set repeats them in reverse order).
For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile range over the median, as
``statistics.quantiles(values, n=4)`` gives them) and whether

* the spread stays within the metric's bound (``setup_s`` exempt),
* the second median is no worse than the first by more than the bound,
* every run fails the same share of operations, and
* every seed's digest of simulated statistics is identical in both sets.

``--sets 1`` makes a single set (no median or digest comparison).

``--traced`` adds one traced run per workload and prints the tracing
overhead on ``ops_per_s``.  Every run's result is kept in
``.perfbench-out/steady-<workload>.json``.  Exit status 0 means everything
agreed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:"
                         f"\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    digest = next(line for line in lines if line.startswith("digest "))
    result["digest"] = json.loads(digest[len("digest "):])["sha256"]
    return result


def spread(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(
        values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for order in (seeds, seeds[::-1])[:args.sets]:
            runs = {seed: run_once(workload, seed, args.seconds, 0)
                    for seed in order}
            sets.append([runs[seed] for seed in seeds])
        out = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"steady-{workload}.json"), "w") as fh:
            json.dump({"seeds": seeds, "sets": sets}, fh, indent=1)
        print(f"== {workload}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            stats = [spread([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            (m1, _, _, s1), (m2, q1, q3, s2) = stats[0], stats[-1]
            worse = (m2 - m1) / m1 if lower else (m1 - m2) / m1
            spread_ok = name == "setup_s" or max(s1, s2) <= bound
            median_ok = worse <= bound
            ok &= spread_ok and median_ok
            print(f"  {name:<12} median {m1:12.4f} -> {m2:12.4f} "
                  f"(q1 {q1:.4f} q3 {q3:.4f})  spread {s1:6.1%} / {s2:6.1%}"
                  f"  bound {bound:.0%}  worse {worse:+6.1%}  "
                  f"{'ok' if spread_ok and median_ok else 'FAIL'}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"]
                                                      for r in runs)
                  for runs in sets]
        per_run = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        digests_ok = all(a["digest"] == b["digest"]
                         for a, b in zip(sets[0], sets[-1]))
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= len(per_run) == 1 and digests_ok and correct
        print(f"  failed share {shares[0]:.6f} / {shares[-1]:.6f} "
              f"(per run {sorted(per_run)}), digests "
              f"{'identical' if digests_ok else 'DIFFER'}, "
              f"outputs {'correct' if correct else 'INCORRECT'}")
        if args.traced:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            rate = traced["metrics"]["traced.ops_per_s"]["value"]
            base = sets[0][0]["metrics"]["ops_per_s"]["value"]
            print(f"  tracing overhead on ops_per_s (seed {seeds[0]}): "
                  f"{1 - rate / base:+.1%}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
