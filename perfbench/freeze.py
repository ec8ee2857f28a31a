"""Regenerate the frozen spec lists under ``perfbench/specs/``.

    python3 perfbench/freeze.py

The benchmark reads only these copies, so later edits to the checked-in
corpus seeds, the example specs or the built-in hazard scenarios do not
silently change its inputs.  Each expected property is the hazard the
scenario was built to exhibit, not a recorded verifier output.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (name, source, expected property) for the fixed part of ``explore``.
EXPLORE_FIXED = (
    ("contention-rtsv001", "tests/corpus/seeds/contention-rtsv001-4af975a36b.json",
     "RTS-V001"),
    ("smp-rtsv002", "tests/corpus/seeds/smp-rtsv002-385b0b0fd0.json",
     "RTS-V002"),
    ("fig6-deadlock", "fig6_crossed_mutex_spec", "RTS-V001"),
    ("fig6-miss", "fig6_deadline_miss_spec", "RTS-V002"),
    ("smp-miss", "smp_miss_spec", "RTS-V002"),
)
#: Horizons of the built-in hazards, as ``pyrtos-sc verify`` uses them.
HAZARD_HORIZON = {"fig6-deadlock": "1ms", "fig6-miss": "1ms",
                  "smp-miss": None}


def _write(name: str, payload) -> None:
    with open(os.path.join(HERE, "specs", name), "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.kernel.time import format_time
    from repro.smp import smp_miss_spec
    from repro.workloads.fig6 import fig6_crossed_mutex_spec, \
        fig6_deadline_miss_spec

    builders = {"fig6_crossed_mutex_spec": fig6_crossed_mutex_spec,
                "fig6_deadline_miss_spec": fig6_deadline_miss_spec,
                "smp_miss_spec": smp_miss_spec}
    fixed = []
    for name, source, expect in EXPLORE_FIXED:
        if source.endswith(".json"):
            with open(os.path.join(ROOT, source)) as handle:
                seed = json.load(handle)
            spec = seed["spec"]
            horizon = format_time(seed["options"]["horizon"])
        else:
            spec = builders[source]()
            horizon = HAZARD_HORIZON[name]
        fixed.append({"name": name, "source": source, "expect": expect,
                      "horizon": horizon, "spec": spec})
    _write("explore_fixed.json", fixed)
    with open(os.path.join(ROOT, "examples", "smp_global_edf.json")) as handle:
        _write("smp_global_edf.json", json.load(handle))
    return 0


if __name__ == "__main__":
    sys.exit(main())
