"""Record reference.json: stage-end values for every input any seed can draw.

Run from the repository root with ``python3 perfbench/record_reference.py``.
It runs every (scenario, loops, T, gamma_scale) that appears in a workload
pass, through the library runner and, for verify inputs, through
``verify``; it fails if any run does not pass or if the two paths disagree.
Re-record only when the physics is meant to change: the gate exists to
catch changes that were not.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from nhpassage.scenarios import ScenarioConfig, run_scenario, verify  # noqa: E402


def main() -> int:
    inputs = sorted({(kind, sid, loops) for p in workloads.PASSES.values()
                     for kind, sids, loops in p for sid in sids})
    values: dict[str, dict] = {}
    start = time.perf_counter()
    for (kind, sid, loops), T, gs in itertools.product(
            inputs, workloads.T_CHOICES, workloads.GAMMA_SCALE_CHOICES):
        config = ScenarioConfig(scenario=sid, T=T, loops=loops, gamma_scale=gs)
        report = verify(config) if kind == "verify" else run_scenario(config)
        if not report.passed:
            failing = [c.name for c in report.checks if not c.passed]
            raise SystemExit(f"{sid} loops={loops} T={T} gamma_scale={gs} fails: {failing}")
        got = gate.stage_end_values(report)
        key = workloads.reference_key(sid, loops, T, gs)
        if key in values:
            for name in ("pops", "f_imag"):
                if not np.array_equal(values[key][name], got[name]):
                    raise SystemExit(f"{key}: run and verify disagree on {name}")
        values[key] = got
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"tolerance": gate.TOL, "values": dict(sorted(values.items()))},
                  fh, indent=0)
        fh.write("\n")
    print(f"recorded {len(values)} inputs in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
