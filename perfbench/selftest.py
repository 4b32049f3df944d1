"""Self-tests of the benchmark itself (not of nhpassage).

Run from the repository root with ``python3 perfbench/selftest.py``; it
takes about two minutes.  It checks that

- a corrupted reference value, a failing report, a wrong CLI exit code
  and a raising call each trip the correctness gate, and a failed call is
  counted without stopping the run;
- the traced counts (RK4 steps, sweeps, sample points, residual points,
  export bytes) repeat exactly across two runs of one seed, and reported
  points and RK4 steps are identical across two different seeds;
- per-layer self times sum to the traced pass time within 0.5%.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nhpassage import CheckResult, StepSizeError  # noqa: E402

EXACT_COUNTS = ("dynamics.rk4_steps", "dynamics.sweeps", "dynamics.sample_points",
                "frames.residual_points", "exports.csv.bytes", "exports.svg.bytes")
SEEDS = (11, 12)

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def session_for(workload: str, seed: int):
    calls = workloads.make_pass(workload, seed)
    runner = workloads.Runner(calls, run.OUT / "selftest" / workload)
    return calls, runner, run.Session(runner, gate.load_reference())


def check_gate() -> None:
    calls, runner, session = session_for("verify_export", SEEDS[0])
    reference = session.reference
    call = next(c for c in calls if c.scenario == "cyclic_cw")
    with runner.capturing():
        report, code = runner(call)
    outputs = runner.outputs[call.index]
    expect(gate.check(call, report, code, reference, outputs) is None,
           "gate accepts an unchanged verify_export call")

    for name, i, j in (("pops", 1, 2), ("f_imag", 2, None)):
        bad = copy.deepcopy(reference)
        entry = bad[call.key][name]
        if j is None:
            entry[i] += 2e-12
        else:
            entry[i][j] += 2e-12
        expect(gate.check(call, report, code, bad, outputs) is not None,
               f"gate rejects a reference whose stage-end {name} moved by 2e-12")

    expect(gate.check(call, report, 1, reference, outputs) is not None,
           "gate rejects a CLI exit code of 1")
    report.checks.append(CheckResult.below("injected", 1.0, 0.0))
    expect(gate.check(call, report, code, reference, outputs) is not None,
           "gate rejects a report with passed=False")

    def raising(_call):
        raise StepSizeError("injected")

    session.runner = raising
    elapsed, points = session.call(call)
    expect(session.attempted == 1 and len(session.failures) == 1 and points == 0,
           "a raising call counts as failed and the run goes on")


def traced_pass(workload: str, seed: int):
    calls, runner, session = session_for(workload, seed)
    tracer = tracing.Tracer()
    with runner.capturing():
        session.call(calls[0])  # warm-up, untraced
        session.tracer = tracer
        with tracer:
            _, points = session.run_pass(calls)
    expect(not session.failures, f"{workload} seed {seed}: every call passes the gate")
    return dict(tracer.counts), points


def check_counts() -> None:
    for workload in workloads.PASSES:
        first, points_a = traced_pass(workload, SEEDS[0])
        again, points_again = traced_pass(workload, SEEDS[0])
        other, points_b = traced_pass(workload, SEEDS[1])
        same = {m: (first.get(m), again.get(m)) for m in EXACT_COUNTS}
        expect(all(a == b for a, b in same.values()) and points_a == points_again,
               f"{workload}: counts repeat exactly for seed {SEEDS[0]} {same}")
        expect(points_a == points_b
               and first["dynamics.rk4_steps"] == other["dynamics.rk4_steps"],
               f"{workload}: points ({points_a}) and RK4 steps "
               f"({first['dynamics.rk4_steps']}) equal across seeds {SEEDS}")


def check_self_times() -> None:
    calls, runner, session = session_for("two_level_batch", SEEDS[0])
    with runner.capturing():
        session.call(calls[0])
        metrics, _, _ = run.per_layer(session, calls, 0)
    unattributed = metrics["trace.unattributed_frac"]
    overhead = metrics["trace.overhead_frac"]
    # One pair of passes measures the overhead only roughly on a shared
    # machine, so the remainder is held to a fixed 0.5% of the pass instead.
    expect(0 <= unattributed <= 0.005,
           f"self times sum to the traced pass time within 0.5%: unattributed "
           f"{unattributed:.2e}, measured tracing overhead {overhead:.2e}")


def main() -> int:
    check_gate()
    check_self_times()
    check_counts()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
