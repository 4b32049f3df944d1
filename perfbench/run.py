"""Benchmark of nhpassage: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root::

    python3 perfbench/run.py --workload cyclic_loops --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload verify_export --seed 1 --seconds 38 --trace 1

Workloads (see workloads.py): ``cyclic_loops``, ``two_level_batch``,
``verify_export``.  Each is a closed loop, one caller and one thread of
calls in this process, cycling through the seed's pass of inputs.  Every
call is checked by the correctness gate (gate.py); a call that raises or
fails the gate counts as failed and the run goes on.

``--trace 0`` times the calls with nothing wrapped but the report capture
of the CLI path, paces each call by a fixed kernel timed beside it (see
``end_to_end``), and prints the end-to-end metrics.  ``--trace 1``
alternates untraced and traced passes over the same inputs and prints the
per-layer metrics of a pass, plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Spans of a traced run are written to
``.perfbench_out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh interpreters started per run to time ``import nhpassage``.
SETUP_REPEATS = 11
#: Calls that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: RK4 steps of the pace kernel, about 17.5 ms on the reference machine.
PACE_STEPS = 1000
#: Pace kernel seconds that define the reference machine speed: the
#: kernel's median on a shared 2-core Xeon VM in a quiet period.  Paced
#: times read as wall times on that machine at that speed.
PACE_REF_S = 0.0175
#: After each call the kernel repeats for this share of the call's wall time,
#: so that a long call is paced by a long sample of the machine's speed.
PACE_SHARE = 0.1

END_TO_END_UNITS = {
    "points_per_s": "points/s",
    "call_us_per_point.p50": "us",
    "call_us_per_point.tail": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running ``import nhpassage``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import nhpassage"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # compiles bytecode once
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


class Session:
    """Runs and gates calls; keeps the counts of attempted and failed calls."""

    def __init__(self, runner, reference):
        self.runner = runner
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = None

    def call(self, call) -> tuple[float, int]:
        """Run one call; return its wall seconds and the points it delivered (0 if failed)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.call_id = self.attempted
        start = perf_counter()
        try:
            report, code = self.runner(call)
            elapsed = perf_counter() - start
            reason = gate.check(call, report, code, self.reference,
                                self.runner.outputs.get(call.index))
        except Exception as exc:  # a failed call is data: count it and go on
            elapsed = perf_counter() - start
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append(f"{call.key} [{call.kind}]: {reason}")
            return elapsed, 0
        return elapsed, report.trajectory.times.size

    def run_pass(self, calls) -> tuple[float, int]:
        """All calls of one pass; summed call seconds and delivered points."""
        seconds = points = 0
        for call in calls:
            s, p = self.call(call)
            seconds += s
            points += p
        return seconds, points


def tail(values: list[float]) -> tuple[float, float]:
    """The value with ``TAIL_BEYOND`` samples beyond it, and its percentile.

    With fewer than ``2 * TAIL_BEYOND + 1`` samples that value would lie at
    or below the median, so the tail is the second-largest sample, the
    highest with one beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > 2 * TAIL_BEYOND else min(1, n - 1)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def pace_kernel() -> float:
    """Wall seconds of a fixed RK4 loop, independent of nhpassage.

    A 3x3 complex generator stepped with small numpy operations and Python
    dispatch, the same kind of work the library's sweeps do, so that the
    kernel slows with the machine the way the calls do.
    """
    h = np.array([[0, 1, 0], [1, 0.5j, 1], [0, 1, -0.3]], dtype=complex)
    psi = np.array([1, 0, 0], dtype=complex)
    dt = 1e-3

    def f(t, x):
        return -1j * (h * (1 + 0.1 * t)) @ x

    start = perf_counter()
    for k in range(PACE_STEPS):
        t = k * dt
        k1 = f(t, psi)
        k2 = f(t + dt / 2, psi + dt / 2 * k1)
        k3 = f(t + dt / 2, psi + dt / 2 * k2)
        k4 = f(t + dt, psi + dt * k3)
        psi = psi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return perf_counter() - start


def pace(budget: float) -> float:
    """Mean seconds of one pace-kernel run, repeated for at least ``budget`` seconds."""
    runs = spent = 0
    while runs == 0 or spent < budget:
        spent += pace_kernel()
        runs += 1
    return spent / runs


def end_to_end(session: Session, calls, seconds: int) -> tuple[dict, dict]:
    """Closed loop over the pass for ``seconds`` (at least one whole pass).

    After the first pass, a call is started only if its input's median wall
    time so far still fits before the deadline, so a long call never runs
    far past ``seconds``.  The pace kernel runs before the first call and
    after every call.  A call's paced time is its wall time times
    ``PACE_REF_S`` over the mean kernel time before and after it.
    """
    walls = defaultdict(list)
    times = defaultdict(list)    # input -> paced seconds of each call
    delivered = {}
    per_point = []
    kernel = [pace(PACE_SHARE)]
    start = perf_counter()
    i = 0
    while True:
        call = calls[i % len(calls)]
        if (i >= len(calls) and
                perf_counter() - start + statistics.median(walls[call.index]) > seconds):
            break
        i += 1
        elapsed, points = session.call(call)
        kernel.append(pace(PACE_SHARE * elapsed))
        walls[call.index].append(elapsed)
        paced = elapsed * PACE_REF_S / ((kernel[-2] + kernel[-1]) / 2)
        times[call.index].append(paced)
        delivered[call.index] = min(delivered.get(call.index, points), points)
        if points:
            per_point.append(1e6 * paced / points)
    # Other tenants of a shared machine slow everything that runs, in
    # episodes that last from seconds to minutes.  A statistic over the
    # calls of one run cannot remove an episode that covers the whole run;
    # dividing by the pace kernel, timed next to each call, removes most of
    # it.  Each input's median paced time makes the pass, so a partial last
    # pass does not tilt points_per_s toward the inputs it held.
    pass_seconds = sum(statistics.median(t) for t in times.values())
    value, pct = tail(per_point) if per_point else (0.0, 100.0)
    metrics = {
        "points_per_s": sum(delivered.values()) / pass_seconds,
        "call_us_per_point.p50": statistics.median(per_point) if per_point else 0.0,
        "call_us_per_point.tail": value,
    }
    reps = [len(t) for t in times.values()]
    meta = {"calls": i, "inputs": len(times), "repeats_min": min(reps),
            "repeats_max": max(reps), "tail_percentile": pct,
            "tail_samples": len(per_point), "timed_s": perf_counter() - start,
            "pace_kernel_s": {"median": statistics.median(kernel),
                              "min": min(kernel), "max": max(kernel)}}
    return metrics, meta


def per_layer(session: Session, calls, seconds: int):
    """Alternate untraced and traced passes of the same inputs; per-pass layer metrics."""
    tracer = tracing.Tracer()
    untraced, traced, counts, points = [], [], [], []
    start = perf_counter()
    while True:
        pair_start = perf_counter()
        untraced.append(session.run_pass(calls)[0])
        tracer.counts.clear()
        session.tracer = tracer
        with tracer:
            wall, pts = session.run_pass(calls)
        session.tracer = None
        traced.append(wall)
        counts.append(dict(tracer.counts))
        points.append(pts)
        pair = perf_counter() - pair_start
        if perf_counter() - start + pair > seconds:
            break
    n = len(traced)
    self_times = {k: v / n for k, v in tracer.self_times().items()}
    metrics = tracing.layer_metrics(self_times, counts[0], points[0])
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["trace.pass_s"] = sum(traced) / n
    metrics["trace.unattributed_frac"] = 1 - sum(self_times.values()) / metrics["trace.pass_s"]
    meta = {"pairs": n, "spans": len(tracer.spans), "self_times_s": self_times,
            "counts_repeat": all(c == counts[0] for c in counts) and len(set(points)) == 1}
    return metrics, meta, tracer


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nhpassage" / "__init__.py").is_file():
        print(f"error: no nhpassage sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import nhpassage

    if not Path(nhpassage.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported nhpassage from {nhpassage.__file__}, not {SRC}", file=sys.stderr)
        return 2

    calls = workloads.make_pass(args.workload, args.seed)
    runner = workloads.Runner(calls, OUT / args.workload)
    session = Session(runner, gate.load_reference())
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if args.trace == 0:
        metrics["setup_s"] = measure_setup()
    with runner.capturing():
        session.call(min(calls, key=lambda c: (c.loops, c.scenario)))  # warm-up, untimed
        if args.trace == 0:
            found, meta = end_to_end(session, calls, args.seconds)
            metrics.update(found)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END_UNITS
        else:
            found, meta, tracer = per_layer(session, calls, args.seconds)
            metrics.update(found)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
            units = tracing.UNITS

    failed = len(session.failures)
    for reason in session.failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    if not meta.get("counts_repeat", True):
        print("FAILED per-pass counts differ between passes of the same inputs", file=sys.stderr)
    meta.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_frac": failed / session.attempted,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "src_lines": src_lines(),
    })
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {meta['failed_frac']:.6g} ({failed}/{session.attempted} calls)")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0 and meta.get("counts_repeat", True),
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
