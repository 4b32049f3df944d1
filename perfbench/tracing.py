"""Outside-in layer tracing for the benchmark.

The tracer wraps the public functions of each layer under the names their
callers bind (``nhpassage.scenarios.evolve_ket``, ``nhpassage.cli.export_csv``
and so on, plus the method ``TimeDependentOperator.sample``), records one
span per call in memory, and restores every name on exit.  Nothing in the
library changes.  ``scenarios`` imports these functions by name, so the
wrappers must replace the names in ``scenarios`` and ``cli``, not in the
defining modules.

A span is ``[name, start, end, parent, call_id]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``call_id`` the benchmark call
that caused it.  A layer's self time is its spans' durations minus their
child spans' durations.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

SPAN_FIELDS = ("name", "start", "end", "parent", "call_id")

# Per-layer time metrics, each the self time of one span name, in s per pass.
TIME_METRICS = (
    "dynamics.propagate.s", "dynamics.step_check.s", "dynamics.biorthogonality.s",
    "dynamics.propagator.s", "dynamics.sample.s", "dynamics.dyson.s",
    "frames.triangularization.s", "frames.von_neumann.s",
    "synthesis.synthesize.s", "synthesis.phase.s", "synthesis.consistency.s",
    "scenarios.run.self_s", "scenarios.verify.self_s",
    "exports.csv.s", "exports.svg.s", "cli.main.self_s", "config.read.s",
)
# Counts made at the same boundaries, per pass.
COUNT_METRICS = (
    "dynamics.rk4_steps", "dynamics.sweeps", "dynamics.sample_points",
    "frames.residual_points", "exports.csv.bytes", "exports.svg.bytes",
)


def _span_name(metric: str) -> str:
    return metric.rsplit(".", 1)[0]


def _points(grid) -> int:
    """Grid points of a ``TimeGrid`` or of an array of times."""
    return grid.n_steps + 1 if hasattr(grid, "n_steps") else len(grid)


class Tracer:
    """Installs the layer wrappers; keeps spans and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.call_id = -1
        self._stack: list[int] = []
        self._run_dt = None
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's arguments;
        ``before(args)`` and ``after(args)`` update counts at the boundary.
        """
        inner = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            record = [name if isinstance(name, str) else name(args),
                      perf_counter(), 0.0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return inner(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                if after is not None:
                    after(args)

        self._saved.append((owner, attr, inner))
        setattr(owner, attr, traced)

    def install(self) -> None:
        import nhpassage.cli as cli
        import nhpassage.scenarios as sc
        from nhpassage.dynamics import TimeDependentOperator

        counts = self.counts

        def enter_run(args):
            self._run_dt = args[0].resolved_dt()

        def sweep(n_sweeps):
            def count(args):
                grid = args[-1]
                counts["dynamics.rk4_steps"] += n_sweeps * grid.n_steps
                counts["dynamics.sweeps"] += n_sweeps
            return count

        def evolve_name(args):
            # the dt/2 convergence re-run integrates on a grid of half the config dt
            half = self._run_dt is not None and math.isclose(
                args[2].dt, self._run_dt / 2, rel_tol=1e-9)
            return "dynamics.step_check" if half else "dynamics.propagate"

        def residual_points(args):
            counts["frames.residual_points"] += _points(args[2])

        def sample_points(args):
            counts["dynamics.sample_points"] += len(args[1])

        def file_bytes(metric):
            def count(args):
                counts[metric] += os.path.getsize(args[1])
            return count

        for attr in ("run_two_level", "run_cyclic", "run_scenario"):
            self._wrap(sc, attr, "scenarios.run", before=enter_run)
        self._wrap(cli, "verify", "scenarios.verify", before=enter_run)
        for attr in ("evolve_ket", "evolve_bra"):
            self._wrap(sc, attr, evolve_name, before=sweep(1))
        self._wrap(sc, "biorthogonality_defect", "dynamics.biorthogonality", before=sweep(2))
        self._wrap(sc, "propagator_ket", "dynamics.propagator", before=sweep(1))
        self._wrap(sc, "dyson_truncation", "dynamics.dyson")
        self._wrap(TimeDependentOperator, "sample", "dynamics.sample", before=sample_points)
        self._wrap(sc, "triangularization_residual", "frames.triangularization",
                   before=residual_points)
        self._wrap(sc, "von_neumann_residual", "frames.von_neumann", before=residual_points)
        for attr in ("synthesize_two_level", "synthesize_three_level"):
            self._wrap(sc, attr, "synthesis.synthesize")
        for attr in ("phase_two_level", "phase_three_level"):
            self._wrap(sc, attr, "synthesis.phase")
        for attr in ("two_level_consistency_residual", "three_level_consistency_residual"):
            self._wrap(sc, attr, "synthesis.consistency")
        self._wrap(cli, "export_csv", "exports.csv", after=file_bytes("exports.csv.bytes"))
        self._wrap(cli, "export_svg", "exports.svg", after=file_bytes("exports.svg.bytes"))
        self._wrap(cli, "main", "cli.main")
        self._wrap(cli, "read_config", "config.read")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, inner = self._saved.pop()
            setattr(owner, attr, inner)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: span time minus its child spans' time."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write(self, path: Path) -> None:
        """Write every span once, as ``{"fields": [...], "spans": [[...], ...]}``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


UNITS = {
    **{m: "s/pass" for m in TIME_METRICS},
    **{m: "count/pass" for m in COUNT_METRICS},
    "dynamics.useful_point_ratio": "ratio",
    "dynamics.samples_per_point": "ratio",
    "scenarios.points": "count/pass",
    "trace.overhead_frac": "frac",
    "trace.pass_s": "s/pass",
    "trace.unattributed_frac": "frac",
}


def layer_metrics(self_times: dict[str, float], counts: dict, points: int) -> dict[str, float]:
    """Per-layer metrics of one pass from its self times, counts and reported points."""
    out = {m: self_times.get(_span_name(m), 0.0) for m in TIME_METRICS}
    out.update({m: counts.get(m, 0) for m in COUNT_METRICS})
    steps = counts.get("dynamics.rk4_steps", 0)
    out["dynamics.useful_point_ratio"] = points / steps if steps else 0.0
    out["dynamics.samples_per_point"] = (
        counts.get("dynamics.sample_points", 0) / points if points else 0.0)
    out["scenarios.points"] = points
    return out
