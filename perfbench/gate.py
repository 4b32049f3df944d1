"""Correctness gate: every call must pass and match the recorded reference.

For each call the gate checks ``report.passed`` (and, for CLI calls, exit
code 0 and the written CSV/SVG files), then compares the stage-end
populations and stage-end ``f_imag`` with the values in ``reference.json``,
recorded from the seed implementation for that exact input, to ``TOL``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TOL = 1e-12
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def stage_end_values(report) -> dict:
    """Populations and imaginary phase at the last grid point of every stage."""
    traj = report.trajectory
    grid = traj.grid
    idx = [grid.index_of(b) for b in grid.stage_boundaries] + [traj.times.size - 1]
    return {
        "pops": traj.populations[idx].tolist(),
        "f_imag": report.phase.f_imag[idx].tolist(),
    }


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["values"]


def check(call, report, exit_code, reference: dict, outputs=None) -> str | None:
    """``None`` if the call is correct, else a one-line reason."""
    if report is None:
        return "no report returned"
    if exit_code not in (None, 0):
        return f"CLI exit code {exit_code}"
    if not report.passed:
        failing = [c.name for c in report.checks if not c.passed]
        return f"report.passed is False ({', '.join(failing)})"
    if outputs is not None:
        csv, svg = outputs
        rows = report.trajectory.times.size + 1
        with open(csv, encoding="utf-8") as fh:
            n_lines = sum(1 for _ in fh)
        if n_lines != rows:
            return f"CSV has {n_lines} lines, expected {rows}"
        if not svg.read_text(encoding="utf-8").rstrip().endswith("</svg>"):
            return "SVG is incomplete"
    expected = reference.get(call.key)
    if expected is None:
        return f"no reference for {call.key}"
    got = stage_end_values(report)
    for name in ("pops", "f_imag"):
        a, b = np.asarray(got[name]), np.asarray(expected[name])
        if a.shape != b.shape:
            return f"stage-end {name} shape {a.shape} != reference {b.shape}"
        err = float(np.max(np.abs(a - b)))
        if not err <= TOL:
            return f"stage-end {name} differs from reference by {err:.3e} (> {TOL:g})"
    return None
