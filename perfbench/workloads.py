"""Inputs and call paths of the three benchmark workloads.

Each workload is a fixed multiset of calls, one *pass*.  The seed permutes
the pass, draws the scenario of a call where the pass offers a choice, and
draws every call's ``T`` and ``gamma_scale`` from the finite sets below, so
``reference.json`` can hold the expected stage-end values of every input any
seed produces, and the number of trajectory points and RK4 steps in a pass
is the same for every seed (``dt`` defaults to ``T/2000``, so a stage always
has 4000 steps).

Calls go through the module attributes (``nhpassage.scenarios.run_cyclic``,
``nhpassage.cli.main``) at call time, so the tracer's wrappers apply when
they are installed.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

T_CHOICES = (0.5, 1.0, 2.0)
# 1.2 is left out: at the default dt, cyclic_ccw with loops=4 and
# gamma_scale=1.2 fails the dt/2 self-check (population shift 1.6e-8 > 1e-8),
# a correct StepSizeError, so no benchmark input may draw it.
GAMMA_SCALE_CHOICES = (0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15)

TWO_LEVEL = ("two_level_a", "two_level_b", "two_level_c", "two_level_d")
CYCLIC = ("cyclic_cw", "cyclic_ccw")

# (kind, scenarios to draw from, loops) of one pass.  Why each workload exists:
# - cyclic_loops: long 3x3 sweeps (12k-48k points, doubled by the dt/2
#   re-run); shows whether cost per point stays flat as loops grows.  The
#   seed draws cw or ccw for each loops value: both directions integrate the
#   same grids at the same cost, and a pass of three calls, not six, repeats
#   each input twice as often in a run, so its median is steadier.
# - two_level_batch: short 2x2 sweeps (4k points) where per-call fixed
#   costs (synthesis checks, frame and grid set-up, dispatch) weigh most.
# - verify_export: the certificate path through the CLI, with config
#   parsing and CSV/SVG export, which the other two never call.
PASSES = {
    "cyclic_loops": [("run", CYCLIC, loops) for loops in (1, 2, 4)],
    "two_level_batch": [("run", (sid,), 1) for sid in TWO_LEVEL for _ in range(3)],
    "verify_export": [("verify", (sid,), 1) for sid in TWO_LEVEL + CYCLIC],
}


def reference_key(scenario: str, loops: int, T: float, gamma_scale: float) -> str:
    return f"{scenario}|loops={loops}|T={T!r}|gamma_scale={gamma_scale!r}"


@dataclass(frozen=True)
class Call:
    """One concrete input of a pass."""

    index: int
    kind: str  # "run": library runner; "verify": the CLI verify subcommand
    scenario: str
    loops: int
    T: float
    gamma_scale: float

    @property
    def key(self) -> str:
        return reference_key(self.scenario, self.loops, self.T, self.gamma_scale)


def make_pass(workload: str, seed: int) -> list[Call]:
    """The seed's pass: a permutation of the workload's multiset with drawn
    scenario, T and gamma_scale."""
    rng = random.Random(f"{workload}:{seed}")
    calls = [
        Call(i, kind, rng.choice(sids), loops, rng.choice(T_CHOICES),
             rng.choice(GAMMA_SCALE_CHOICES))
        for i, (kind, sids, loops) in enumerate(PASSES[workload])
    ]
    rng.shuffle(calls)
    return calls


class Runner:
    """Executes calls of one workload and returns each call's ``RunReport``.

    ``verify`` calls run ``nhpassage.cli.main(["verify", "--config", FILE,
    "--quiet"])`` with the config file written before timing starts; the
    report is captured from the name ``nhpassage.cli.verify`` by a thin
    wrapper that only keeps the return value.
    """

    def __init__(self, calls: list[Call], workdir: Path):
        import nhpassage.cli
        import nhpassage.scenarios

        self.cli = nhpassage.cli
        self.scenarios = nhpassage.scenarios
        self.workdir = workdir
        self.configs: dict[int, Path] = {}
        self.outputs: dict[int, tuple[Path, Path]] = {}
        for call in calls:
            if call.kind == "verify":
                self._write_config(call)
        self._captured = None

    def _write_config(self, call: Call) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        csv = self.workdir / f"call{call.index}.csv"
        svg = self.workdir / f"call{call.index}.svg"
        path = self.workdir / f"call{call.index}.cfg"
        path.write_text(
            f"scenario = {call.scenario}\n"
            f"loops = {call.loops}\n"
            f"T = {call.T!r}\n"
            f"gamma_scale = {call.gamma_scale!r}\n"
            f"csv = {csv}\n"
            f"svg = {svg}\n",
            encoding="utf-8",
        )
        self.configs[call.index] = path
        self.outputs[call.index] = (csv, svg)

    @contextlib.contextmanager
    def capturing(self):
        """Keep the report that ``cli.main`` gets from ``verify``."""
        inner = self.cli.verify

        def capture(config):
            self._captured = inner(config)
            return self._captured

        self.cli.verify = capture
        try:
            yield
        finally:
            self.cli.verify = inner

    def __call__(self, call: Call):
        """Run one call; return ``(report, cli_exit_code or None)``."""
        if call.kind == "run":
            config = self.scenarios.ScenarioConfig(
                scenario=call.scenario, T=call.T, loops=call.loops,
                gamma_scale=call.gamma_scale,
            )
            run = (self.scenarios.run_cyclic if call.scenario in CYCLIC
                   else self.scenarios.run_two_level)
            return run(config), None
        self._captured = None
        argv = ["verify", "--config", str(self.configs[call.index]), "--quiet"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        return self._captured, code
