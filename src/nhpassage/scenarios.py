"""Built-in transfer scenarios, the stage model, its runner, and the verification suite.

Two families are built in.  The two-level runs (``two_level_a`` ..
``two_level_d``) realize the four perfect population transfers between the
levels of an open two-level system: (a)/(b) ride the ket-space passage
under ``H`` and (c)/(d) the bra-space passage under ``H^dag``, with the
gain/loss rate slaved to the frame motion as ``gamma = 2 theta_dot``
(constant for a/b, time-dependent for c/d).  The cyclic runs
(``cyclic_cw``/``cyclic_ccw``) chain three-level stages into full loops
``|0> -> |e> -> |1> -> |0>`` or ``|0> -> |1> -> |e> -> |0>`` with
``gamma = 3 theta_dot`` and the third-level gain flipping sign in the
middle stage.

Both families are built from one stage model.  A stage is a grid, a
moving frame, drives synthesized to triangularize the generator in that
frame, the generator ``H``, the passage (ket under ``H`` or bra under
``H^dag``) that carries the state, and the level it ends on.  A two-level
task is one stage; a cyclic task is three per loop.  One runner first
re-integrates every stage at half the step (the batched scan of
:func:`~nhpassage.dynamics.evolve_ket_halved`), then, stage by stage,
sweeps the state, handed across each boundary verbatim, and takes every
certificate from one table of the stage's ``H`` and one of its frame.  It
fails if any reported population moves by more than the step-check
tolerance, then packages the trajectory, accumulated passage phase,
residual certificates, and checkpoint populations into a
:class:`RunReport` whose pass/fail verdicts are derived solely from the
recorded numbers.  :func:`verify` runs the same stages, and reads them
again for its series oracle and, with a 1% drive error, for its
perturbation control; its Hermitian limit builds them at zero gain.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .dynamics import (
    StateTrajectory,
    TimeDependentOperator,
    TimeGrid,
    _sample_times,
    biorthogonality_defect,
    constant_operator,
    dyson_truncation,
    evolve_bra,
    evolve_ket,
    evolve_ket_halved,
    propagator_ket,
)
from .exceptions import ConfigError, GridError, PassageError, StepSizeError
from .frames import (
    AncillaryFrame,
    ThreeLevelFrameParams,
    TwoLevelFrameParams,
    three_level_frame,
    triangularization_residual,
    two_level_frame,
    von_neumann_residual,
)
from .synthesis import (
    CONSISTENCY_TOL,
    PhaseFunctional,
    ScheduleStage,
    ThreeLevelControls,
    TwoLevelControls,
    clockwise_schedule,
    counterclockwise_schedule,
    phase_three_level,
    phase_two_level,
    synthesize_three_level,
    synthesize_two_level,
    three_level_consistency_residual,
    three_level_hamiltonian,
    two_level_consistency_residual,
    two_level_hamiltonian,
)

__all__ = [
    "POPULATION_TOL",
    "RESIDUAL_TOL",
    "CONSISTENCY_TOL",
    "STEP_CHECK_TOL",
    "STAGE_PHASE_TOL",
    "NORM_DIP",
    "TWO_LEVEL_IDS",
    "CYCLIC_IDS",
    "SCENARIO_IDS",
    "ScenarioConfig",
    "CheckResult",
    "RunReport",
    "TwoLevelScenario",
    "two_level_scenario",
    "run_two_level",
    "run_cyclic",
    "run_scenario",
    "verify",
]

#: End-to-end tolerance on populations and norms.
POPULATION_TOL = 1e-6
#: Tolerance on residuals of analytic identities (triangularization etc.).
RESIDUAL_TOL = 1e-9
#: Max population change allowed between a run and its dt/2 re-run.
STEP_CHECK_TOL = 1e-8
#: Stage-end ceiling for the imaginary accumulated phase.
STAGE_PHASE_TOL = 1e-8
#: Every non-Hermitian scenario must dip at least this far below unit norm.
NORM_DIP = 1e-3

DEFAULT_STEPS_PER_T = 2000

TWO_LEVEL_IDS = ("two_level_a", "two_level_b", "two_level_c", "two_level_d")
CYCLIC_IDS = ("cyclic_cw", "cyclic_ccw")
SCENARIO_IDS = TWO_LEVEL_IDS + CYCLIC_IDS + ("custom",)


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of a reproducible scenario run.

    ``dt`` defaults to ``T / 2000``, which passes the dt/2 self-check with
    orders of magnitude to spare for all built-ins.  ``gamma_scale``
    multiplies the scenario's gain/loss-to-frame-rate ratio (1.0 is the
    reference setting; checkpoint transients are only asserted there).
    ``loops`` counts cyclic loops; a two-level task is one stage, so it
    must be 1 there.
    """

    scenario: str
    T: float = 1.0
    dt: float | None = None
    loops: int = 1
    gamma_scale: float = 1.0
    tolerance: float = POPULATION_TOL

    def __post_init__(self):
        if self.scenario not in SCENARIO_IDS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIO_IDS}"
            )
        for name in ("T", "dt", "gamma_scale", "tolerance"):
            value = getattr(self, name)
            if value is None and name == "dt":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if isinstance(self.loops, bool) or not isinstance(self.loops, numbers.Integral):
            raise ConfigError(f"loops must be an integer, got {self.loops!r}")
        if not self.T > 0:
            raise ConfigError(f"T must be positive, got {self.T}")
        if self.loops < 1:
            raise ConfigError(f"loops must be >= 1, got {self.loops}")
        if self.loops != 1 and self.scenario not in CYCLIC_IDS:
            raise ConfigError(f"loops must be 1 for a two-level scenario, got {self.loops}")
        if self.dt is not None and not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.tolerance > 0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")

    def resolved_dt(self) -> float:
        return self.dt if self.dt is not None else self.T / DEFAULT_STEPS_PER_T


@dataclass(frozen=True)
class CheckResult:
    """One recorded acceptance check; ``passed`` is derived from the numbers."""

    name: str
    value: float
    threshold: float
    mode: str  # 'below': value <= threshold; 'above': value > threshold
    passed: bool

    @staticmethod
    def below(name: str, value: float, threshold: float) -> "CheckResult":
        return CheckResult(name, float(value), float(threshold), "below",
                           bool(value <= threshold))

    @staticmethod
    def above(name: str, value: float, threshold: float) -> "CheckResult":
        return CheckResult(name, float(value), float(threshold), "above",
                           bool(value > threshold))

    def describe(self) -> str:
        rel = "<=" if self.mode == "below" else ">"
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.value:.6e} {rel} {self.threshold:.6e}"


@dataclass
class RunReport:
    """Everything a scenario run measured, plus derived pass/fail verdicts."""

    config: ScenarioConfig
    trajectory: StateTrajectory
    phase: PhaseFunctional
    residuals: dict[str, float]
    checkpoints: dict[str, float]
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self) -> list[str]:
        return [c.describe() for c in self.checks]


# ---------------------------------------------------------------------------
# two-level scenarios


@dataclass(frozen=True)
class TwoLevelScenario:
    """Frame motion and task of one two-level transfer.

    ``passage`` picks the space: 'ket' rides the last frame vector under
    ``H``, 'bra' the first under ``H^dag``.  ``gamma_ratio`` slaves the
    gain/loss rate to the frame motion, ``gamma = gamma_ratio * theta_dot``.
    """

    theta: Callable
    theta_dot: Callable
    initial_level: int
    target_level: int
    passage: str
    varphi: float = np.pi / 2
    gamma_ratio: float = 2.0


def two_level_scenario(scenario_id: str, T: float) -> TwoLevelScenario:
    """The built-in two-level transfer tasks (a)-(d)."""
    quarter = np.pi / (4.0 * T)

    if scenario_id == "two_level_a":
        # |1> -> |0> riding the ket passage; theta: 0 -> -pi/2
        return TwoLevelScenario(
            theta=lambda t: -(quarter * (np.asarray(t, float) - T) + np.pi / 4),
            theta_dot=lambda t: np.full_like(np.asarray(t, float), -quarter),
            initial_level=1, target_level=0, passage="ket",
        )
    if scenario_id == "two_level_b":
        # |0> -> |1> riding the ket passage; theta: -pi/2 -> 0
        return TwoLevelScenario(
            theta=lambda t: quarter * (np.asarray(t, float) - T) - np.pi / 4,
            theta_dot=lambda t: np.full_like(np.asarray(t, float), quarter),
            initial_level=0, target_level=1, passage="ket",
        )
    if scenario_id == "two_level_c":
        # |1> -> |0> riding the bra passage; theta: -pi/2 -> 0, sinusoidal
        def theta(t):
            return -(np.pi / 2) * np.sin(quarter * (np.asarray(t, float) + 2 * T))

        def theta_dot(t):
            return -(np.pi / 2) * quarter * np.cos(quarter * (np.asarray(t, float) + 2 * T))

        return TwoLevelScenario(
            theta=theta, theta_dot=theta_dot,
            initial_level=1, target_level=0, passage="bra",
        )
    if scenario_id == "two_level_d":
        # |0> -> |1> riding the bra passage; theta: 0 -> -pi/2, sinusoidal
        def theta(t):
            return (np.pi / 2) * np.cos(quarter * (np.asarray(t, float) + 2 * T))

        def theta_dot(t):
            return -(np.pi / 2) * quarter * np.sin(quarter * (np.asarray(t, float) + 2 * T))

        return TwoLevelScenario(
            theta=theta, theta_dot=theta_dot,
            initial_level=0, target_level=1, passage="bra",
        )
    raise ConfigError(f"not a built-in two-level scenario: {scenario_id!r}; "
                      "pass a TwoLevelScenario to run_two_level")


def _zero(t):
    return np.zeros_like(np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# the stage model


@dataclass(frozen=True)
class _Stage:
    """One smooth passage of a run: its grid, frame, drives, and generator.

    ``passage`` names the space that carries the state ('ket' under ``H``,
    'bra' under ``H^dag``) and ``target`` the level the stage ends on.
    """

    grid: TimeGrid
    frame_params: TwoLevelFrameParams | ThreeLevelFrameParams
    frame: AncillaryFrame
    controls: TwoLevelControls | ThreeLevelControls
    H: TimeDependentOperator
    passage: str
    target: int


def _two_level_stage(scenario: TwoLevelScenario, T: float, dt: float,
                     gamma_scale: float) -> _Stage:
    ratio = scenario.gamma_ratio * gamma_scale

    def gamma(t):
        return ratio * np.asarray(scenario.theta_dot(t))

    params = TwoLevelFrameParams(scenario.theta, scenario.theta_dot, _zero, _zero)
    grid = TimeGrid(0.0, 2.0 * T, dt)
    controls = synthesize_two_level(
        params, gamma0=gamma, gamma1=gamma, xi0=-np.pi / 2, xi1=np.pi / 2,
        delta=0.0, varphi=scenario.varphi, grid=grid)
    return _Stage(grid, params, two_level_frame(params), controls,
                  two_level_hamiltonian(controls), scenario.passage, scenario.target_level)


def _cyclic_stage(stage: ScheduleStage, target: int, dt: float,
                  gamma_scale: float) -> _Stage:

    def gamma(t):
        return 3.0 * gamma_scale * np.asarray(stage.theta_dot(t))

    def gamma_e(t):
        return 0.5 * gamma(t)

    params = ThreeLevelFrameParams(stage.theta, stage.theta_dot, _zero, _zero,
                                   stage.phi_mix, stage.phi_mix_dot, _zero, _zero)
    grid = TimeGrid(stage.start, stage.end, dt)
    controls = synthesize_three_level(
        params, gamma0=gamma, gamma1=gamma, gamma_e=gamma_e,
        xi0=-np.pi / 2, xi1=np.pi / 2, xi_e=stage.xi_e, delta0=0.0, delta1=0.0,
        delta_e=0.0, varphi=np.pi / 2, varphi_a=np.pi / 2, grid=grid)
    return _Stage(grid, params, three_level_frame(params), controls,
                  three_level_hamiltonian(controls), stage.passage, target)


#: Stage-end target level (index into |0>, |1>, |e>) for each direction.
_CYCLE_TARGETS = {"cw": (2, 1, 0), "ccw": (1, 2, 0)}


def _stages(config: ScenarioConfig, scenario: TwoLevelScenario | None = None,
            gamma_scale: float | None = None) -> list[_Stage]:
    """The stages of a run: one for a two-level task, three per loop for a cyclic one.

    ``gamma_scale`` overrides the config's (0 gives the Hermitian limit).
    """
    dt = config.resolved_dt()
    if gamma_scale is None:
        gamma_scale = config.gamma_scale
    if config.scenario not in CYCLIC_IDS:
        if scenario is None:
            scenario = two_level_scenario(config.scenario, config.T)
        return [_two_level_stage(scenario, config.T, dt, gamma_scale)]
    direction = "cw" if config.scenario == "cyclic_cw" else "ccw"
    make = clockwise_schedule if direction == "cw" else counterclockwise_schedule
    return [
        _cyclic_stage(stage, target, dt, gamma_scale)
        for k in range(1, config.loops + 1)
        for stage, target in zip(make(k, config.T).stages, _CYCLE_TARGETS[direction])
    ]


def _drive_scaled(stage: _Stage, drive_scale: float) -> TimeDependentOperator:
    """The stage's generator with its synthesized envelope ``omega`` (all drives
    but the inner ``omega_a`` of a three-level stage) multiplied by
    ``drive_scale``, so the stage's frame no longer triangularizes it."""
    omega = stage.controls.omega
    controls = replace(stage.controls, omega=lambda t: drive_scale * np.asarray(omega(t)))
    return (two_level_hamiltonian if stage.H.dim == 2 else three_level_hamiltonian)(controls)


# ---------------------------------------------------------------------------
# the runner


def _passage_fidelity_error(
    traj: StateTrajectory, frame: AncillaryFrame, phase: PhaseFunctional, passage: str
) -> float:
    """Max 2-norm gap between the simulated state and the phase-dressed passage."""
    mus = frame.sample(traj.times)[:, :, frame.dim - 1 if passage == "ket" else 0]
    c0 = np.vdot(mus[0], traj.states[0])
    dressed = (c0 * np.exp(-1j * (phase.f_real + 1j * phase.f_imag)))[:, None] * mus
    return float(np.max(np.linalg.norm(traj.states - dressed, axis=1)))


def _step_check(states: np.ndarray, fine: np.ndarray) -> float:
    """Max population change at shared grid points when the run is repeated at dt/2.

    ``fine`` holds the dt/2 re-run's states at the run's grid points.
    Raises :class:`StepSizeError` above :data:`STEP_CHECK_TOL`, and on a
    NaN shift (an overflowed run).
    """
    delta = float(np.max(np.abs(np.abs(states) ** 2 - np.abs(fine) ** 2)))
    if not delta <= STEP_CHECK_TOL:
        raise StepSizeError(
            f"dt/2 re-run moved a population by {delta:.3e} "
            f"(> {STEP_CHECK_TOL:g}); decrease dt"
        )
    return delta


def _march_halved(stages: list[_Stage], psi: np.ndarray) -> np.ndarray:
    """The dt/2 re-run of the stages, joined, at the run's own grid points."""
    parts = []
    for stage in stages:
        H = stage.H if stage.passage == "ket" else stage.H.adjoint()
        parts.append(evolve_ket_halved(H, psi, stage.grid).states)
        psi = parts[-1][-1]
    return _joined(parts)


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """Per-stage arrays end to end, each later stage without its shared first point."""
    return np.concatenate([parts[0]] + [p[1:] for p in parts[1:]])


def _run(config: ScenarioConfig, scenario: TwoLevelScenario | None = None,
         stages: list[_Stage] | None = None) -> RunReport:
    """March a run's stages, collect per-stage certificates, and grade the run.

    ``stages`` are built unless given.  The state is handed across stage
    boundaries verbatim (global phases included); the accumulated passage
    phase restarts at each stage, which is also how the exported
    ``f_real``/``f_imag`` columns are defined.
    """
    cyclic = config.scenario in CYCLIC_IDS
    if not cyclic and scenario is None:
        scenario = two_level_scenario(config.scenario, config.T)
    if stages is None:
        stages = _stages(config, scenario)
    psi0 = np.zeros(stages[0].H.dim, dtype=complex)
    psi0[0 if cyclic else scenario.initial_level] = 1.0
    # the dt/2 re-run goes first, on its own samples (see nhpassage.dynamics)
    fine = _march_halved(stages, psi0)
    psi, trajs, phases, tri, consistency, bio, fidelity = psi0, [], [], [], [], [], []
    for stage in stages:
        # tables of H and the frame serve the stage's sweep and certificates
        times = stage.grid.times()
        H, frame = stage.H.tabulated(_sample_times(times)), stage.frame.tabulated(times)
        traj = (evolve_ket if stage.passage == "ket" else evolve_bra)(H, psi, stage.grid)
        psi = traj.states[-1]
        two = H.dim == 2
        phase_fn = phase_two_level if two else phase_three_level
        consistency_fn = two_level_consistency_residual if two else three_level_consistency_residual
        phases.append(phase_fn(stage.controls, stage.frame_params, stage.grid, stage.passage))
        trajs.append(traj)
        tri.append(triangularization_residual(H, frame, stage.grid))
        consistency.append(consistency_fn(stage.controls, stage.frame_params, stage.grid))
        bio.append(biorthogonality_defect(H, stage.grid))
        fidelity.append(_passage_fidelity_error(traj, frame, phases[-1], stage.passage))
        del H, frame  # before the next stage's tables are built
    states = _joined([t.states for t in trajs])
    step_delta = _step_check(states, fine)

    times = _joined([t.times for t in trajs])
    grid = TimeGrid(stages[0].grid.t0, stages[-1].grid.tf, config.resolved_dt(),
                    stage_boundaries=tuple(s.grid.tf for s in stages[:-1]))
    traj = StateTrajectory(grid=grid, times=times, states=states)
    phase = PhaseFunctional(times=times, f_real=_joined([p.f_real for p in phases]),
                            f_imag=_joined([p.f_imag for p in phases]))
    residuals = {
        "triangularization": max(tri),
        "consistency": max(consistency),
        "biorthogonality": max(bio),
        "passage_fidelity": max(fidelity),
        "step_check": step_delta,
    }
    scenario_checks = _cyclic_checks if cyclic else _two_level_checks
    checkpoints, checks = scenario_checks(config, stages, trajs, traj)
    checks += [CheckResult.below(name, value, threshold) for name, value, threshold in (
        ("stage_end_f_imag", max(abs(float(p.f_imag[-1])) for p in phases), STAGE_PHASE_TOL),
        ("phase_norm_identity",
         float(np.max(np.abs(np.exp(phase.f_imag) - traj.vector_norm()))), config.tolerance),
        ("triangularization_residual", residuals["triangularization"], RESIDUAL_TOL),
        ("consistency_residual", residuals["consistency"], CONSISTENCY_TOL),
        ("biorthogonality_defect", residuals["biorthogonality"], POPULATION_TOL),
        ("passage_fidelity", residuals["passage_fidelity"], POPULATION_TOL),
        ("step_halving_shift", step_delta, STEP_CHECK_TOL),
    )]
    return RunReport(config=config, trajectory=traj, phase=phase,
                     residuals=residuals, checkpoints=checkpoints, checks=checks)


def _two_level_checks(config, stages, trajs, traj):
    """Checkpoints and checks of a two-level transfer: target and norm at 2T."""
    end = traj.populations[-1]
    checkpoints = {
        "P0_end": float(end[0]),
        "P1_end": float(end[1]),
        "total_end": float(traj.total_norm[-1]),
        "total_min": float(np.min(traj.total_norm)),
    }
    target, tol = stages[0].target, config.tolerance
    return checkpoints, [
        CheckResult.below(f"target_population_P{target}(2T)", abs(end[target] - 1.0), tol),
        CheckResult.below("final_total_norm", abs(traj.total_norm[-1] - 1.0), tol),
        CheckResult.below("mid_evolution_norm_dip", checkpoints["total_min"], 1.0 - NORM_DIP),
    ]


def _cyclic_checks(config, stages, trajs, traj):
    """Checkpoints and checks of cyclic loops: every stage end, the bra stages,
    the clockwise transient, and loop-to-loop periodicity."""
    T, tol = config.T, config.tolerance
    ends = np.array([t.populations[-1] for t in trajs])
    checkpoints = {"total_min": float(np.min(traj.total_norm))}
    checks = []
    for i, (stage, pops) in enumerate(zip(stages, ends)):
        level = stage.target
        key = f"loop{i // 3 + 1}_stage{i % 3 + 1}"
        checkpoints[f"{key}_P{level}"] = float(pops[level])
        checkpoints[f"{key}_total"] = float(pops.sum())
        checks.append(CheckResult.below(
            f"{key}_P{level}(t={2.0 * (i + 1):g}T)", abs(pops[level] - 1.0), tol))
        checks.append(CheckResult.below(f"{key}_total_norm", abs(pops.sum() - 1.0), tol))

    bra_pe = max([0.0] + [float(np.max(t.populations[:, 2]))
                          for stage, t in zip(stages, trajs) if stage.passage == "bra"])
    checks.append(CheckResult.below("mid_evolution_norm_dip", checkpoints["total_min"],
                                    1.0 - NORM_DIP))
    checks.append(CheckResult.below("bra_stage_Pe_max", bra_pe, 1e-8))
    if config.scenario == "cyclic_cw" and config.gamma_scale == 1.0:
        try:  # asserted only where 1.6T lies on the grid
            idx = traj.grid.index_of(1.6 * T)
            p1 = checkpoints["P1_at_1.6T"] = float(traj.populations[idx, 1])
            checks.append(CheckResult.below("transient_P1(1.6T)_vs_0.07", abs(p1 - 0.07), 0.02))
        except GridError:
            pass
    if config.loops >= 2:
        drift = float(np.max(np.abs(ends[3:] - ends[:-3])))
        checkpoints["loop_periodicity_drift"] = drift
        checks.append(CheckResult.below("loop_periodicity", drift, tol))
    return checkpoints, checks


def run_two_level(
    config: ScenarioConfig, scenario: TwoLevelScenario | None = None
) -> RunReport:
    """Simulate one two-level transfer and grade it.

    ``scenario`` overrides the built-in lookup (use ``config.scenario =
    'custom'`` for fully caller-defined tasks).  Raises
    :class:`StepSizeError` when the dt/2 self-check fails and propagates
    synthesis errors for inconsistent inputs.
    """
    return _run(config, scenario)


def run_cyclic(config: ScenarioConfig) -> RunReport:
    """Simulate clockwise or counterclockwise cyclic transfer loops and grade them."""
    return _run(config)


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Simulate any built-in scenario and grade it."""
    return _run(config)


# ---------------------------------------------------------------------------
# verification suite


def _misaligned_frame(dim: int, T: float, seed: int = 12345) -> AncillaryFrame:
    """A smooth deterministic frame that satisfies no passage condition."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, size=4) / T
    c = rng.uniform(0.2, 0.6, size=4)

    def wobble(i, offset):
        return (lambda t: offset + c[i] * np.sin(w[i] * np.asarray(t, float)),
                lambda t: c[i] * w[i] * np.cos(w[i] * np.asarray(t, float)))

    theta, theta_dot = wobble(0, 0.4)
    if dim == 2:
        return two_level_frame(TwoLevelFrameParams(theta, theta_dot, _zero, _zero))
    phi_mix, phi_mix_dot = wobble(1, 0.7)
    return three_level_frame(ThreeLevelFrameParams(
        theta, theta_dot, _zero, _zero, phi_mix, phi_mix_dot, _zero, _zero))


def _failed_check(what: str, exc: PassageError) -> CheckResult:
    return CheckResult.below(f"{what}_failed ({exc})", 1.0, 0.0)


def _placeholder_report(config: ScenarioConfig, exc: PassageError) -> RunReport:
    """An all-zero report shaped like the scenario's run, carrying the failure."""
    if config.scenario in CYCLIC_IDS:
        dim, span = 3, 6.0 * config.loops * config.T
    else:
        dim, span = 2, 2.0 * config.T
    # the span divided into the nearest whole number of steps, so the
    # placeholder exists even when the configured dt does not divide it
    n_steps = max(1, round(span / config.resolved_dt()))
    grid = TimeGrid(0.0, span, span / n_steps)
    zeros = np.zeros(n_steps + 1)
    return RunReport(
        config=config,
        trajectory=StateTrajectory(grid=grid, times=grid.times(),
                                   states=np.zeros((n_steps + 1, dim), complex)),
        phase=PhaseFunctional(times=grid.times(), f_real=zeros, f_imag=zeros),
        residuals={}, checkpoints={},
        checks=[_failed_check("run", exc)],
    )


def _perturbed_omega_checks(stages: list[_Stage]):
    perturbed = min(triangularization_residual(_drive_scaled(s, 1.01), s.frame, s.grid)
                    for s in stages)
    return ([CheckResult.above("perturbed_omega_breaks_triangularization", perturbed, 1e-3)],
            {"perturbed_triangularization": perturbed})


def _hermitian_limit_checks(config: ScenarioConfig):
    stages = _stages(config, gamma_scale=0.0)
    bad_frame = _misaligned_frame(stages[0].H.dim, config.T)
    scans = []
    for s in stages:  # one zero-gain H table and one table per frame per stage
        times = s.grid.times()
        H, frame, bad = s.H.tabulated(times), s.frame.tabulated(times), bad_frame.tabulated(times)
        scans.append([residual(H, f, s.grid) for f in (frame, bad)
                      for residual in (triangularization_residual, von_neumann_residual)])
    tri_h, von_h, tri_bad, von_bad = zip(*scans)
    checks = [
        CheckResult.below("hermitian_limit_triangularization", max(tri_h), RESIDUAL_TOL),
        CheckResult.below("hermitian_limit_von_neumann", max(von_h), RESIDUAL_TOL),
        CheckResult.above("misaligned_frame_triangularization", min(tri_bad), 1e-3),
        CheckResult.above("misaligned_frame_von_neumann", min(von_bad), 1e-3),
    ]
    return checks, {"hermitian_triangularization": max(tri_h),
                    "hermitian_von_neumann": max(von_h)}


def _random_biorthogonality_checks(config: ScenarioConfig):
    dim = 2 if config.scenario in TWO_LEVEL_IDS else 3
    rng = np.random.default_rng(987 + dim)
    rand = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H_rand = constant_operator(rand / np.linalg.norm(rand, 2))
    grid_rand = TimeGrid(0.0, 2.0, 1e-3)
    checks = [CheckResult.below(
        "biorthogonality_random_generator",
        biorthogonality_defect(H_rand, grid_rand), POPULATION_TOL)]
    return checks, {}


def _series_order_fit(h: np.ndarray) -> float:
    """Fitted convergence order of the order-4 series truncation of one constant
    generator ``h``, from its error against RK4 at the horizons ``1/|h|`` and half that.

    The fit is scale-free (``c h`` on ``tau / c`` is the same problem), so no
    floor on ``|h|`` is needed; ``h = 0`` has no error to fit and gives inf.
    """
    norm = float(np.linalg.norm(h, 2))
    if norm == 0.0:
        return np.inf
    H = constant_operator(h)
    span = 1.0 / norm
    errs = []
    for tau in (span, span / 2.0):
        steps = max(200, int(round(tau / (span / 400.0))))
        ref = propagator_ket(H, TimeGrid(0.0, tau, tau / steps))[-1]
        approx = dyson_truncation(H, tau, order=4, quadrature_steps=64)
        errs.append(np.max(np.abs(ref - approx)))
    return np.inf if errs[1] == 0.0 else float(np.log2(errs[0] / errs[1]))


def _dyson_checks(config: ScenarioConfig, stages: list[_Stage]):
    """Fitted convergence order of the order-4 series truncation under horizon
    halving, on a frozen sample 0.6T into every stage of the run: ``H`` for a
    ket stage, ``H^dag`` for a bra stage.  The check reports the worst stage."""
    fits = []
    for stage in stages:
        H = stage.H if stage.passage == "ket" else stage.H.adjoint()
        fits.append(_series_order_fit(H.sample(np.array([stage.grid.t0 + 0.6 * config.T]))[0]))
    order = float(np.min(fits))
    return ([CheckResult.above("dyson_truncation_order_fit", order, 4.5)],
            {"dyson_order_fit": order})


def verify(config: ScenarioConfig) -> RunReport:
    """Run the full residual suite for a scenario; failures are data, not errors.

    Extends the scenario run with negative controls on every stage (a 1%
    drive perturbation must break triangularization, a misaligned frame
    must fail both residuals), the Hermitian zero-gain limit of every stage
    where the projector commutation law must hold, a biorthogonality scan
    of paired random evolutions, and a short-horizon series-truncation
    order fit on a frozen sample of every stage, ket and bra, by nested
    Simpson quadrature.  Each control check reports its worst stage.  The
    run, the perturbation and the series oracle read one synthesis of the
    stages.  A run or certificate group that raises a :class:`PassageError`
    (its stages' build included) is recorded as one failed check; a failed
    run leaves an all-zero trajectory of the scenario's shape.
    """
    # a build that raises is not cached: each group that reads it records it
    stages = functools.cache(lambda: _stages(config))
    try:
        report = _run(config, stages=stages())
    except PassageError as exc:
        report = _placeholder_report(config, exc)
    checks = list(report.checks)

    for group, certify in (
        ("perturbed_omega", lambda: _perturbed_omega_checks(stages())),
        ("hermitian_limit", lambda: _hermitian_limit_checks(config)),
        ("biorthogonality_random", lambda: _random_biorthogonality_checks(config)),
        ("dyson_truncation", lambda: _dyson_checks(config, stages())),
    ):
        try:
            group_checks, group_residuals = certify()
        except PassageError as exc:
            group_checks, group_residuals = [_failed_check(group, exc)], {}
        checks.extend(group_checks)
        report.residuals.update(group_residuals)
    report.checks = checks
    return report
