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
``H^dag``) that carries the state, and the level it ends on; stage ``i`` of a
run spans ``[2iT, 2(i+1)T]``.  The built-ins are stage lists read from two
tables, each by its family's stage builder: a two-level task is one stage
(frame angle, initial and target level, passage), a cyclic task three per
loop (per stage, the time the affine angles pass their offsets, the
``phi_mix`` offset, the passage, the third level's gain/loss phase and the
target); rates and local phases that do not move are constants
(:class:`~nhpassage.dynamics._Constant`).  One runner, :func:`run_scenario`
(also bound as ``run_two_level`` and ``run_cyclic``), marches the stages.
For each, the dt/2 re-run goes first (the batched scan of
:func:`~nhpassage.dynamics.evolve_ket_halved` on its own samples of ``H``,
handing its own state across the boundaries), then the sweep on its own
samples, handing the state across each boundary verbatim, then one
certificate pass (:func:`_certify`): a chunk of steps at a time, sets on its
grid points and midpoints and on its grid points give every certificate its
samples.  A stage keeps its states and phase, written into the run's arrays,
and one record: the pass's certificate values, its dt/2 shift and the
consistency residual synthesis recorded.  The run folds its stages' records
once, each value to its largest, and fails if the folded shift (a NaN
included) exceeds the step-check tolerance; it then packages the trajectory,
passage phase, checkpoint populations and checks into a :class:`RunReport`.
The checks are the report's only record of each certificate: a per-stage
value is folded over the stages by ``np.max`` (``np.min`` for a control that
must fail), so a NaN on any stage is the check's value and fails it.
:func:`verify` is :func:`run_scenario` plus four control groups, each a
function of the config that builds the stages it reads: the series oracle, a
1% drive error (scanned by ``triangularization_residual``), the Hermitian
limit at zero gain, and a random generator.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (
    StateTrajectory,
    TimeDependentOperator,
    TimeGrid,
    _MAX_STEPS,
    _chunks, _Constant, _defect, _Derived, _increments, _put, _Samples,
    _sample_times, _scan_blocks, _time_last,
    biorthogonality_defect,
    constant_operator,
    dyson_truncation,
    evolve_bra,
    evolve_ket,
    evolve_ket_halved,
    propagator_ket,
)
from .exceptions import ConfigError, GridError, PassageError, StepSizeError
from .frames import (  # von_neumann_residual, unlike the called triangularization_residual,
    # stays bound only for perfbench's tracer
    AncillaryFrame,
    ThreeLevelFrameParams,
    TwoLevelFrameParams,
    _residuals, _triangularization,
    three_level_frame,
    triangularization_residual,
    two_level_frame,
    von_neumann_residual,
)
from .synthesis import (  # the phase and consistency names stay bound for perfbench's tracer
    CONSISTENCY_TOL,
    PhaseFunctional,
    ThreeLevelControls,
    TwoLevelControls,
    _accumulate_simpson, _passage_rates,
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
SCENARIO_IDS = TWO_LEVEL_IDS + CYCLIC_IDS


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of a reproducible scenario run.

    ``dt`` defaults to ``T / 2000``.  At ``gamma_scale`` 1 that passes the
    dt/2 self-check for every two-level built-in, for ``cyclic_ccw`` up to
    loops = 5 and for ``cyclic_cw`` up to loops = 8.  It fails from
    loops = 6 for ``cyclic_ccw`` (a shift of 6.4e-8 against
    ``STEP_CHECK_TOL`` 1e-8) and from loops = 9 for ``cyclic_cw`` (3.0e-8;
    1.4e-7 at loops = 10): the shift is amplified rounding that grows each
    loop, so a smaller ``dt`` does not bring it back.  ``gamma_scale``
    multiplies the scenario's gain/loss-to-frame-rate ratio (1.0 is the
    reference setting; checkpoint transients are only asserted there).  One
    at or below 0 is data, not a :class:`ConfigError`, since ``verify``'s
    Hermitian limit validates ``replace(config, gamma_scale=0.0)``: a
    built-in run at -0.5, -1e-3 or 0 raises nothing and fails only
    ``mid_evolution_norm_dip``, its norm staying about 1.  ``loops`` counts
    cyclic loops; a two-level task is one stage, so it must be 1 there.
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
        if self.loops > sys.float_info.max:  # the run's length would not be a float
            raise ConfigError(f"loops must be below {sys.float_info.max:.4g}, "
                              f"got an integer of {int(self.loops).bit_length()} bits")
        if self.loops != 1 and self.scenario not in CYCLIC_IDS:
            raise ConfigError(f"loops must be 1 for a two-level scenario, got {self.loops}")
        if not self.resolved_dt() > 0:  # T / DEFAULT_STEPS_PER_T can underflow to 0
            raise ConfigError(f"dt must be positive, got {self.resolved_dt()}")
        steps = self._span() / self.resolved_dt()
        if not math.isfinite(steps):
            raise ConfigError(f"dt = {self.resolved_dt()} is too small for T = {self.T}: "
                              "the run's step count overflows")
        if steps > _MAX_STEPS:
            raise ConfigError(f"a run of length {self._span():.4g} at dt = {self.resolved_dt()} "
                              f"takes {steps:.3g} steps, more than numpy can index")
        if not self.tolerance > 0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")

    def resolved_dt(self) -> float:
        return self.dt if self.dt is not None else self.T / DEFAULT_STEPS_PER_T

    def _span(self) -> float:
        """The run's length: 2T for a two-level task, 6T per cyclic loop."""
        return 6.0 * self.loops * self.T if self.scenario in CYCLIC_IDS else 2.0 * self.T


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
    """Everything a scenario run measured; each certificate is one of its ``checks``."""

    config: ScenarioConfig
    trajectory: StateTrajectory
    phase: PhaseFunctional
    checkpoints: dict[str, float]
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self) -> list[str]:
        return [c.describe() for c in self.checks]


_zero = _Constant(0.0)


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


def _affine(slope: float, t_ref: float, offset: float):
    """A frame angle of constant rate ``slope`` through ``offset`` at ``t_ref``, and its rate."""
    return (lambda t: slope * (np.asarray(t, dtype=float) - t_ref) + offset), _Constant(slope)


def _quarter_wave(T: float, sine: bool):
    """The frame angle of task (c) (``sine``) or (d), a quarter period of a
    sinusoid of amplitude pi/2 over ``[0, 2T]``, and its rate."""
    quarter = np.pi / (4.0 * T)

    def phase(t):
        return quarter * (np.asarray(t, float) + 2 * T)

    if sine:
        return (lambda t: -(np.pi / 2) * np.sin(phase(t)),
                lambda t: -(np.pi / 2) * quarter * np.cos(phase(t)))
    return (lambda t: (np.pi / 2) * np.cos(phase(t)),
            lambda t: -(np.pi / 2) * quarter * np.sin(phase(t)))


#: The two-level tasks: (frame angle and rate at a given T, initial level,
#: target level, passage).  The gain/loss rate is ``2 theta_dot``.
_TWO_LEVEL_TASKS = {
    # |1> -> |0> on the ket passage; theta: 0 -> -pi/2
    "two_level_a": (lambda T: _affine(-np.pi / (4.0 * T), T, -np.pi / 4), 1, 0, "ket"),
    # |0> -> |1> on the ket passage; theta: -pi/2 -> 0
    "two_level_b": (lambda T: _affine(np.pi / (4.0 * T), T, -np.pi / 4), 0, 1, "ket"),
    # |1> -> |0> on the bra passage; theta: -pi/2 -> 0
    "two_level_c": (lambda T: _quarter_wave(T, sine=True), 1, 0, "bra"),
    # |0> -> |1> on the bra passage; theta: 0 -> -pi/2
    "two_level_d": (lambda T: _quarter_wave(T, sine=False), 0, 1, "bra"),
}
#: The cyclic tasks, each a loop from |0> run ``loops`` times: the sign of the
#: theta slope, and per stage (r, phi_mix offset, passage, xi_e, target level).
#: In loop k both angles move at pi/(4T), phi_mix always upwards, and pass
#: through their offsets (theta's is 0) at ``2 (3k - r) T``; ``xi_e``, the
#: third level's gain/loss phase, flips sign in the middle stage.  The gain/loss
#: rate is ``3 theta_dot``, half that on |e>.
_CYCLES = {
    # |0> -> |e> -> |1> -> |0>: two ket passages, then a bra one that never touches |e>
    "cyclic_cw": (1.0, ((2, 0.0, "ket", np.pi / 2, 2),
                        (1, -np.pi / 2, "ket", -np.pi / 2, 1),
                        (2, np.pi / 2, "bra", np.pi / 2, 0))),
    # |0> -> |1> -> |e> -> |0>: a bra passage, then two ket ones
    "cyclic_ccw": (-1.0, ((3, 0.0, "bra", np.pi / 2, 1),
                          (2, -np.pi / 2, "ket", -np.pi / 2, 2),
                          (1, np.pi, "ket", np.pi / 2, 0))),
}


def _two_level_stage(grid: TimeGrid, theta, theta_dot, passage: str, target: int,
                     gamma_scale: float) -> _Stage:
    """A two-level stage on ``grid`` at frame angle ``theta``: the gain/loss rate
    is ``gamma_scale`` times ``2 theta_dot``, and other local phases are zero."""
    gamma = _Derived(lambda s: 2.0 * gamma_scale * s(theta_dot))
    params = TwoLevelFrameParams(theta, theta_dot, _zero, _zero)
    controls = synthesize_two_level(
        params, gamma0=gamma, gamma1=gamma, xi0=-np.pi / 2, xi1=np.pi / 2,
        delta=0.0, varphi=np.pi / 2, grid=grid)
    return _Stage(grid, params, two_level_frame(params), controls,
                  two_level_hamiltonian(controls), passage, target)


def _three_level_stage(grid: TimeGrid, theta, theta_dot, phi_mix, phi_mix_dot,
                       passage: str, target: int, gamma_scale: float, xi_e: float) -> _Stage:
    """A three-level stage on ``grid`` at frame angles ``theta`` and ``phi_mix``,
    the third level's gain/loss phase ``xi_e``: the gain/loss rate is
    ``gamma_scale`` times ``3 theta_dot``, half that on |e>, and other local
    phases are zero."""
    gamma = _Derived(lambda s: 3.0 * gamma_scale * s(theta_dot))
    gamma_e = _Derived(lambda s: 0.5 * s(gamma))
    params = ThreeLevelFrameParams(theta, theta_dot, _zero, _zero,
                                   phi_mix, phi_mix_dot, _zero, _zero)
    controls = synthesize_three_level(
        params, gamma0=gamma, gamma1=gamma, gamma_e=gamma_e,
        xi0=-np.pi / 2, xi1=np.pi / 2, xi_e=xi_e, delta0=0.0, delta1=0.0,
        delta_e=0.0, varphi=np.pi / 2, varphi_a=np.pi / 2, grid=grid)
    return _Stage(grid, params, three_level_frame(params), controls,
                  three_level_hamiltonian(controls), passage, target)


def _stages(config: ScenarioConfig) -> list[_Stage]:
    """The stages of a run, read from the tables, stage ``i`` on ``[2iT, 2(i+1)T]``:
    one for a two-level task, three per loop for a cyclic one."""
    T, dt = config.T, config.resolved_dt()
    if config.scenario in _TWO_LEVEL_TASKS:
        angles, _, target, passage = _TWO_LEVEL_TASKS[config.scenario]
        return [_two_level_stage(TimeGrid(0.0, 2.0 * T, dt), *angles(T), passage, target,
                                 config.gamma_scale)]
    sign, loop = _CYCLES[config.scenario]
    quarter = np.pi / (4.0 * T)
    stages = []
    for k in range(1, config.loops + 1):
        for r, offset, passage, xi_e, target in loop:
            i, t_ref = len(stages), 2.0 * (3 * k - r) * T
            angles = _affine(sign * quarter, t_ref, 0.0) + _affine(quarter, t_ref, offset)
            stages.append(_three_level_stage(TimeGrid(2.0 * i * T, 2.0 * (i + 1) * T, dt),
                                             *angles, passage, target, config.gamma_scale,
                                             xi_e))
    return stages


def _drive_scaled(stage: _Stage, drive_scale: float) -> TimeDependentOperator:
    """The stage's generator with its synthesized envelope ``omega`` (all drives
    but the inner ``omega_a`` of a three-level stage) multiplied by
    ``drive_scale``, so the stage's frame no longer triangularizes it."""
    omega = stage.controls.omega
    controls = replace(stage.controls, omega=_Derived(lambda s: drive_scale * s(omega)))
    return (two_level_hamiltonian if stage.H.dim == 2 else three_level_hamiltonian)(controls)


# ---------------------------------------------------------------------------
# the runner


def _step_check(shift: np.float64) -> None:
    """Raise :class:`StepSizeError` when the run's dt/2 shift, the largest of its
    stages' (folded with their other records), exceeds :data:`STEP_CHECK_TOL`,
    or is NaN (an overflowed run in any stage)."""
    if not shift <= STEP_CHECK_TOL:
        raise StepSizeError(
            f"dt/2 re-run moved a population by {shift:.3e} "
            f"(> {STEP_CHECK_TOL:g}); decrease dt"
        )


def _sweep(stage: _Stage, psi_fine: np.ndarray,
           out: np.ndarray) -> tuple[np.ndarray, np.float64]:
    """The stage's states from ``out[0]``, written into ``out``, after its dt/2
    re-run from ``psi_fine``; returns the re-run's end state and the stage's
    dt/2 shift, the largest population change at its grid points read from
    both trajectories' populations, so the re-run's states die here."""
    ket = stage.passage == "ket"
    # the dt/2 re-run goes first, on its own samples (see nhpassage.dynamics)
    fine = evolve_ket_halved(stage.H if ket else stage.H.adjoint(), psi_fine, stage.grid)
    run = (evolve_ket if ket else evolve_bra)(stage.H, out[0], stage.grid)
    out[:] = run.states
    return fine.states[-1].copy(), np.max(np.abs(run.populations - fine.populations))


def _certify(stage: _Stage, states: np.ndarray, f_real: np.ndarray, f_imag: np.ndarray,
             first: int) -> dict[str, np.float64]:
    """Every certificate of a stage whose states are ``states``, by name of its
    check, from one pass over its samples a chunk of steps at a time; the
    passage phase is written into ``f_real`` and ``f_imag`` from point ``first`` on.

    Fused, not the public calls, because one sampling feeds five certificates:
    a chunk's sample set on its grid points and RK4 midpoints gives ``H.sample``'s
    block to the triangularization residual (its grid points) and both scans
    of the biorthogonality defect, and the phase rates, each angle, gain and
    trig factor of the set evaluated once; the frame is read on a set of the
    grid points for the residual and the passage fidelity.  Chunks share their
    edge points, the phase of each starts at its predecessor's last value, and
    every number is bitwise what the public call computes on the whole stage.
    """
    grid, K = stage.grid, stage.H.dim
    times, n = grid.times(), grid.n_steps + 1
    ket = stage.passage == "ket"
    column = K - 1 if ket else 0
    FU, FV = _scan_blocks(n, K), _scan_blocks(n, K)
    tri = fidelity = np.float64(0.0)
    # four samples a step: H at its point and midpoint, the frame's two at its point
    for s0, s1 in _chunks(grid.n_steps, 4 * K * K * 16):
        ts = times[s0:s1 + 1]
        frame = stage.frame._block(ts)
        samples = _Samples(_sample_times(ts))
        hs = stage.H.sample(samples)
        tri = np.maximum(tri, _triangularization(_time_last(hs[::2]), *_time_last(frame)))
        for F, bra in ((FU, False), (FV, True)):
            _put(F, s0, _increments(hs, grid.dt, bra))
        rates = _passage_rates(stage.controls, stage.frame_params, samples, stage.passage)
        f = _accumulate_simpson(rates, ts, f[-1] if s0 else None)
        re, im = f.real, (f.imag if ket else -f.imag)  # a bra passage's is conjugated
        f_real[s0 + first:s1 + 1], f_imag[s0 + first:s1 + 1] = re[first:], im[first:]
        # the max 2-norm gap between the states and the phase-dressed passage
        mus = frame[:, 0, :, column]
        if not s0:
            c0 = np.vdot(mus[0], states[0])
        dressed = (c0 * np.exp(-1j * (re + 1j * im)))[:, None] * mus
        fidelity = np.maximum(fidelity,
                              np.max(np.linalg.norm(states[s0:s1 + 1] - dressed, axis=1)))
    return {"stage_end_f_imag": abs(im[-1]), "triangularization_residual": tri,
            "biorthogonality_defect": _defect(FU, FV, n), "passage_fidelity": fidelity}


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Simulate a built-in scenario, two-level or cyclic: march its stages,
    collect per-stage certificates, and grade the run.

    Also bound as ``run_two_level`` and ``run_cyclic``.  Raises
    :class:`StepSizeError` when the dt/2 self-check fails and propagates
    synthesis errors for inconsistent inputs.  The state is handed across
    stage boundaries verbatim (global phases included); the accumulated passage
    phase restarts at each stage, which is also how the exported
    ``f_real``/``f_imag`` columns are defined.  Each stage writes its states
    and phase into the run's arrays, which hold a shared boundary point once,
    with the earlier stage's value.
    """
    cyclic = config.scenario in CYCLIC_IDS
    stages = _stages(config)
    starts = np.cumsum([0] + [stage.grid.n_steps for stage in stages])
    states = np.zeros((starts[-1] + 1, stages[0].H.dim), dtype=complex)
    states[0, 0 if cyclic else _TWO_LEVEL_TASKS[config.scenario][1]] = 1.0
    psi_fine = states[0].copy()  # the dt/2 re-run hands its own state across the boundaries
    f_real, f_imag = np.empty(starts[-1] + 1), np.empty(starts[-1] + 1)
    records = []
    for i, stage in enumerate(stages):
        points = slice(starts[i], starts[i + 1] + 1)
        psi_fine, shift = _sweep(stage, psi_fine, states[points])
        # the boundary point keeps the earlier stage's phase
        records.append({**_certify(stage, states[points], f_real[points], f_imag[points],
                                   1 if i else 0),
                        "step_halving_shift": shift,
                        "consistency_residual": stage.controls.consistency})
    # each per-stage value folds to its largest, a NaN in any stage included
    worst = {name: np.max([record[name] for record in records]) for name in records[0]}
    _step_check(worst["step_halving_shift"])

    grid = TimeGrid(stages[0].grid.t0, stages[-1].grid.tf, config.resolved_dt(),
                    stage_boundaries=tuple(s.grid.tf for s in stages[:-1]))
    times = np.concatenate([stages[0].grid.times()[:1]] + [s.grid.times()[1:] for s in stages])
    traj = StateTrajectory(grid=grid, times=times, states=states)
    phase = PhaseFunctional(times=times, f_real=f_real, f_imag=f_imag)
    scenario_checks = _cyclic_checks if cyclic else _two_level_checks
    checkpoints, checks = scenario_checks(config, stages, starts, traj)
    worst["phase_norm_identity"] = np.max(np.abs(np.exp(phase.f_imag) - traj.vector_norm()))
    checks += [CheckResult.below(name, worst[name], threshold) for name, threshold in (
        ("stage_end_f_imag", STAGE_PHASE_TOL),
        ("phase_norm_identity", config.tolerance),
        ("triangularization_residual", RESIDUAL_TOL),
        ("consistency_residual", CONSISTENCY_TOL),
        ("biorthogonality_defect", POPULATION_TOL),
        ("passage_fidelity", POPULATION_TOL),
        ("step_halving_shift", STEP_CHECK_TOL),
    )]
    return RunReport(config=config, trajectory=traj, phase=phase,
                     checkpoints=checkpoints, checks=checks)


def _two_level_checks(config, stages, starts, traj):
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


def _cyclic_checks(config, stages, starts, traj):
    """Checkpoints and checks of cyclic loops: every stage end, the bra stages,
    the clockwise transient, and loop-to-loop periodicity.  Stage ``i`` spans
    the run's points ``starts[i]`` to ``starts[i + 1]``."""
    T, tol = config.T, config.tolerance
    ends = traj.populations[starts[1:]]
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

    bra_pe = np.max([np.max(traj.populations[a:b + 1, 2])
                     for stage, a, b in zip(stages, starts, starts[1:])
                     if stage.passage == "bra"], initial=0.0)
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


run_two_level = run_cyclic = run_scenario


# ---------------------------------------------------------------------------
# verification suite


def _misaligned_frame(dim: int, T: float) -> AncillaryFrame:
    """A smooth deterministic frame that satisfies no passage condition."""
    rng = np.random.default_rng(12345)
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
    dim, span = (3 if config.scenario in CYCLIC_IDS else 2), config._span()
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
        checkpoints={},
        checks=[_failed_check("run", exc)],
    )


def _perturbed_omega_checks(config: ScenarioConfig) -> list[CheckResult]:
    perturbed = np.min([triangularization_residual(_drive_scaled(s, 1.01), s.frame, s.grid)
                        for s in _stages(config)])
    return [CheckResult.above("perturbed_omega_breaks_triangularization", perturbed, 1e-3)]


def _hermitian_limit_checks(config: ScenarioConfig) -> list[CheckResult]:
    """The zero-gain stages' residuals in their frames and a misaligned one, fused
    in one scan per stage: the four public residual calls would sample ``H`` four times."""
    stages = _stages(replace(config, gamma_scale=0.0))
    bad_frame = _misaligned_frame(stages[0].H.dim, config.T)
    scans = [_residuals(s.H, (s.frame, bad_frame), s.grid, von_neumann=True) for s in stages]
    tri_h, tri_bad, von_h, von_bad = zip(*scans)
    return [
        CheckResult.below("hermitian_limit_triangularization", np.max(tri_h), RESIDUAL_TOL),
        CheckResult.below("hermitian_limit_von_neumann", np.max(von_h), RESIDUAL_TOL),
        CheckResult.above("misaligned_frame_triangularization", np.min(tri_bad), 1e-3),
        CheckResult.above("misaligned_frame_von_neumann", np.min(von_bad), 1e-3),
    ]


def _random_biorthogonality_checks(config: ScenarioConfig) -> list[CheckResult]:
    dim = 3 if config.scenario in CYCLIC_IDS else 2  # as the run's placeholder
    rng = np.random.default_rng(987 + dim)
    rand = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H_rand = constant_operator(rand / np.linalg.norm(rand, 2))
    grid_rand = TimeGrid(0.0, 2.0, 1e-3)
    return [CheckResult.below("biorthogonality_random_generator",
                              biorthogonality_defect(H_rand, grid_rand), POPULATION_TOL)]


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


def _dyson_checks(config: ScenarioConfig) -> list[CheckResult]:
    """Fitted convergence order of the order-4 series truncation under horizon
    halving, on a frozen sample 0.6T into every stage of the run: ``H`` for a
    ket stage, ``H^dag`` for a bra stage.  The check reports the worst stage."""
    fits = []
    for stage in _stages(config):
        H = stage.H if stage.passage == "ket" else stage.H.adjoint()
        fits.append(_series_order_fit(H.sample(np.array([stage.grid.t0 + 0.6 * config.T]))[0]))
    return [CheckResult.above("dyson_truncation_order_fit", np.min(fits), 4.5)]


def verify(config: ScenarioConfig) -> RunReport:
    """Run the full residual suite for a scenario; failures are data, not errors.

    Extends the scenario run with negative controls on every stage (a 1%
    drive perturbation must break triangularization, a misaligned frame
    must fail both residuals), the Hermitian zero-gain limit of every stage
    where the projector commutation law must hold, a biorthogonality scan
    of paired random evolutions, and a short-horizon series-truncation
    order fit on a frozen sample of every stage, ket and bra, by nested
    Simpson quadrature.  Each control check reports its worst stage.  The
    run is :func:`run_scenario`, and each control group is a function of the
    config that builds the stages it reads.  A run or certificate group that
    raises a :class:`PassageError` (its stages' build included) is recorded as
    one failed check; a failed run leaves an all-zero trajectory of the
    scenario's shape.
    """
    try:
        report = run_scenario(config)
    except PassageError as exc:
        report = _placeholder_report(config, exc)
    checks = list(report.checks)

    for group, certify in (
        ("perturbed_omega", _perturbed_omega_checks),
        ("hermitian_limit", _hermitian_limit_checks),
        ("biorthogonality_random", _random_biorthogonality_checks),
        ("dyson_truncation", _dyson_checks),
    ):
        try:
            checks.extend(certify(config))
        except PassageError as exc:
            checks.append(_failed_check(group, exc))
    report.checks = checks
    return report
