"""Drive synthesis, accumulated phases, bra/ket phase relation, cyclic stage lists."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhpassage import (
    InvalidArgumentError,
    NonFiniteSampleError,
    PassageError,
    PhaseConsistencyError,
    ScenarioConfig,
    SingularDenominatorError,
    ThreeLevelFrameParams,
    TimeGrid,
    TwoLevelFrameParams,
    phase_three_level,
    phase_two_level,
    synthesize_three_level,
    synthesize_two_level,
    three_level_consistency_residual,
    three_level_frame,
    three_level_hamiltonian,
    triangularization_residual,
    two_level_frame,
    two_level_hamiltonian,
)
from nhpassage.scenarios import _stages
from bra_phase_reference import bra_phase_relation_check
from rotation_reference import rotated_block

T = 1.0
QUARTER = np.pi / (4 * T)


def rotated_hamiltonian(H, frame, t):
    """``Hf - A`` of the rotated generator at one time."""
    return rotated_block(H, frame, np.array([t]))[..., 0]


def frame_matrix(frame, t):
    return frame.sample(np.array([t]))[0]


def const(value):
    return lambda t: value * np.ones_like(np.asarray(t, dtype=float))


def ramp_down_params():
    """Fig.-style linear sweep theta: 0 -> -pi/2 over [0, 2T]."""
    return TwoLevelFrameParams(
        theta=lambda t: -(QUARTER * (np.asarray(t, float) - T) + np.pi / 4),
        theta_dot=lambda t: np.full_like(np.asarray(t, float), -QUARTER),
        alpha=const(0.0), alpha_dot=const(0.0),
    )


def sine_params():
    return TwoLevelFrameParams(
        theta=lambda t: -(np.pi / 2) * np.sin(QUARTER * (np.asarray(t, float) + 2 * T)),
        theta_dot=lambda t: -(np.pi / 2) * QUARTER * np.cos(
            QUARTER * (np.asarray(t, float) + 2 * T)),
        alpha=const(0.0), alpha_dot=const(0.0),
    )


GRID = TimeGrid(0.0, 2 * T, 1e-3)
STANDARD = dict(xi0=-np.pi / 2, xi1=np.pi / 2, varphi=np.pi / 2)


# ---------------------------------------------------------------------------
# two-level synthesis


def test_static_frame_without_rates_needs_no_drive():
    params = TwoLevelFrameParams(theta=const(0.4), theta_dot=const(0.0),
                                 alpha=const(0.0), alpha_dot=const(0.0))
    controls = synthesize_two_level(params, gamma0=0.0, gamma1=0.0,
                                    delta=0.0, grid=GRID, **STANDARD)
    assert np.max(np.abs(controls.omega(GRID.times()))) == 0.0


def test_balanced_gain_loss_reduces_to_simple_envelope():
    # gamma0 = gamma1 = gamma with opposite gain/loss phases:
    # Omega = -[2 theta_dot + gamma sin 2theta] / sin(varphi + alpha)
    params = sine_params()

    def gamma(t):
        return 0.9 + 0.3 * np.sin(1.3 * np.asarray(t, float))

    controls = synthesize_two_level(params, gamma0=gamma, gamma1=gamma,
                                    delta=0.0, grid=GRID, **STANDARD)
    ts = np.linspace(0.0, 2 * T, 100)
    expected = -(2 * params.theta_dot(ts) + gamma(ts) * np.sin(2 * params.theta(ts)))
    assert np.max(np.abs(controls.omega(ts) - expected)) < 1e-12


def test_reference_sweep_envelope_closed_form():
    # gamma slaved to the sweep rate, gamma = 2 theta_dot:
    # Omega(t) = -2 theta_dot [1 + sin 2theta]
    params = ramp_down_params()
    gamma = lambda t: 2.0 * params.theta_dot(t)
    controls = synthesize_two_level(params, gamma0=gamma, gamma1=gamma,
                                    delta=0.0, grid=GRID, **STANDARD)
    ts = np.linspace(0.0, 2 * T, 100)
    expected = -2.0 * params.theta_dot(ts) * (1.0 + np.sin(2 * params.theta(ts)))
    assert np.max(np.abs(controls.omega(ts) - expected)) < 1e-12


def test_singular_denominator_raises():
    with pytest.raises(SingularDenominatorError):
        synthesize_two_level(ramp_down_params(), gamma0=0.0, gamma1=0.0,
                             xi0=-np.pi / 2, xi1=np.pi / 2,
                             delta=0.0, varphi=0.0, grid=GRID)


def nan_after_half(t):
    return np.where(np.asarray(t, float) > 0.5, np.nan, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma,error,match", [
    (nan_after_half, NonFiniteSampleError, r"alpha .* t = 0\.51 is NaN or Inf"),
    (1.0, PhaseConsistencyError, r"alpha .* residual 2\.496e-02 at t = 1"),
], ids=["nan", "finite"])
def test_consistency_check_names_nan_and_finite_violations(gamma, error, match):
    # off-axis gain phases make the alpha condition bite; a NaN residual must not
    # pass the check (NaN > tol is False) nor hide the finite violation
    with pytest.raises(error, match=match):
        synthesize_two_level(ramp_down_params(), gamma0=gamma, gamma1=gamma,
                             xi0=-np.pi / 2 + 0.1, xi1=np.pi / 2, delta=0.0,
                             varphi=np.pi / 2, grid=TimeGrid(0.0, 1.0, 0.01))


def test_inconsistent_alpha_equation_raises():
    # off-axis drive phase makes the alpha condition bite; zero detuning
    # cannot satisfy it for a moving theta
    params = TwoLevelFrameParams(
        theta=lambda t: 0.7 + 0.3 * np.sin(np.asarray(t, float)),
        theta_dot=lambda t: 0.3 * np.cos(np.asarray(t, float)),
        alpha=const(0.0), alpha_dot=const(0.0),
    )
    with pytest.raises(PhaseConsistencyError):
        synthesize_two_level(params, gamma0=0.3, gamma1=0.3,
                             xi0=-np.pi / 2, xi1=np.pi / 2,
                             delta=0.0, varphi=np.pi / 4, grid=GRID)


def consistent_offaxis_inputs(seed=0):
    """Random smooth inputs with the detuning solved from the alpha condition."""
    rng = np.random.default_rng(seed)
    w, amp, a_rate = rng.uniform(0.6, 1.4), rng.uniform(0.1, 0.3), rng.uniform(-0.3, 0.3)
    varphi = rng.uniform(0.6, 1.2)
    params = TwoLevelFrameParams(
        theta=lambda t: 0.7 + amp * np.sin(w * np.asarray(t, float)),
        theta_dot=lambda t: amp * w * np.cos(w * np.asarray(t, float)),
        alpha=lambda t: a_rate * np.asarray(t, float),
        alpha_dot=const(a_rate),
    )

    def gamma(t):
        return 0.4 + 0.2 * np.cos(0.8 * np.asarray(t, float))

    def omega_formula(t):
        th = params.theta(t)
        return (-4 * params.theta_dot(t) - 2 * gamma(t) * np.sin(2 * th)) / (
            2 * np.sin(varphi + params.alpha(t)))

    def delta(t):
        # solves the local-phase condition for the standard gain/loss phases
        th = params.theta(t)
        return (params.alpha_dot(t)
                + omega_formula(t) / np.tan(2 * th) * np.cos(varphi + params.alpha(t)))

    return params, gamma, delta, varphi


def test_consistent_offaxis_inputs_synthesize_and_triangularize():
    params, gamma, delta, varphi = consistent_offaxis_inputs(seed=4)
    controls = synthesize_two_level(params, gamma0=gamma, gamma1=gamma,
                                    xi0=-np.pi / 2, xi1=np.pi / 2,
                                    delta=delta, varphi=varphi, grid=GRID)
    frame = two_level_frame(params)
    H = two_level_hamiltonian(controls)
    assert triangularization_residual(H, frame, GRID) < 1e-9


# ---------------------------------------------------------------------------
# two-level phase functional


def test_phase_vanishes_for_static_driveless_system():
    params = TwoLevelFrameParams(theta=const(0.3), theta_dot=const(0.0),
                                 alpha=const(0.0), alpha_dot=const(0.0))
    controls = synthesize_two_level(params, gamma0=0.0, gamma1=0.0,
                                    delta=0.0, grid=GRID, **STANDARD)
    phase = phase_two_level(controls, params, GRID)
    assert np.max(np.abs(phase.f_real)) == 0.0
    assert np.max(np.abs(phase.f_imag)) == 0.0


def test_reference_sweep_imaginary_phase_closed_form():
    # gamma = 2 theta_dot makes f_imag = [sin 2theta(t) - sin 2theta(0)] / 2,
    # which vanishes again at the end of the sweep
    params = ramp_down_params()
    gamma = lambda t: 2.0 * params.theta_dot(t)
    controls = synthesize_two_level(params, gamma0=gamma, gamma1=gamma,
                                    delta=0.0, grid=GRID, **STANDARD)
    phase = phase_two_level(controls, params, GRID)
    th = params.theta(GRID.times())
    expected = 0.5 * (np.sin(2 * th) - np.sin(2 * th[0]))
    assert np.max(np.abs(phase.f_imag - expected)) < 1e-10
    assert abs(phase.f_imag[-1]) < 1e-12
    assert phase.f_imag[0] == 0.0 and phase.f_real[0] == 0.0


@pytest.mark.parametrize("passage,column", [("ket", 1), ("bra", 0)])
def test_phase_rate_matches_rotated_diagonal(passage, column):
    # independent oracle: the diagonal entry of the rotated generator,
    # evaluated with matrices and analytic frame derivatives
    params, gamma, delta, varphi = consistent_offaxis_inputs(seed=7)
    controls = synthesize_two_level(params, gamma0=gamma, gamma1=gamma,
                                    xi0=-np.pi / 2, xi1=np.pi / 2,
                                    delta=delta, varphi=varphi, grid=GRID)
    frame = two_level_frame(params)
    H = two_level_hamiltonian(controls)
    phase = phase_two_level(controls, params, GRID, passage=passage)
    # differentiate the accumulated phase numerically at interior points
    ts = GRID.times()
    dt = GRID.dt
    f = phase.f_real + 1j * phase.f_imag
    fdot_num = (f[2:] - f[:-2]) / (2 * dt)
    for idx in (137, 954, 1761):
        entry = rotated_hamiltonian(H, frame, ts[idx + 1])[column, column]
        if passage == "bra":
            entry = np.conj(entry)
        assert abs(fdot_num[idx] - entry) < 1e-5


# ---------------------------------------------------------------------------
# three-level synthesis


def stage1_cw_frame_params():
    return _stages(ScenarioConfig("cyclic_cw", T=T))[0].frame_params


def synthesize_stage1_cw(gamma_ratio=3.0):
    params = stage1_cw_frame_params()
    gamma = lambda t: gamma_ratio * params.theta_dot(t)
    gamma_e = lambda t: 0.5 * gamma(t)
    controls = synthesize_three_level(
        params, gamma0=gamma, gamma1=gamma, gamma_e=gamma_e,
        xi0=-np.pi / 2, xi1=np.pi / 2, xi_e=np.pi / 2,
        delta0=0.0, delta1=0.0, delta_e=0.0,
        varphi=np.pi / 2, varphi_a=np.pi / 2, grid=GRID)
    return params, controls, gamma, gamma_e


def test_equal_mixing_splits_drive_equally():
    params = ThreeLevelFrameParams(
        theta=const(np.pi / 4), theta_dot=const(0.0),
        alpha=const(0.0), alpha_dot=const(0.0),
        phi_mix=lambda t: 0.3 + 0.2 * np.asarray(t, float), phi_mix_dot=const(0.2),
        beta=const(0.0), beta_dot=const(0.0),
    )
    controls = synthesize_three_level(
        params, gamma0=0.0, gamma1=0.0, gamma_e=0.0,
        xi0=-np.pi / 2, xi1=np.pi / 2, xi_e=np.pi / 2,
        delta0=0.0, delta1=0.0, delta_e=0.0,
        varphi=np.pi / 2, varphi_a=np.pi / 2, grid=GRID)
    ts = np.linspace(0.0, 2 * T, 50)
    assert np.max(np.abs(controls.omega0(ts) - controls.omega1(ts))) < 1e-14
    assert np.max(np.abs(controls.omega0(ts) - controls.omega(ts) / np.sqrt(2))) < 1e-14


def test_stage1_outer_envelope_closed_form():
    # with gamma = 3 theta_dot and gamma_e = gamma/2:
    # Omega = -2 phi_dot + (gamma cos 2theta - gamma_e) sin(phi) cos(phi)
    params, controls, gamma, gamma_e = synthesize_stage1_cw()
    ts = np.linspace(0.0, 2 * T, 100)
    th, ph = params.theta(ts), params.phi_mix(ts)
    expected = (-2.0 * params.phi_mix_dot(ts)
                + (gamma(ts) * np.cos(2 * th) - gamma_e(ts)) * np.sin(ph) * np.cos(ph))
    assert np.max(np.abs(controls.omega(ts) - expected)) < 1e-12


def test_stage1_inner_envelope_closed_form():
    # Omega_a = -theta_dot (2 + 3 sin 2theta) for gamma = 3 theta_dot
    params, controls, _, _ = synthesize_stage1_cw()
    ts = np.linspace(0.0, 2 * T, 100)
    expected = -params.theta_dot(ts) * (2.0 + 3.0 * np.sin(2 * params.theta(ts)))
    assert np.max(np.abs(controls.omega_a(ts) - expected)) < 1e-12


def test_driveless_static_three_level():
    params = ThreeLevelFrameParams(
        theta=const(0.5), theta_dot=const(0.0), alpha=const(0.0), alpha_dot=const(0.0),
        phi_mix=const(0.9), phi_mix_dot=const(0.0), beta=const(0.0), beta_dot=const(0.0))
    controls = synthesize_three_level(
        params, gamma0=0.0, gamma1=0.0, gamma_e=0.0,
        xi0=-np.pi / 2, xi1=np.pi / 2, xi_e=np.pi / 2,
        delta0=0.0, delta1=0.0, delta_e=0.0,
        varphi=np.pi / 2, varphi_a=np.pi / 2, grid=GRID)
    ts = GRID.times()
    for env in (controls.omega0, controls.omega1, controls.omega_a):
        assert np.max(np.abs(env(ts))) == 0.0


def test_synthesized_three_level_triangularizes():
    params, controls, _, _ = synthesize_stage1_cw()
    frame = three_level_frame(params)
    H = three_level_hamiltonian(controls)
    assert triangularization_residual(H, frame, GRID) < 1e-9


def test_inconsistent_beta_equation_raises():
    # nonzero flat detuning on |e> violates the beta condition
    params = stage1_cw_frame_params()
    with pytest.raises(PhaseConsistencyError, match="beta"):
        synthesize_three_level(
            params, gamma0=0.0, gamma1=0.0, gamma_e=0.0,
            xi0=-np.pi / 2, xi1=np.pi / 2, xi_e=np.pi / 2,
            delta0=0.0, delta1=0.0, delta_e=0.4,
            varphi=np.pi / 2, varphi_a=np.pi / 2, grid=GRID)


def test_consistency_residual_keeps_a_nan_beta_residual():
    # a beta that is NaN after t = 1 leaves the alpha residual finite; the
    # largest of the two is then NaN, not alpha's value
    params, controls, _, _ = synthesize_stage1_cw()
    assert three_level_consistency_residual(controls, params, GRID) <= 1e-8
    nan_beta = replace(params, beta=lambda t: np.where(np.asarray(t) > 1.0, np.nan, 0.0))
    assert np.isnan(three_level_consistency_residual(controls, nan_beta, GRID))


# ---------------------------------------------------------------------------
# three-level phase functional


def test_stage1_imaginary_phase_closed_form():
    # direct integral over theta of (3 cos 2th sin^2 th + 1.5 cos^2 th)/2
    # gives f_imag = (9/16) sin 2theta - (3/32) sin 4theta, zero at both ends
    params, controls, _, _ = synthesize_stage1_cw()
    phase = phase_three_level(controls, params, GRID)
    th = params.theta(GRID.times())
    expected = (9.0 / 16.0) * np.sin(2 * th) - (3.0 / 32.0) * np.sin(4 * th)
    assert np.max(np.abs(phase.f_imag - expected)) < 1e-10
    assert abs(phase.f_imag[-1]) < 1e-12


def test_all_zero_three_level_phase():
    params = ThreeLevelFrameParams(
        theta=const(0.5), theta_dot=const(0.0), alpha=const(0.0), alpha_dot=const(0.0),
        phi_mix=const(0.9), phi_mix_dot=const(0.0), beta=const(0.0), beta_dot=const(0.0))
    controls = synthesize_three_level(
        params, gamma0=0.0, gamma1=0.0, gamma_e=0.0,
        xi0=-np.pi / 2, xi1=np.pi / 2, xi_e=np.pi / 2,
        delta0=0.0, delta1=0.0, delta_e=0.0,
        varphi=np.pi / 2, varphi_a=np.pi / 2, grid=GRID)
    phase = phase_three_level(controls, params, GRID)
    assert np.max(np.abs(phase.f_real)) == 0.0
    assert np.max(np.abs(phase.f_imag)) == 0.0


def test_three_level_phase_rate_matches_rotated_diagonal():
    params, controls, _, _ = synthesize_stage1_cw()
    frame = three_level_frame(params)
    H = three_level_hamiltonian(controls)
    phase = phase_three_level(controls, params, GRID, passage="ket")
    ts = GRID.times()
    f = phase.f_real + 1j * phase.f_imag
    fdot_num = (f[2:] - f[:-2]) / (2 * GRID.dt)
    for idx in (200, 1000, 1700):
        entry = rotated_hamiltonian(H, frame, ts[idx + 1])[2, 2]
        assert abs(fdot_num[idx] - entry) < 1e-5


# ---------------------------------------------------------------------------
# bra/ket phase relation


def test_bra_relation_zero_detuning_two_level():
    params = ramp_down_params()
    gamma = lambda t: 2.0 * params.theta_dot(t)
    controls = synthesize_two_level(params, gamma0=gamma, gamma1=gamma,
                                    delta=0.0, grid=GRID, **STANDARD)
    assert bra_phase_relation_check(controls, params, GRID) < 1e-8


def test_bra_relation_sine_sweep_two_level():
    params = sine_params()
    gamma = lambda t: 2.0 * params.theta_dot(t)
    controls = synthesize_two_level(params, gamma0=gamma, gamma1=gamma,
                                    delta=0.0, grid=GRID, **STANDARD)
    assert bra_phase_relation_check(controls, params, GRID) < 1e-8


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bra_relation_random_consistent_detuning(seed):
    params, gamma, delta, varphi = consistent_offaxis_inputs(seed)
    controls = synthesize_two_level(params, gamma0=gamma, gamma1=gamma,
                                    xi0=-np.pi / 2, xi1=np.pi / 2,
                                    delta=delta, varphi=varphi, grid=GRID)
    assert bra_phase_relation_check(controls, params, GRID) < 1e-8


def test_bra_relation_three_level():
    params, controls, _, _ = synthesize_stage1_cw()
    assert bra_phase_relation_check(controls, params, GRID) < 1e-8


# ---------------------------------------------------------------------------
# cyclic stage lists


@functools.lru_cache(maxsize=None)
def cyclic_stages(sid, loops):
    """The stages of a cyclic run at ``T``, as the runner builds them."""
    return tuple(_stages(ScenarioConfig(sid, T=T, loops=loops)))


LOOPS = (1, 2, 4)
PI = np.pi
#: Per stage of a loop: (passage, xi_e, target level, theta at the stage's
#: start and end, phi_mix at its start and end), the same in every loop.
CYCLE_TABLE = {
    "cyclic_cw": (("ket", PI / 2, 2, (-PI / 2, 0.0), (-PI / 2, 0.0)),
                  ("ket", -PI / 2, 1, (-PI / 2, 0.0), (-PI, -PI / 2)),
                  ("bra", PI / 2, 0, (PI / 2, PI), (PI, 3 * PI / 2))),
    "cyclic_ccw": (("bra", PI / 2, 1, (0.0, -PI / 2), (0.0, PI / 2)),
                   ("ket", -PI / 2, 2, (0.0, -PI / 2), (-PI / 2, 0.0)),
                   ("ket", PI / 2, 0, (0.0, -PI / 2), (PI, 3 * PI / 2))),
}


def check_stage_table(sid, loops):
    stages = cyclic_stages(sid, loops)
    assert len(stages) == 3 * loops
    for i, stage in enumerate(stages):
        passage, xi_e, target, theta, phi_mix = CYCLE_TABLE[sid][i % 3]
        assert (stage.passage, stage.controls.xi_e, stage.target) == (passage, xi_e, target)
        assert (stage.grid.t0, stage.grid.tf) == (2.0 * i * T, 2.0 * (i + 1) * T)
        # at T = 1 every angle is computed exactly at both ends of its stage
        ends = np.array([stage.grid.t0, stage.grid.tf])
        assert np.array_equal(stage.frame_params.theta(ends), theta)
        assert np.array_equal(stage.frame_params.phi_mix(ends), phi_mix)


def check_frame_endpoints(sid, loops):
    """The frame vector that carries each stage (the last under ``H``, the first
    under ``H^dag``) starts on the level the stage before ended on and ends on
    the stage's target."""
    level = 0
    for stage in cyclic_stages(sid, loops):
        column = 2 if stage.passage == "ket" else 0
        for t, expected in ((stage.grid.t0, level), (stage.grid.tf, stage.target)):
            pops = np.abs(frame_matrix(stage.frame, t)[:, column]) ** 2
            assert np.allclose(pops, np.eye(3)[expected], atol=1e-12)
        level = stage.target
    assert level == 0


def test_clockwise_stage_angles_and_passives():
    for loops in LOOPS:
        check_stage_table("cyclic_cw", loops)


def test_clockwise_passage_endpoints_through_frame():
    # |0> -> |e> -> |1> -> |0>, every loop
    for loops in LOOPS:
        check_frame_endpoints("cyclic_cw", loops)


def test_counterclockwise_boundary_targets():
    # mu_1 carries |0> -> |1>, then mu_3 carries |1> -> |e> -> |0>, every loop
    for loops in LOOPS:
        check_stage_table("cyclic_ccw", loops)
        check_frame_endpoints("cyclic_ccw", loops)


def test_schedule_slopes_are_exact():
    for sid, sign in (("cyclic_cw", 1.0), ("cyclic_ccw", -1.0)):
        for loops in LOOPS:
            for s in cyclic_stages(sid, loops):
                p = s.frame_params
                ts = np.linspace(s.grid.t0, s.grid.tf, 7)
                assert np.all(p.theta_dot(ts) == sign * QUARTER)
                assert np.all(p.phi_mix_dot(ts) == QUARTER)
                slopes = np.diff(p.theta(ts)) / np.diff(ts)
                assert np.max(np.abs(slopes - sign * QUARTER)) < 1e-12
                slopes = np.diff(p.phi_mix(ts)) / np.diff(ts)
                assert np.max(np.abs(slopes - QUARTER)) < 1e-12
                # affine in t: second differences vanish
                assert np.max(np.abs(np.diff(p.theta(ts), 2))) < 1e-12
                assert np.max(np.abs(np.diff(p.phi_mix(ts), 2))) < 1e-12


def test_second_loop_repeats_first_shifted():
    ts = np.linspace(0.0, 2 * T, 11)
    for sid in ("cyclic_cw", "cyclic_ccw"):
        for loops in (2, 4):
            stages = cyclic_stages(sid, loops)
            for a, b in zip(stages, stages[3:]):
                assert b.grid.t0 == a.grid.t0 + 6 * T
                assert (a.passage, a.controls.xi_e, a.target) == (
                    b.passage, b.controls.xi_e, b.target)
                for angle in ("theta", "phi_mix"):
                    fa = getattr(a.frame_params, angle)
                    fb = getattr(b.frame_params, angle)
                    assert np.max(np.abs(fa(a.grid.t0 + ts) - fb(b.grid.t0 + ts))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(T=st.floats(0.01, 3.0), loops=st.integers(1, 5),
       sid=st.sampled_from(("cyclic_cw", "cyclic_ccw")))
def test_cyclic_stages_meet_exactly(T, loops, sid):
    # stage i spans [2iT, 2(i+1)T], so each loop seam is one float on both sides
    config = ScenarioConfig(sid, T=T, loops=loops, dt=T / 10)
    stages = _stages(config)
    assert stages[0].grid.t0 == 0.0 and stages[-1].grid.tf == config._span()
    for a, b in zip(stages, stages[1:]):
        assert a.grid.tf == b.grid.t0


TWO_LEVEL_ARGUMENTS = dict(gamma0=0.0, gamma1=0.0, delta=0.0, xi0=-np.pi / 2, xi1=np.pi / 2,
                           varphi=np.pi / 2)
THREE_LEVEL_ARGUMENTS = dict(gamma0=0.0, gamma1=0.0, gamma_e=0.0, delta0=0.0, delta1=0.0,
                             delta_e=0.0, xi0=-np.pi / 2, xi1=np.pi / 2, xi_e=np.pi / 2,
                             varphi=np.pi / 2, varphi_a=np.pi / 2)


@pytest.mark.parametrize("value", ["x", "0.5", None, 1j, True])
@pytest.mark.parametrize("synthesize,arguments,name", [
    *((synthesize_two_level, TWO_LEVEL_ARGUMENTS, name) for name in TWO_LEVEL_ARGUMENTS),
    *((synthesize_three_level, THREE_LEVEL_ARGUMENTS, name) for name in THREE_LEVEL_ARGUMENTS),
])
def test_synthesis_names_an_argument_that_is_not_a_real_number(synthesize, arguments, name,
                                                               value):
    params = (sine_params() if synthesize is synthesize_two_level
              else stage1_cw_frame_params())
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be a real number"):
        synthesize(params, grid=GRID, **{**arguments, name: value})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("synthesize,arguments,name", [
    *((synthesize_two_level, TWO_LEVEL_ARGUMENTS, name) for name in TWO_LEVEL_ARGUMENTS),
    *((synthesize_three_level, THREE_LEVEL_ARGUMENTS, name) for name in THREE_LEVEL_ARGUMENTS),
])
def test_synthesis_names_an_argument_that_is_not_finite(synthesize, arguments, name, value):
    # before any sine of it is taken, and not as a residual of another name
    params = (sine_params() if synthesize is synthesize_two_level
              else stage1_cw_frame_params())
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be finite, got {value}$"):
        synthesize(params, grid=GRID, **{**arguments, name: value})


def test_argument_errors_are_typed():
    params, controls, _, _ = synthesize_stage1_cw()
    calls = [
        lambda: phase_three_level(controls, params, GRID, passage="side"),
        lambda: phase_two_level(None, None, GRID, passage="side"),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError) as info:
            call()
        assert isinstance(info.value, PassageError)
        assert isinstance(info.value, ValueError)
