"""Drive synthesis, accumulated phases, bra/ket phase relation, schedules."""

import numpy as np
import pytest

from nhpassage import (
    InvalidArgumentError,
    PassageError,
    PhaseConsistencyError,
    SingularDenominatorError,
    ThreeLevelFrameParams,
    TimeGrid,
    TwoLevelFrameParams,
    bra_phase_relation_check,
    clockwise_schedule,
    counterclockwise_schedule,
    phase_three_level,
    phase_two_level,
    synthesize_three_level,
    synthesize_two_level,
    three_level_frame,
    three_level_hamiltonian,
    triangularization_residual,
    two_level_frame,
    two_level_hamiltonian,
)
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
    sched = clockwise_schedule(1, T)
    s = sched.stages[0]
    return ThreeLevelFrameParams(
        theta=s.theta, theta_dot=s.theta_dot, alpha=const(0.0), alpha_dot=const(0.0),
        phi_mix=s.phi_mix, phi_mix_dot=s.phi_mix_dot, beta=const(0.0), beta_dot=const(0.0),
    )


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
# cyclic schedules


def test_clockwise_stage_angles_and_passives():
    sched = clockwise_schedule(1, T)
    s1, s2, s3 = sched.stages
    assert (s1.passage, s2.passage, s3.passage) == ("ket", "ket", "bra")
    assert (s1.xi_e, s2.xi_e, s3.xi_e) == (np.pi / 2, -np.pi / 2, np.pi / 2)
    assert abs(s1.theta(0.0) + np.pi / 2) < 1e-15 and abs(s1.phi_mix(0.0) + np.pi / 2) < 1e-15
    assert abs(s1.theta(2 * T)) < 1e-12 and abs(s1.phi_mix(2 * T)) < 1e-12
    assert abs(s3.theta(4 * T) - np.pi / 2) < 1e-12 and abs(s3.theta(6 * T) - np.pi) < 1e-12


def test_clockwise_passage_endpoints_through_frame():
    sched = clockwise_schedule(1, T)
    s1 = sched.stages[0]
    frame = three_level_frame(ThreeLevelFrameParams(
        theta=s1.theta, theta_dot=s1.theta_dot, alpha=const(0.0), alpha_dot=const(0.0),
        phi_mix=s1.phi_mix, phi_mix_dot=s1.phi_mix_dot, beta=const(0.0), beta_dot=const(0.0)))
    start = frame_matrix(frame, 0.0)[:, 2]
    end = frame_matrix(frame, 2 * T)[:, 2]
    assert np.allclose(np.abs(start) ** 2, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(np.abs(end) ** 2, [0.0, 0.0, 1.0], atol=1e-12)


def test_counterclockwise_boundary_targets():
    sched = counterclockwise_schedule(1, T)
    s1, s2, s3 = sched.stages
    assert (s1.passage, s2.passage, s3.passage) == ("bra", "ket", "ket")
    # mu_1 carries |0> -> |1>, then mu_3 carries |1> -> |e| -> |0>
    f1 = three_level_frame(ThreeLevelFrameParams(
        theta=s1.theta, theta_dot=s1.theta_dot, alpha=const(0.0), alpha_dot=const(0.0),
        phi_mix=s1.phi_mix, phi_mix_dot=s1.phi_mix_dot, beta=const(0.0), beta_dot=const(0.0)))
    assert np.allclose(np.abs(frame_matrix(f1, 0.0)[:, 0]) ** 2, [1, 0, 0], atol=1e-12)
    assert np.allclose(np.abs(frame_matrix(f1, 2 * T)[:, 0]) ** 2, [0, 1, 0], atol=1e-12)
    f3 = three_level_frame(ThreeLevelFrameParams(
        theta=s3.theta, theta_dot=s3.theta_dot, alpha=const(0.0), alpha_dot=const(0.0),
        phi_mix=s3.phi_mix, phi_mix_dot=s3.phi_mix_dot, beta=const(0.0), beta_dot=const(0.0)))
    assert np.allclose(np.abs(frame_matrix(f3, 4 * T)[:, 2]) ** 2, [0, 0, 1], atol=1e-12)
    assert np.allclose(np.abs(frame_matrix(f3, 6 * T)[:, 2]) ** 2, [1, 0, 0], atol=1e-12)


def test_schedule_slopes_are_exact():
    for sched in (clockwise_schedule(2, T), counterclockwise_schedule(2, T)):
        sign = 1.0 if sched.direction == "cw" else -1.0
        for s in sched.stages:
            ts = np.linspace(s.start, s.end, 7)
            slopes = np.diff(s.theta(ts)) / np.diff(ts)
            assert np.max(np.abs(slopes - sign * QUARTER)) < 1e-12
            # affine in t: second differences vanish
            assert np.max(np.abs(np.diff(s.theta(ts), 2))) < 1e-12
            assert np.max(np.abs(np.diff(s.phi_mix(ts), 2))) < 1e-12


def test_second_loop_repeats_first_shifted():
    s1 = clockwise_schedule(1, T)
    s2 = clockwise_schedule(2, T)
    ts = np.linspace(0.0, 2 * T, 11)
    for a, b in zip(s1.stages, s2.stages):
        assert np.max(np.abs(np.asarray(a.theta(a.start + ts))
                             - np.asarray(b.theta(b.start + ts)))) < 1e-12


def test_schedule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        clockwise_schedule(0, T)
    with pytest.raises(ValueError):
        counterclockwise_schedule(1, -1.0)


def test_argument_errors_are_typed():
    params, controls, _, _ = synthesize_stage1_cw()
    calls = [
        lambda: clockwise_schedule(0, T),
        lambda: clockwise_schedule(1, 0.0),
        lambda: counterclockwise_schedule(0, T),
        lambda: counterclockwise_schedule(1, -1.0),
        lambda: phase_three_level(controls, params, GRID, passage="side"),
        lambda: phase_two_level(None, None, GRID, passage="side"),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError) as info:
            call()
        assert isinstance(info.value, PassageError)
        assert isinstance(info.value, ValueError)
