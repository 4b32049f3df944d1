"""Moving frames: orthonormality, gauge potential, rotation, residual certificates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhpassage import (
    AncillaryFrame,
    NonHermitianError,
    ThreeLevelFrameParams,
    TimeGrid,
    TwoLevelFrameParams,
    constant_operator,
    frame_unitary,
    gauge_potential,
    rotated_hamiltonian,
    synthesize_two_level,
    three_level_frame,
    triangularization_residual,
    two_level_frame,
    two_level_hamiltonian,
    von_neumann_residual,
)
from nhpassage.dynamics import TimeDependentOperator
from nhpassage.frames import GRAM_TOL, _rotated_batch


def const(value):
    return lambda t: value * np.ones_like(np.asarray(t, dtype=float))


def make_two_level(theta_fn, theta_dot_fn, alpha_fn=const(0.0), alpha_dot_fn=const(0.0)):
    return two_level_frame(TwoLevelFrameParams(
        theta=theta_fn, theta_dot=theta_dot_fn, alpha=alpha_fn, alpha_dot=alpha_dot_fn))


def wobble_frame():
    return make_two_level(
        lambda t: 0.5 + 0.3 * np.sin(1.7 * np.asarray(t, float)),
        lambda t: 0.3 * 1.7 * np.cos(1.7 * np.asarray(t, float)),
        lambda t: 0.2 * np.asarray(t, float),
        lambda t: 0.2 * np.ones_like(np.asarray(t, float)),
    )


def wobble_frame_3():
    return three_level_frame(ThreeLevelFrameParams(
        theta=lambda t: 0.4 + 0.2 * np.sin(1.1 * np.asarray(t, float)),
        theta_dot=lambda t: 0.2 * 1.1 * np.cos(1.1 * np.asarray(t, float)),
        alpha=lambda t: 0.15 * np.asarray(t, float),
        alpha_dot=const(0.15),
        phi_mix=lambda t: 0.8 + 0.25 * np.cos(0.9 * np.asarray(t, float)),
        phi_mix_dot=lambda t: -0.25 * 0.9 * np.sin(0.9 * np.asarray(t, float)),
        beta=lambda t: -0.1 * np.asarray(t, float),
        beta_dot=const(-0.1),
    ))


# ---------------------------------------------------------------------------
# frame construction


def test_two_level_identity_frame():
    frame = make_two_level(const(0.0), const(0.0))
    assert np.allclose(frame.matrix(0.3), np.eye(2), atol=1e-15)


def test_two_level_swap_frame():
    frame = make_two_level(const(np.pi / 2), const(0.0))
    m = frame.matrix(0.0)
    assert np.allclose(m[:, 0], [0.0, -1.0], atol=1e-15)   # first column -> -|1>
    assert np.allclose(m[:, 1], [1.0, 0.0], atol=1e-15)    # last column -> |0>


@pytest.mark.parametrize("t", np.linspace(0.0, 4.0, 9))
def test_two_level_gram_is_identity(t):
    assert wobble_frame().gram_defect(t) < GRAM_TOL


def test_three_level_passage_endpoints():
    # theta = phi_mix = -pi/2 puts the last column on |0>
    frame = three_level_frame(ThreeLevelFrameParams(
        theta=const(-np.pi / 2), theta_dot=const(0.0),
        alpha=const(0.0), alpha_dot=const(0.0),
        phi_mix=const(-np.pi / 2), phi_mix_dot=const(0.0),
        beta=const(0.0), beta_dot=const(0.0),
    ))
    assert np.allclose(frame.matrix(0.0)[:, 2], [1.0, 0.0, 0.0], atol=1e-15)
    # theta = phi_mix = 0 puts it on |e>
    frame = three_level_frame(ThreeLevelFrameParams(
        theta=const(0.0), theta_dot=const(0.0),
        alpha=const(0.0), alpha_dot=const(0.0),
        phi_mix=const(0.0), phi_mix_dot=const(0.0),
        beta=const(0.0), beta_dot=const(0.0),
    ))
    assert np.allclose(frame.matrix(0.0)[:, 2], [0.0, 0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("t", np.linspace(0.0, 4.0, 9))
def test_three_level_gram_is_identity(t):
    assert wobble_frame_3().gram_defect(t) < GRAM_TOL


@pytest.mark.parametrize("frame_fn", [wobble_frame, wobble_frame_3])
def test_analytic_derivative_matches_central_difference(frame_fn):
    frame = frame_fn()
    h = 1e-6
    for t in (0.3, 1.1, 2.9):
        fd = (frame.matrix(t + h) - frame.matrix(t - h)) / (2 * h)
        assert np.max(np.abs(frame.derivative(t) - fd)) < 1e-7


def test_batch_sampling_matches_pointwise():
    frame = wobble_frame_3()
    ts = np.linspace(0.0, 3.0, 7)
    batch = frame.sample(ts)
    batch_d = frame.sample_derivative(ts)
    for i, t in enumerate(ts):
        assert np.max(np.abs(batch[i] - frame.matrix(t))) < 1e-15
        assert np.max(np.abs(batch_d[i] - frame.derivative(t))) < 1e-15


# ---------------------------------------------------------------------------
# frame unitary


def test_frame_unitary_identity_at_reference_time():
    op = frame_unitary(wobble_frame(), t0=0.5)
    assert np.max(np.abs(op.value_at(0.5) - np.eye(2))) < 1e-15


def test_static_frame_unitary_is_identity_everywhere():
    frame = make_two_level(const(0.7), const(0.0), const(0.4), const(0.0))
    op = frame_unitary(frame, t0=0.0)
    for t in (0.0, 0.6, 2.2):
        assert np.max(np.abs(op.value_at(t) - np.eye(2))) < 1e-15


@pytest.mark.parametrize("t", [0.17, 1.23, 3.01])
def test_frame_unitary_is_unitary(t):
    op = frame_unitary(wobble_frame_3(), t0=0.0)
    v = op.value_at(t)
    assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-12


# ---------------------------------------------------------------------------
# gauge potential


def test_static_frame_has_zero_gauge_potential():
    frame = make_two_level(const(0.9), const(0.0), const(-0.3), const(0.0))
    assert np.max(np.abs(gauge_potential(frame, 1.0))) == 0.0


def test_gauge_potential_against_finite_difference():
    frame = wobble_frame()
    h = 1e-6
    for t in (0.4, 1.7):
        m = frame.matrix(t)
        dm = (frame.matrix(t + h) - frame.matrix(t - h)) / (2 * h)
        oracle = 1j * (m.conj().T @ dm)
        assert np.max(np.abs(gauge_potential(frame, t) - oracle)) < 1e-7


def test_gauge_potential_two_level_zero_alpha_pattern():
    # with alpha frozen the only motion is theta: A = theta_dot * [[0, i], [-i, 0]]
    frame = make_two_level(
        lambda t: 0.2 + 0.5 * np.asarray(t, float), const(0.5))
    a = gauge_potential(frame, 0.8)
    expected = 0.5 * np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    assert np.max(np.abs(a - expected)) < 1e-14


@pytest.mark.parametrize("frame_fn", [wobble_frame, wobble_frame_3])
@pytest.mark.parametrize("t", [0.11, 1.9])
def test_gauge_potential_is_hermitian(frame_fn, t):
    a = gauge_potential(frame_fn(), t)
    assert np.max(np.abs(a - a.conj().T)) < 1e-10


def test_finite_difference_fallback_frame():
    analytic = wobble_frame()
    fd_frame = AncillaryFrame(dim=2, basis_at=analytic.basis_at)
    for t in (0.3, 2.1):
        a = gauge_potential(fd_frame, t)
        assert np.max(np.abs(a - a.conj().T)) < 1e-6
        assert np.max(np.abs(a - gauge_potential(analytic, t))) < 1e-6


def test_constraint_equation_moves_each_basis_vector():
    # the gauge potential, expressed back in the fixed basis, generates the
    # frame motion: A_op mu_k = i d mu_k / dt
    frame = wobble_frame_3()
    for t in (0.5, 1.6):
        m = frame.matrix(t)
        dm = frame.derivative(t)
        a_op = m @ gauge_potential(frame, t) @ m.conj().T
        assert np.max(np.abs(a_op @ m - 1j * dm)) < 1e-8


# ---------------------------------------------------------------------------
# rotated generator


def test_rotated_hamiltonian_static_frame_is_matrix_element():
    frame = make_two_level(const(0.6), const(0.0), const(0.2), const(0.0))
    h = np.array([[0.2, 0.5 - 0.1j], [0.4 + 0.3j, -0.7]], dtype=complex)
    rot = rotated_hamiltonian(constant_operator(h), frame, 0.9)
    m = frame.matrix(0.9)
    assert np.max(np.abs(rot - m.conj().T @ h @ m)) < 1e-14


def test_rotated_hamiltonian_zero_generator_is_minus_gauge():
    frame = wobble_frame()
    rot = rotated_hamiltonian(constant_operator(np.zeros((2, 2))), frame, 1.3)
    assert np.max(np.abs(rot + gauge_potential(frame, 1.3))) < 1e-14


def test_rotated_hamiltonian_conjugation_route_agrees():
    # independent evaluation: conjugate the rotating-frame generator built
    # from the frame unitary back into the frozen basis
    frame = wobble_frame()
    H = constant_operator(np.array([[0.1, 0.3 + 0.2j], [0.6 - 0.5j, -0.4]], complex))
    t0, t = 0.0, 1.42
    v_op = frame_unitary(frame, t0)
    v = v_op.value_at(t)
    dv = v_op.derivative_at(t)
    h_rot = v.conj().T @ H.value_at(t) @ v - 1j * (v.conj().T @ dv)
    m0 = frame.matrix(t0)
    assert np.max(np.abs(m0.conj().T @ h_rot @ m0
                         - rotated_hamiltonian(H, frame, t))) < 1e-10


# ---------------------------------------------------------------------------
# triangularization and projector-commutation residuals


def test_diagonal_generator_aligned_static_frame_is_triangular():
    frame = make_two_level(const(0.0), const(0.0))
    h = np.diag([0.3, -0.8]).astype(complex)
    res = triangularization_residual(constant_operator(h), frame, TimeGrid(0, 1, 0.01))
    assert res == 0.0


def _synthesized_two_level(gamma_value):
    T = 1.0
    quarter = np.pi / (4 * T)
    params = TwoLevelFrameParams(
        theta=lambda t: -(quarter * (np.asarray(t, float) - T) + np.pi / 4),
        theta_dot=lambda t: np.full_like(np.asarray(t, float), -quarter),
        alpha=const(0.0), alpha_dot=const(0.0),
    )
    grid = TimeGrid(0.0, 2 * T, 1e-3)
    gamma = (lambda t: gamma_value * params.theta_dot(t)) if gamma_value else 0.0
    controls = synthesize_two_level(
        params, gamma0=gamma, gamma1=gamma, xi0=-np.pi / 2, xi1=np.pi / 2,
        delta=0.0, varphi=np.pi / 2, grid=grid)
    return params, two_level_frame(params), controls, two_level_hamiltonian(controls), grid


def test_synthesized_controls_triangularize():
    _, frame, _, H, grid = _synthesized_two_level(gamma_value=2.0)
    assert triangularization_residual(H, frame, grid) < 1e-9


def test_perturbed_drive_breaks_triangularization():
    _, frame, controls, _, grid = _synthesized_two_level(gamma_value=2.0)
    from nhpassage import TwoLevelControls

    bad = TwoLevelControls(
        omega=lambda t: 1.01 * np.asarray(controls.omega(t)),
        delta=controls.delta, gamma0=controls.gamma0, gamma1=controls.gamma1,
        varphi=controls.varphi, xi0=controls.xi0, xi1=controls.xi1)
    assert triangularization_residual(two_level_hamiltonian(bad), frame, grid) > 1e-3


def test_von_neumann_static_eigenframe_of_constant_hermitian():
    h = np.array([[0.5, 0.2], [0.2, -0.5]], dtype=complex)
    w, v = np.linalg.eigh(h)
    frame = AncillaryFrame(dim=2, basis_at=lambda t: v,
                           basis_derivative_at=lambda t: np.zeros((2, 2), complex))
    res = von_neumann_residual(constant_operator(h), frame, TimeGrid(0, 1, 0.01))
    assert res < 1e-14


def test_hermitian_limit_satisfies_both_residuals():
    # zero gain/loss: the generator is Hermitian and the matched frame must
    # pass the triangularization and projector-commutation checks together
    params, frame, _, H, grid = _synthesized_two_level(gamma_value=0.0)
    assert triangularization_residual(H, frame, grid) < 1e-9
    assert von_neumann_residual(H, frame, grid) < 1e-9


def test_misaligned_frame_fails_both_residuals():
    _, _, _, H, grid = _synthesized_two_level(gamma_value=0.0)
    bad = wobble_frame()
    assert triangularization_residual(H, bad, grid) > 1e-3
    assert von_neumann_residual(H, bad, grid) > 1e-3


def test_von_neumann_rejects_non_hermitian():
    _, frame, _, H, grid = _synthesized_two_level(gamma_value=2.0)
    with pytest.raises(NonHermitianError):
        von_neumann_residual(H, frame, grid)


# ---------------------------------------------------------------------------
# time-last residual kernels against the (n, K, K) forms


def nfirst_rotated(H, frame, times):
    """Reference copy of ``Hf - A`` with ``(n, K, K)`` einsum products."""
    hs, ms, dms = H.sample(times), frame.sample(times), frame.sample_derivative(times)
    hf = np.einsum("nik,nij,njm->nkm", ms.conj(), hs, ms)
    return hf - 1j * np.einsum("nik,nim->nkm", ms.conj(), dms)


def nfirst_von_neumann(H, frame, times):
    """Reference copy of the projector-commutation residual over ``(n, K, K)``."""
    hs, ms, dms = H.sample(times), frame.sample(times), frame.sample_derivative(times)
    worst = 0.0
    for k in range(frame.dim):
        mu, dmu = ms[:, :, k], dms[:, :, k]
        pi = np.einsum("ni,nj->nij", mu, mu.conj())
        dpi = np.einsum("ni,nj->nij", dmu, mu.conj()) + np.einsum("ni,nj->nij", mu, dmu.conj())
        comm = np.einsum("nij,njk->nik", hs, pi) - np.einsum("nij,njk->nik", pi, hs)
        worst = max(worst, float(np.max(np.abs(dpi + 1j * comm))))
    return worst


def trig_angle(c0, c1, c2, w):
    """``c0 + c1 sin(w t) + c2 cos(2 w t)`` and its analytic rate."""
    def angle(t):
        t = np.asarray(t, dtype=float)
        return c0 + c1 * np.sin(w * t) + c2 * np.cos(2 * w * t)

    def rate(t):
        t = np.asarray(t, dtype=float)
        return c1 * w * np.cos(w * t) - 2 * c2 * w * np.sin(2 * w * t)

    return angle, rate


def smooth_operator(seed, hermitian):
    """``cos(1.3 t) A + sin(0.7 t + 0.2) B`` with random (Hermitian) A, B."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    if hermitian:
        a, b = a + a.conj().T, b + b.conj().T

    def batch(ts):
        ts = np.asarray(ts, dtype=float)
        return (np.cos(1.3 * ts)[:, None, None] * a
                + np.sin(0.7 * ts + 0.2)[:, None, None] * b)

    return TimeDependentOperator(dim=3, value_at=lambda t: batch(np.array([t]))[0],
                                 values_at=batch)


coefficient = st.floats(-1.5, 1.5)
trig_angles = st.tuples(coefficient, coefficient, coefficient, st.floats(0.2, 3.0))


@settings(max_examples=30, deadline=None)
@given(angles=st.tuples(trig_angles, trig_angles, trig_angles, trig_angles),
       seed=st.integers(0, 2**16))
def test_time_last_residuals_match_nfirst_forms(angles, seed):
    (th, dth), (al, dal), (ph, dph), (be, dbe) = (trig_angle(*a) for a in angles)
    frame = three_level_frame(ThreeLevelFrameParams(
        theta=th, theta_dot=dth, alpha=al, alpha_dot=dal,
        phi_mix=ph, phi_mix_dot=dph, beta=be, beta_dot=dbe))
    times = np.linspace(0.0, 2.0, 257)
    H = smooth_operator(seed, hermitian=False)
    rot = nfirst_rotated(H, frame, times)
    assert np.max(np.abs(_rotated_batch(H, frame, times) - np.moveaxis(rot, 0, -1))) <= 1e-13
    iu = np.triu_indices(3, k=1)
    tri = np.max(np.abs(rot[:, iu[0], iu[1]]))
    assert abs(triangularization_residual(H, frame, times) - tri) <= 1e-13
    H_herm = smooth_operator(seed, hermitian=True)
    vn = nfirst_von_neumann(H_herm, frame, times)
    assert abs(von_neumann_residual(H_herm, frame, times) - vn) <= 1e-13
