"""Moving frames: closed forms, orthonormality, gauge potential, rotation, residual certificates."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhpassage import (
    AncillaryFrame,
    DimensionMismatchError,
    NonFiniteSampleError,
    NonHermitianError,
    ScenarioConfig,
    ThreeLevelFrameParams,
    TimeGrid,
    TwoLevelFrameParams,
    constant_operator,
    synthesize_two_level,
    three_level_frame,
    triangularization_residual,
    two_level_frame,
    two_level_hamiltonian,
    von_neumann_residual,
)
from nhpassage.dynamics import TimeDependentOperator, _sample_times, _time_last
from nhpassage.scenarios import _drive_scaled, _misaligned_frame, _stages
from rotation_reference import above_diagonal_max, gauge_block, rotated_block

#: Orthonormality tolerance for well-formed frames.
GRAM_TOL = 1e-12


def matrix(frame, t):
    """The frame matrix at one time, as a batch of one."""
    return frame.sample(np.array([t]))[0]


def derivative(frame, t):
    return frame.sample_derivative(np.array([t]))[0]


def frame_unitary(frame, t0):
    """The rotation ``V(t) = sum_k |mu_k(t)><mu_k(t0)| = M(t) M(t0)^dag``."""
    m0_dag = matrix(frame, t0).conj().T
    return lambda t: matrix(frame, t) @ m0_dag


def gram_defect(frame, t):
    """Max-entry deviation of the Gram matrix from the identity."""
    m = matrix(frame, t)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(frame.dim))))


def gauge_potential(frame, t):
    """``A_km = i <mu_k| d mu_m/dt>`` at one time, through the batched kernel."""
    ms = _time_last(frame.sample(np.array([t])))
    dms = _time_last(frame.sample_derivative(np.array([t])))
    return gauge_block(ms, dms)[..., 0]


def rotated_hamiltonian(H, frame, t):
    """``Hf - A`` at one time, through the batched kernel."""
    return rotated_block(H, frame, np.array([t]))[..., 0]


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
    assert np.allclose(matrix(frame, 0.3), np.eye(2), atol=1e-15)


def test_two_level_swap_frame():
    frame = make_two_level(const(np.pi / 2), const(0.0))
    m = matrix(frame, 0.0)
    assert np.allclose(m[:, 0], [0.0, -1.0], atol=1e-15)   # first column -> -|1>
    assert np.allclose(m[:, 1], [1.0, 0.0], atol=1e-15)    # last column -> |0>


@pytest.mark.parametrize("t", np.linspace(0.0, 4.0, 9))
def test_two_level_gram_is_identity(t):
    assert gram_defect(wobble_frame(), t) < GRAM_TOL


def test_three_level_passage_endpoints():
    # theta = phi_mix = -pi/2 puts the last column on |0>
    frame = three_level_frame(ThreeLevelFrameParams(
        theta=const(-np.pi / 2), theta_dot=const(0.0),
        alpha=const(0.0), alpha_dot=const(0.0),
        phi_mix=const(-np.pi / 2), phi_mix_dot=const(0.0),
        beta=const(0.0), beta_dot=const(0.0),
    ))
    assert np.allclose(matrix(frame, 0.0)[:, 2], [1.0, 0.0, 0.0], atol=1e-15)
    # theta = phi_mix = 0 puts it on |e>
    frame = three_level_frame(ThreeLevelFrameParams(
        theta=const(0.0), theta_dot=const(0.0),
        alpha=const(0.0), alpha_dot=const(0.0),
        phi_mix=const(0.0), phi_mix_dot=const(0.0),
        beta=const(0.0), beta_dot=const(0.0),
    ))
    assert np.allclose(matrix(frame, 0.0)[:, 2], [0.0, 0.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("t", np.linspace(0.0, 4.0, 9))
def test_three_level_gram_is_identity(t):
    assert gram_defect(wobble_frame_3(), t) < GRAM_TOL


@pytest.mark.parametrize("frame_fn", [wobble_frame, wobble_frame_3])
def test_analytic_derivative_matches_central_difference(frame_fn):
    frame = frame_fn()
    h = 1e-6
    for t in (0.3, 1.1, 2.9):
        fd = (matrix(frame, t + h) - matrix(frame, t - h)) / (2 * h)
        assert np.max(np.abs(derivative(frame, t) - fd)) < 1e-7


def test_batch_sampling_matches_pointwise():
    # a batch of many times agrees with batches of one
    frame = wobble_frame_3()
    ts = np.linspace(0.0, 3.0, 7)
    batch = frame.sample(ts)
    batch_d = frame.sample_derivative(ts)
    for i, t in enumerate(ts):
        assert np.max(np.abs(batch[i] - matrix(frame, t))) < 1e-15
        assert np.max(np.abs(batch_d[i] - derivative(frame, t))) < 1e-15


# ---------------------------------------------------------------------------
# frame unitary


def test_frame_unitary_identity_at_reference_time():
    v = frame_unitary(wobble_frame(), t0=0.5)
    assert np.max(np.abs(v(0.5) - np.eye(2))) < 1e-15


def test_static_frame_unitary_is_identity_everywhere():
    frame = make_two_level(const(0.7), const(0.0), const(0.4), const(0.0))
    v = frame_unitary(frame, t0=0.0)
    for t in (0.0, 0.6, 2.2):
        assert np.max(np.abs(v(t) - np.eye(2))) < 1e-15


@pytest.mark.parametrize("t", [0.17, 1.23, 3.01])
def test_frame_unitary_is_unitary(t):
    v = frame_unitary(wobble_frame_3(), t0=0.0)(t)
    assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-12


def test_frame_samples_of_the_wrong_shape_raise():
    good = wobble_frame()
    ts = np.linspace(0.0, 1.0, 5)
    n = ts.size
    frames = [AncillaryFrame(3, good.values_at), AncillaryFrame(2, lambda t: good.values_at(t)[0])]
    for K in (2, 3):  # one matrix per time, a wrong K, n or axis order, three parts
        frames += [AncillaryFrame(K, lambda t, shape=shape: np.zeros(shape, complex))
                   for shape in ((n, K, K), (n, 2, K + 1, K + 1), (n + 1, 2, K, K),
                                 (2, n, K, K), (n, 3, K, K))]
    for frame in frames:
        for call in (frame.sample, frame.sample_derivative, frame.tabulated):
            with pytest.raises(DimensionMismatchError, match=re.escape(
                    f"frame samples have shape {frame.values_at(ts).shape}, "
                    f"expected {(n, 2, frame.dim, frame.dim)}")):
                call(ts)


# ---------------------------------------------------------------------------
# gauge potential


def test_static_frame_has_zero_gauge_potential():
    frame = make_two_level(const(0.9), const(0.0), const(-0.3), const(0.0))
    assert np.max(np.abs(gauge_potential(frame, 1.0))) == 0.0


def test_gauge_potential_against_finite_difference():
    frame = wobble_frame()
    h = 1e-6
    for t in (0.4, 1.7):
        m = matrix(frame, t)
        dm = (matrix(frame, t + h) - matrix(frame, t - h)) / (2 * h)
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
    # a frame without analytic rates passes a central difference of its basis
    analytic = wobble_frame()
    h = 1e-6
    fd_frame = AncillaryFrame(dim=2, values_at=lambda ts: np.stack(
        [analytic.sample(ts), (analytic.sample(ts + h) - analytic.sample(ts - h)) / (2 * h)],
        axis=1))
    for t in (0.3, 2.1):
        a = gauge_potential(fd_frame, t)
        assert np.max(np.abs(a - a.conj().T)) < 1e-6
        assert np.max(np.abs(a - gauge_potential(analytic, t))) < 1e-6


def test_constraint_equation_moves_each_basis_vector():
    # the gauge potential, expressed back in the fixed basis, generates the
    # frame motion: A_op mu_k = i d mu_k / dt
    frame = wobble_frame_3()
    for t in (0.5, 1.6):
        m = matrix(frame, t)
        dm = derivative(frame, t)
        a_op = m @ gauge_potential(frame, t) @ m.conj().T
        assert np.max(np.abs(a_op @ m - 1j * dm)) < 1e-8


# ---------------------------------------------------------------------------
# rotated generator


def test_rotated_hamiltonian_static_frame_is_matrix_element():
    frame = make_two_level(const(0.6), const(0.0), const(0.2), const(0.0))
    h = np.array([[0.2, 0.5 - 0.1j], [0.4 + 0.3j, -0.7]], dtype=complex)
    rot = rotated_hamiltonian(constant_operator(h), frame, 0.9)
    m = matrix(frame, 0.9)
    assert np.max(np.abs(rot - m.conj().T @ h @ m)) < 1e-14


def test_rotated_hamiltonian_zero_generator_is_minus_gauge():
    frame = wobble_frame()
    rot = rotated_hamiltonian(constant_operator(np.zeros((2, 2))), frame, 1.3)
    assert np.max(np.abs(rot + gauge_potential(frame, 1.3))) < 1e-14


def test_rotated_hamiltonian_conjugation_route_agrees():
    # independent evaluation: conjugate the rotating-frame generator built
    # from the frame unitary V(t) = M(t) M(t0)^dag back into the frozen basis
    frame = wobble_frame()
    h = np.array([[0.1, 0.3 + 0.2j], [0.6 - 0.5j, -0.4]], complex)
    H = constant_operator(h)
    t0, t = 0.0, 1.42
    m0_dag = matrix(frame, t0).conj().T
    v = frame_unitary(frame, t0)(t)
    dv = derivative(frame, t) @ m0_dag
    h_rot = v.conj().T @ h @ v - 1j * (v.conj().T @ dv)
    m0 = matrix(frame, t0)
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
    frame = AncillaryFrame(
        dim=2, values_at=lambda ts: np.stack([np.broadcast_to(v, (len(ts), 2, 2)),
                                              np.zeros((len(ts), 2, 2), complex)], axis=1))
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


def test_von_neumann_keeps_a_nan_defect():
    # s [[1, 1], [1, -1]] is Hermitian at every s; at s = 1.7e308 the products
    # H M overflow and the projectors' defects are NaN, which is the result
    frame = two_level_frame(TwoLevelFrameParams(
        theta=lambda t: 0.3 + 0.1 * np.asarray(t, float),
        theta_dot=lambda t: np.full_like(np.asarray(t, float), 0.1),
        alpha=lambda t: np.zeros_like(np.asarray(t, float)),
        alpha_dot=lambda t: np.zeros_like(np.asarray(t, float))))
    grid = TimeGrid(0.0, 1.0, 0.01)
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    assert 1.41 < von_neumann_residual(constant_operator(h), frame, grid) < 1.42
    assert 1.41e300 < von_neumann_residual(constant_operator(1e300 * h), frame, grid) < 1.42e300
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(von_neumann_residual(constant_operator(1.7e308 * h), frame, grid))


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


def smooth_operator(seed, hermitian, dim=3, scale=1.0):
    """``cos(1.3 t) A + sin(0.7 t + 0.2) B`` with random (Hermitian) A, B of
    entries about ``scale``."""
    rng = np.random.default_rng(seed)
    a, b = scale * (rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim)))
    if hermitian:
        a, b = a + a.conj().T, b + b.conj().T

    def batch(ts):
        ts = np.asarray(ts, dtype=float)
        return (np.cos(1.3 * ts)[:, None, None] * a
                + np.sin(0.7 * ts + 0.2)[:, None, None] * b)

    return TimeDependentOperator(dim=dim, values_at=batch)


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
    assert np.max(np.abs(rotated_block(H, frame, times) - np.moveaxis(rot, 0, -1))) <= 1e-13
    iu = np.triu_indices(3, k=1)
    tri = np.max(np.abs(rot[:, iu[0], iu[1]]))
    assert abs(triangularization_residual(H, frame, times) - tri) <= 1e-13
    H_herm = smooth_operator(seed, hermitian=True)
    vn = nfirst_von_neumann(H_herm, frame, times)
    assert abs(von_neumann_residual(H_herm, frame, times) - vn) <= 1e-13


# ---------------------------------------------------------------------------
# the pair-built frames against the closed forms they replaced, bitwise


def closed_stack(rows):
    """Stack row-major component lists into (..., dim, dim) matrices."""
    stacked = [np.stack(row, axis=-1) for row in rows]
    return np.stack(stacked, axis=-2)


def closed_two_level(th, al):
    c, s = np.cos(th), np.sin(th)
    ep = np.exp(0.5j * np.asarray(al))
    em = np.conj(ep)
    return closed_stack([[c * ep, s * ep], [-s * em, c * em]])


def closed_two_level_dot(th, al, dth, dal):
    c, s = np.cos(th), np.sin(th)
    ep = np.exp(0.5j * np.asarray(al))
    em = np.conj(ep)
    dc = (-s * dth + 0.5j * dal * c) * ep
    ds = (c * dth + 0.5j * dal * s) * ep
    dcm = (-s * dth - 0.5j * dal * c) * em
    dsm = (c * dth - 0.5j * dal * s) * em
    return closed_stack([[dc, ds], [-dsm, dcm]])


def closed_three_level(th, al, ph, be):
    cth, sth = np.cos(th), np.sin(th)
    cph, sph = np.cos(ph), np.sin(ph)
    ea = np.exp(0.5j * np.asarray(al))
    eb = np.exp(0.5j * np.asarray(be))
    eam, ebm = np.conj(ea), np.conj(eb)
    zero = np.zeros_like(cth + 0j)
    b0, b1 = sth * ea, cth * eam
    mu1 = [cth * ea, -sth * eam, zero]
    mu2 = [cph * eb * b0, cph * eb * b1, -sph * ebm]
    mu3 = [sph * eb * b0, sph * eb * b1, cph * ebm]
    return closed_stack([[mu1[i], mu2[i], mu3[i]] for i in range(3)])


def closed_three_level_dot(th, al, ph, be, dth, dal, dph, dbe):
    cth, sth = np.cos(th), np.sin(th)
    cph, sph = np.cos(ph), np.sin(ph)
    ea = np.exp(0.5j * np.asarray(al))
    eb = np.exp(0.5j * np.asarray(be))
    eam, ebm = np.conj(ea), np.conj(eb)
    zero = np.zeros_like(cth + 0j)
    b0 = sth * ea
    b1 = cth * eam
    db0 = (cth * dth + 0.5j * dal * sth) * ea
    db1 = (-sth * dth - 0.5j * dal * cth) * eam
    dmu1_0 = (-sth * dth + 0.5j * dal * cth) * ea
    dmu1_1 = -(cth * dth - 0.5j * dal * sth) * eam
    ceb = cph * eb
    seb = sph * eb
    dceb = (-sph * dph + 0.5j * dbe * cph) * eb
    dseb = (cph * dph + 0.5j * dbe * sph) * eb
    dsebm = (cph * dph - 0.5j * dbe * sph) * ebm
    dcebm = (-sph * dph - 0.5j * dbe * cph) * ebm
    dmu2 = [dceb * b0 + ceb * db0, dceb * b1 + ceb * db1, -dsebm]
    dmu3 = [dseb * b0 + seb * db0, dseb * b1 + seb * db1, dcebm]
    return closed_stack([
        [dmu1_0, dmu2[0], dmu3[0]],
        [dmu1_1, dmu2[1], dmu3[1]],
        [zero, dmu2[2], dmu3[2]],
    ])


def closed_form_frame(p, ts):
    """The frame matrices and derivatives of ``p`` on ``ts`` from the closed forms."""
    if isinstance(p, TwoLevelFrameParams):
        th, al = p.theta(ts), p.alpha(ts)
        return (closed_two_level(th, al),
                closed_two_level_dot(th, al, p.theta_dot(ts), p.alpha_dot(ts)))
    angles = (p.theta(ts), p.alpha(ts), p.phi_mix(ts), p.beta(ts))
    rates = (p.theta_dot(ts), p.alpha_dot(ts), p.phi_mix_dot(ts), p.beta_dot(ts))
    return closed_three_level(*angles), closed_three_level_dot(*angles, *rates)


def assert_frame_is_closed_form(frame, params, ts):
    m, dm = closed_form_frame(params, ts)
    assert np.array_equal(frame.sample(ts), m)
    assert np.array_equal(frame.sample_derivative(ts), dm)


@pytest.mark.parametrize("gamma_scale", [0.8, 1.15])
@pytest.mark.parametrize("scenario", ["two_level_a", "two_level_b", "two_level_c",
                                      "two_level_d", "cyclic_cw", "cyclic_ccw"])
def test_built_in_frames_are_bitwise_the_closed_forms(scenario, gamma_scale):
    loops = 2 if scenario.startswith("cyclic") else 1
    for stage in _stages(ScenarioConfig(scenario, loops=loops, gamma_scale=gamma_scale)):
        assert_frame_is_closed_form(stage.frame, stage.frame_params,
                                    _sample_times(stage.grid.times()))


# a phase whose constant part is bounded away from zero never vanishes identically
phase_angles = st.tuples(st.floats(0.1, 3.0) | st.floats(-3.0, -0.1), coefficient,
                         coefficient, st.floats(0.2, 3.0))


@settings(max_examples=40, deadline=None)
@given(angles=st.tuples(trig_angles, phase_angles, trig_angles, phase_angles),
       span=st.floats(0.5, 20.0))
def test_drawn_frames_are_bitwise_the_closed_forms(angles, span):
    (th, dth), (al, dal), (ph, dph), (be, dbe) = (trig_angle(*a) for a in angles)
    ts = np.linspace(-span, span, 513)
    two = TwoLevelFrameParams(theta=th, theta_dot=dth, alpha=al, alpha_dot=dal)
    assert_frame_is_closed_form(two_level_frame(two), two, ts)
    three = ThreeLevelFrameParams(theta=th, theta_dot=dth, alpha=al, alpha_dot=dal,
                                  phi_mix=ph, phi_mix_dot=dph, beta=be, beta_dot=dbe)
    assert_frame_is_closed_form(three_level_frame(three), three, ts)


# ---------------------------------------------------------------------------
# the two-product von Neumann residual against the per-k form it replaced


def per_k_von_neumann(H, frame, times):
    """Reference copy of the residual with two full ``(K, K, n)`` products per k."""
    hs = _time_last(H.sample(times))
    ms = _time_last(frame.sample(times))
    dms = _time_last(frame.sample_derivative(times))
    worst = 0.0
    for k in range(frame.dim):
        mu, dmu = ms[:, k], dms[:, k]
        pi = mu[:, None] * mu[None].conj()
        dpi = dmu[:, None] * mu[None].conj() + mu[:, None] * dmu[None].conj()
        comm = np.einsum("ijn,jkn->ikn", hs, pi) - np.einsum("ijn,jkn->ikn", pi, hs)
        worst = max(worst, float(np.max(np.abs(dpi + 1j * comm))))
    return worst


@settings(max_examples=40, deadline=None)
@given(angles=st.tuples(trig_angles, phase_angles, trig_angles, phase_angles),
       dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       scale=st.sampled_from([0.01, 1.0, 30.0]))
def test_two_product_von_neumann_matches_the_per_k_form(angles, dim, seed, scale):
    (th, dth), (al, dal), (ph, dph), (be, dbe) = (trig_angle(*a) for a in angles)
    if dim == 2:
        frame = two_level_frame(TwoLevelFrameParams(
            theta=th, theta_dot=dth, alpha=al, alpha_dot=dal))
    else:
        frame = three_level_frame(ThreeLevelFrameParams(
            theta=th, theta_dot=dth, alpha=al, alpha_dot=dal,
            phi_mix=ph, phi_mix_dot=dph, beta=be, beta_dot=dbe))
    times = np.linspace(0.0, 2.0, 257)
    H = smooth_operator(seed, True, dim, scale)
    h_max = float(np.max(np.abs(H.sample(times))))
    got, want = von_neumann_residual(H, frame, times), per_k_von_neumann(H, frame, times)
    assert abs(got - want) <= 1e-14 * (1.0 + h_max)
    bad = _misaligned_frame(dim, 2.0)
    got, want = von_neumann_residual(H, bad, times), per_k_von_neumann(H, bad, times)
    assert abs(got - want) <= 1e-12 * want
    with pytest.raises(NonHermitianError):
        von_neumann_residual(smooth_operator(seed, False, dim, scale), frame, times)


# ---------------------------------------------------------------------------
# the above-diagonal residual against the full rotated block, and the
# one-pass frame tables against separate samples, bitwise


def counting(fn, calls):
    """``fn``, recording each call in ``calls``."""
    def counted(t):
        calls.append(1)
        return fn(t)
    return counted


def same_bits(a, b):
    """Equal shapes and equal bytes: signed zeros included."""
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def drawn_frame(angles, dim, calls=None):
    """The built-in frame of drawn ``angles``; each evaluation of its pairs is
    recorded in ``calls`` if given."""
    (th, dth), (al, dal), (ph, dph), (be, dbe) = (trig_angle(*a) for a in angles)
    if calls is not None:
        th = counting(th, calls)
    if dim == 2:
        return two_level_frame(TwoLevelFrameParams(
            theta=th, theta_dot=dth, alpha=al, alpha_dot=dal))
    return three_level_frame(ThreeLevelFrameParams(
        theta=th, theta_dot=dth, alpha=al, alpha_dot=dal,
        phi_mix=ph, phi_mix_dot=dph, beta=be, beta_dot=dbe))


@settings(max_examples=40, deadline=None)
@given(angles=st.tuples(trig_angles, phase_angles, trig_angles, phase_angles),
       dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16),
       scale=st.sampled_from([0.01, 1.0, 30.0]), hermitian=st.booleans())
def test_above_diagonal_residual_is_bitwise_the_full_block(angles, dim, seed, scale, hermitian):
    times = np.linspace(0.0, 2.0, 257)
    H = smooth_operator(seed, hermitian, dim, scale)
    frame = drawn_frame(angles, dim)
    for f in (frame, frame.tabulated(times), _misaligned_frame(dim, 2.0)):
        assert triangularization_residual(H, f, times) == above_diagonal_max(H, f, times)


@pytest.mark.parametrize("gamma_scale", [0.0, 0.8, 1.15])
@pytest.mark.parametrize("scenario", ["two_level_a", "two_level_b", "two_level_c",
                                      "two_level_d", "cyclic_cw", "cyclic_ccw"])
def test_stage_residuals_are_bitwise_the_full_block(scenario, gamma_scale):
    # the run's residual, the 1% drive control and the misaligned frame
    config = ScenarioConfig(scenario, loops=2 if scenario.startswith("cyclic") else 1,
                            gamma_scale=gamma_scale)
    stages = _stages(config)
    bad = _misaligned_frame(stages[0].H.dim, config.T)
    for stage in stages:
        times = stage.grid.times()
        H, frame = stage.H.tabulated(times), stage.frame.tabulated(times)
        for h, f in ((H, frame), (_drive_scaled(stage, 1.01), stage.frame), (H, bad)):
            assert triangularization_residual(h, f, stage.grid) == above_diagonal_max(h, f, times)


@settings(max_examples=30, deadline=None)
@given(angles=st.tuples(trig_angles, phase_angles, trig_angles, phase_angles),
       dim=st.sampled_from([2, 3]))
def test_built_in_frame_tables_evaluate_the_pairs_once(angles, dim):
    (th, dth), (al, dal), (ph, dph), (be, dbe) = (trig_angle(*a) for a in angles)
    calls = []

    def counted_theta(t):
        calls.append(1)
        return th(t)

    if dim == 2:
        frame = two_level_frame(TwoLevelFrameParams(counted_theta, dth, al, dal))
    else:
        frame = three_level_frame(ThreeLevelFrameParams(
            counted_theta, dth, al, dal, ph, dph, be, dbe))
    ts = np.linspace(-3.0, 3.0, 257)
    table = frame.tabulated(ts)
    assert len(calls) == 1  # matrices and derivatives from one evaluation
    assert same_bits(table.sample(ts), frame.sample(ts))
    assert same_bits(table.sample_derivative(ts), frame.sample_derivative(ts))


# ---------------------------------------------------------------------------
# the frame contract: one (n, 2, K, K) block, checked as a generator's is and
# tabulated by one call


@settings(max_examples=25, deadline=None)
@given(angles=st.tuples(trig_angles, phase_angles, trig_angles, phase_angles),
       dim=st.sampled_from([2, 3]),
       rows=st.lists(st.integers(0, 128), min_size=1, max_size=12, unique=True))
def test_frame_tables_are_one_call_and_bitwise_fresh_samples(angles, dim, rows):
    calls = []
    built_in = drawn_frame(angles, dim, calls)
    ts = np.linspace(-3.0, 3.0, 129)
    subset = ts[np.sort(rows)]
    want = {times.size: (built_in.sample(times), built_in.sample_derivative(times))
            for times in (ts, subset)}
    caller_built = AncillaryFrame(dim, lambda t: built_in.values_at(t))
    for frame in (built_in, replace(built_in), caller_built):
        calls.clear()
        table = frame.tabulated(ts)
        assert len(calls) == 1  # matrices and derivatives from one evaluation
        for times in (ts, subset):
            m, dm = want[times.size]
            assert same_bits(table.sample(times), m)
            assert same_bits(table.sample_derivative(times), dm)
        assert len(calls) == 1  # the subset is served from the table


@settings(max_examples=25, deadline=None)
@given(angles=st.tuples(trig_angles, phase_angles, trig_angles, phase_angles),
       dim=st.sampled_from([2, 3]))
def test_frame_derivative_is_the_limit_of_central_differences(angles, dim):
    frame = drawn_frame(angles, dim)
    ts = np.linspace(-2.0, 2.0, 33)
    dm = frame.sample_derivative(ts)
    errs = [np.max(np.abs((frame.sample(ts + h) - frame.sample(ts - h)) / (2 * h) - dm))
            for h in (2e-3, 1e-3)]
    # O(h^2): halving h quarters the error, down to the difference's roundoff
    assert errs[1] <= 0.3 * errs[0] + 1e-10


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([2, 3]), bad=st.integers(0, 127), later=st.integers(1, 128),
       part=st.sampled_from([0, 1]), value=st.sampled_from([np.nan, np.inf, complex(0.0, np.nan)]))
def test_a_non_finite_frame_sample_names_its_first_bad_time(dim, bad, later, part, value):
    ts = np.linspace(0.0, 1.0, 129)
    smooth = _misaligned_frame(dim, 1.0)

    def values_at(t):
        block = smooth.values_at(t)
        block[t == ts[bad], part, dim - 1, 0] = value
        block[t == ts[min(bad + later, 128)], 0, 0, 0] = np.inf
        return block

    frame = AncillaryFrame(dim, values_at)
    message = rf"^frame sample at t = {re.escape(repr(float(ts[bad])))} contains NaN or Inf$"
    for call in (frame.sample, frame.sample_derivative, frame.tabulated):
        with pytest.raises(NonFiniteSampleError, match=message):
            call(ts)
