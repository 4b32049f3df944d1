"""Core propagation: paired evolutions, propagators, series oracle, expm."""

import numpy as np
import pytest
import scipy.linalg

from nhpassage import dynamics
from nhpassage import (
    DimensionMismatchError,
    GridError,
    InvalidArgumentError,
    PassageError,
    ScenarioConfig,
    ThreeLevelFrameParams,
    NonFiniteSampleError,
    TimeDependentOperator,
    TimeGrid,
    biorthogonality_defect,
    clockwise_schedule,
    constant_operator,
    dyson_truncation,
    evolve_bra,
    evolve_ket,
    is_pt_symmetric_two_level,
    matrix_exponential,
    piecewise_operator,
    propagator_bra,
    propagator_ket,
    run_cyclic,
    synthesize_three_level,
    three_level_hamiltonian,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_generator(dim, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if hermitian:
        a = 0.5 * (a + a.conj().T)
    return a / np.linalg.norm(a, 2)


def smooth_generator(dim, seed):
    """A non-Hermitian generator with smooth, genuinely time-dependent entries."""
    a = random_generator(dim, seed)
    b = random_generator(dim, seed + 1)

    def batch(ts):
        ts = np.asarray(ts, dtype=float)
        return (np.cos(1.3 * ts)[:, None, None] * a
                + np.sin(0.7 * ts + 0.2)[:, None, None] * b)

    return TimeDependentOperator(dim=dim, value_at=lambda t: batch(np.array([t]))[0],
                                 values_at=batch)


# ---------------------------------------------------------------------------
# evolve_ket / evolve_bra


def test_zero_generator_keeps_state():
    grid = TimeGrid(0.0, 1.0, 1e-3)
    zero = constant_operator(np.zeros((2, 2)))
    for evolve in (evolve_ket, evolve_bra):
        traj = evolve(zero, [1.0, 0.0], grid)
        assert np.max(np.abs(traj.states - np.array([1.0, 0.0]))) < 1e-14


def test_rabi_half_period():
    # closed-form flip of the constant transverse drive: psi(pi/Omega) = (0, -i)
    omega = 2.0
    grid = TimeGrid(0.0, np.pi / omega, (np.pi / omega) / 2000)
    traj = evolve_ket(constant_operator(0.5 * omega * SX), [1.0, 0.0], grid)
    assert np.abs(traj.states[-1] - np.array([0.0, -1.0j])).max() < 1e-10


def test_pure_decay_amplitude():
    gamma = 0.8
    h = np.diag([-0.5j * gamma, 0.0])
    grid = TimeGrid(0.0, 2.0, 1e-3)
    traj = evolve_ket(constant_operator(h), [1.0, 0.0], grid)
    expected = np.exp(-0.5 * gamma * traj.times)
    assert np.max(np.abs(traj.states[:, 0] - expected)) < 1e-10
    assert np.max(np.abs(traj.states[:, 1])) == 0.0


def test_bra_growth_mirrors_ket_decay():
    gamma = 0.8
    h = np.diag([-0.5j * gamma, 0.0])
    grid = TimeGrid(0.0, 2.0, 1e-3)
    traj = evolve_bra(constant_operator(h), [1.0, 0.0], grid)
    expected = np.exp(+0.5 * gamma * traj.times)
    assert np.max(np.abs(traj.states[:, 0] - expected)) < 1e-9


def test_bra_equals_ket_for_hermitian():
    h = random_generator(3, seed=5, hermitian=True)
    grid = TimeGrid(0.0, 1.0, 1e-3)
    psi0 = np.array([0.6, 0.8j, 0.0])
    ket = evolve_ket(constant_operator(h), psi0, grid)
    bra = evolve_bra(constant_operator(h), psi0, grid)
    assert np.max(np.abs(ket.states - bra.states)) < 1e-14


def test_hermitian_norm_conservation():
    H = smooth_generator(3, seed=11)
    sym = TimeDependentOperator(
        dim=3,
        value_at=lambda t: 0.5 * (H.value_at(t) + H.value_at(t).conj().T),
    )
    grid = TimeGrid(0.0, 2.0, 1e-3)
    traj = evolve_ket(sym, [1.0, 0.0, 0.0], grid)
    assert np.max(np.abs(traj.total_norm - 1.0)) < 1e-10


def test_evolution_is_linear():
    H = smooth_generator(2, seed=3)
    grid = TimeGrid(0.0, 1.5, 1e-3)
    x = np.array([0.3 + 0.1j, -0.4j])
    y = np.array([0.9, 0.2 - 0.7j])
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    combo = evolve_ket(H, a * x + b * y, grid)
    parts = a * evolve_ket(H, x, grid).states + b * evolve_ket(H, y, grid).states
    assert np.max(np.abs(combo.states - parts)) < 1e-12


def test_trajectory_population_identity():
    H = smooth_generator(2, seed=9)
    traj = evolve_ket(H, [1.0, 0.0], TimeGrid(0.0, 1.0, 1e-3))
    assert np.array_equal(traj.populations, np.abs(traj.states) ** 2)
    assert np.allclose(traj.total_norm, traj.populations.sum(axis=1))


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        evolve_ket(constant_operator(np.eye(2)), [1.0, 0.0, 0.0], TimeGrid(0, 1, 0.1))


def test_nonfinite_sample_raises():
    bad = TimeDependentOperator(
        dim=2, value_at=lambda t: np.array([[np.nan, 0], [0, 0]], dtype=complex)
    )
    with pytest.raises(NonFiniteSampleError):
        evolve_ket(bad, [1.0, 0.0], TimeGrid(0, 1, 0.1))


# ---------------------------------------------------------------------------
# grids and piecewise generators


def test_grid_rejects_non_dividing_step():
    with pytest.raises(GridError):
        TimeGrid(0.0, 1.0, 0.3)


def test_grid_rejects_off_grid_boundary():
    with pytest.raises(GridError):
        TimeGrid(0.0, 1.0, 0.1, stage_boundaries=(0.55,))


def test_grid_segments_and_halving():
    grid = TimeGrid(0.0, 1.0, 0.1, stage_boundaries=(0.4,))
    assert grid.segment_indices() == [(0, 4), (4, 10)]
    half = grid.halved()
    assert half.n_steps == 20
    assert half.stage_boundaries == (0.4,)


def test_piecewise_generator_with_declared_boundary():
    # two constant pieces; the exact answer is a product of exponentials
    h1 = random_generator(2, seed=21)
    h2 = random_generator(2, seed=22)
    pieces = piecewise_operator([
        (0.0, 0.5, constant_operator(h1)),
        (0.5, 1.0, constant_operator(h2)),
    ])
    grid = TimeGrid(0.0, 1.0, 1e-3, stage_boundaries=(0.5,))
    traj = evolve_ket(pieces, [1.0, 0.0], grid)
    exact = matrix_exponential(-0.5j * h2) @ matrix_exponential(-0.5j * h1) @ np.array([1.0, 0.0])
    assert np.max(np.abs(traj.states[-1] - exact)) < 1e-10


def test_piecewise_generator_requires_boundary_on_grid():
    pieces = piecewise_operator([
        (0.0, 0.5, constant_operator(np.eye(2))),
        (0.5, 1.0, constant_operator(2 * np.eye(2))),
    ])
    with pytest.raises(GridError):
        evolve_ket(pieces, [1.0, 0.0], TimeGrid(0.0, 1.0, 0.2))


# ---------------------------------------------------------------------------
# propagators and biorthogonality


def test_propagator_starts_at_identity():
    H = smooth_generator(3, seed=7)
    U = propagator_ket(H, TimeGrid(0.0, 1.0, 1e-3))
    assert np.array_equal(U[0], np.eye(3))


def test_propagator_matches_expm_for_constant_hermitian():
    h = np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.1]], dtype=complex)
    grid = TimeGrid(0.0, 1.0, 5e-4)
    U = propagator_ket(constant_operator(h), grid)
    # independent oracle: eigendecomposition of the fixed Hermitian matrix
    w, v = np.linalg.eigh(h)
    for idx in (500, 2000):
        t = grid.times()[idx]
        exact = (v * np.exp(-1j * w * t)) @ v.conj().T
        assert np.max(np.abs(U[idx] - exact)) < 1e-9


def test_propagator_columns_match_state_runs():
    H = smooth_generator(3, seed=13)
    grid = TimeGrid(0.0, 1.0, 1e-3)
    U = propagator_ket(H, grid)
    for j in range(3):
        e = np.zeros(3, dtype=complex)
        e[j] = 1.0
        traj = evolve_ket(H, e, grid)
        assert np.max(np.abs(U[:, :, j] - traj.states)) < 1e-12


def test_bra_propagator_equals_ket_for_hermitian():
    h = random_generator(2, seed=17, hermitian=True)
    grid = TimeGrid(0.0, 1.0, 1e-3)
    U = propagator_ket(constant_operator(h), grid)
    V = propagator_bra(constant_operator(h), grid)
    assert np.max(np.abs(U - V)) < 1e-14


@pytest.mark.parametrize("dim,seed", [(2, 31), (2, 32), (3, 33), (3, 34)])
def test_biorthogonality_conserved_for_random_generators(dim, seed):
    H = smooth_generator(dim, seed)
    grid = TimeGrid(0.0, 2.0, 1e-3)
    assert biorthogonality_defect(H, grid) < 1e-6


def test_paired_overlaps_stay_kronecker():
    H = smooth_generator(3, seed=41)
    grid = TimeGrid(0.0, 2.0, 1e-3)
    kets = [evolve_ket(H, np.eye(3)[m], grid).states for m in range(3)]
    bras = [evolve_bra(H, np.eye(3)[k], grid).states for k in range(3)]
    for k in range(3):
        for m in range(3):
            overlap = np.einsum("ni,ni->n", bras[k].conj(), kets[m])
            assert np.max(np.abs(overlap - (1.0 if k == m else 0.0))) < 1e-6


# ---------------------------------------------------------------------------
# series-truncation oracle


def test_series_order_zero_is_identity():
    H = smooth_generator(2, seed=51)
    assert np.array_equal(dyson_truncation(H, 0.7, 0, 128), np.eye(2))


def test_series_order_one_constant():
    h = random_generator(2, seed=52)
    approx = dyson_truncation(constant_operator(h), 0.7, 1, 512)
    assert np.max(np.abs(approx - (np.eye(2) - 0.7j * h))) < 1e-12


def test_series_order_four_scales_as_fifth_power():
    h = random_generator(2, seed=53)
    H = constant_operator(h)
    errs = []
    for tau in (0.8, 0.4):
        ref = propagator_ket(H, TimeGrid(0.0, tau, tau / 400))[-1]
        errs.append(np.max(np.abs(ref - dyson_truncation(H, tau, 4, 16384))))
    assert np.log2(errs[0] / errs[1]) > 4.5


def test_series_rejects_bad_arguments():
    H = constant_operator(np.eye(2))
    with pytest.raises(ValueError):
        dyson_truncation(H, 0.5, -1, 128)
    with pytest.raises(ValueError):
        dyson_truncation(H, 0.5, 2, 0)


def test_series_errors_are_typed():
    H = constant_operator(np.eye(2))
    bad = ((0.5, -1, 128), (0.5, 2, 0), (-0.5, 2, 128),
           (0.5, 2.5, 128), (0.5, True, 128), (0.5, 2.0, 128),
           (0.5, 2, 1.5), (0.5, 2, True), (0.5, 2, "128"))
    for args in bad:
        with pytest.raises(InvalidArgumentError) as info:
            dyson_truncation(H, *args)
        assert isinstance(info.value, PassageError)
        assert isinstance(info.value, ValueError)


def test_series_accepts_numpy_integers():
    H = constant_operator(np.eye(2))
    assert np.array_equal(dyson_truncation(H, 0.5, np.int64(2), np.int32(128)),
                          dyson_truncation(H, 0.5, 2, 128))


def nfirst_dyson(H, t, order, n, t0=0.0):
    """Reference copy of the series with ``(n, K, K)`` einsum products."""
    K = H.dim
    total = np.eye(K, dtype=complex)
    h = (t - t0) / n
    hs = H.sample(t0 + h * np.arange(n))
    s_prev = np.broadcast_to(np.eye(K, dtype=complex), (n + 1, K, K))
    for _ in range(order):
        prod = (-1j * h) * np.einsum("nij,njk->nik", hs, s_prev[:n])
        s = np.zeros((n + 1, K, K), dtype=complex)
        np.cumsum(prod, axis=0, out=s[1:])
        total = total + s[n]
        s_prev = s
    return total


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_series_matches_nfirst_form_on_time_dependent_generator(order):
    H = smooth_generator(3, seed=57)
    got = dyson_truncation(H, 2.5, order, 4096, t0=0.2)
    assert np.max(np.abs(got - nfirst_dyson(H, 2.5, order, 4096, t0=0.2))) <= 1e-13


# ---------------------------------------------------------------------------
# batched propagators against the step-by-step loop


def loop_rk4_sweep(H, grid, y0):
    """Reference copy of the step-by-step RK4 loop; ``y0`` a vector or matrix."""
    y0 = np.asarray(y0, dtype=complex)
    times = grid.times()
    dt = grid.dt
    out = np.empty((times.size,) + y0.shape, dtype=complex)
    out[0] = y0
    y = y0
    for a, b in grid.segment_indices():
        op = H
        if H.pieces is not None:
            mid = 0.5 * (times[a] + times[b])
            op = next(p for lo, hi, p in H.pieces if lo <= mid <= hi)
        seg = times[a:b + 1]
        ts = np.empty(2 * (b - a) + 1)
        ts[0::2] = seg
        ts[1::2] = 0.5 * (seg[:-1] + seg[1:])
        gs = -1j * op.sample(ts)
        for i in range(b - a):
            g1, g2, g3 = gs[2 * i], gs[2 * i + 1], gs[2 * i + 2]
            k1 = g1 @ y
            k2 = g2 @ (y + (0.5 * dt) * k1)
            k3 = g2 @ (y + (0.5 * dt) * k2)
            k4 = g3 @ (y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            out[a + i + 1] = y
    return out


def cyclic_stage_generator(gamma_ratio=3.45):
    """Generator and grid of stage 1 of the first clockwise loop (T = 1)."""
    stage = clockwise_schedule(1, 1.0).stages[0]
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    params = ThreeLevelFrameParams(
        theta=stage.theta, theta_dot=stage.theta_dot, alpha=zero, alpha_dot=zero,
        phi_mix=stage.phi_mix, phi_mix_dot=stage.phi_mix_dot, beta=zero, beta_dot=zero,
    )
    grid = TimeGrid(stage.start, stage.end, 1.0 / 2000)
    gamma = lambda t: gamma_ratio * np.asarray(stage.theta_dot(t))
    controls = synthesize_three_level(
        params, gamma0=gamma, gamma1=gamma, gamma_e=lambda t: 0.5 * gamma(t),
        xi0=-np.pi / 2, xi1=np.pi / 2, xi_e=stage.xi_e,
        delta0=0.0, delta1=0.0, delta_e=0.0,
        varphi=np.pi / 2, varphi_a=np.pi / 2, grid=grid)
    return three_level_hamiltonian(controls), grid


def crossing_piecewise_generator():
    """Three smooth non-Hermitian pieces joined at two declared stage boundaries."""
    H = piecewise_operator([
        (0.0, 0.4, smooth_generator(3, seed=71)),
        (0.4, 1.1, smooth_generator(3, seed=73)),
        (1.1, 1.5, smooth_generator(3, seed=75)),
    ])
    return H, TimeGrid(0.0, 1.5, 1e-3, stage_boundaries=(0.4, 1.1))


@pytest.mark.parametrize("make", [cyclic_stage_generator, crossing_piecewise_generator])
def test_batched_propagators_match_step_loop(make):
    H, grid = make()
    eye = np.eye(H.dim, dtype=complex)
    U_loop = loop_rk4_sweep(H, grid, eye)
    V_loop = loop_rk4_sweep(H.adjoint(), grid, eye)
    # growing modes: the regime where regrouped products could drift
    assert np.max(np.abs(U_loop)) > 1.0
    assert np.max(np.abs(propagator_ket(H, grid) - U_loop)) <= 1e-12
    assert np.max(np.abs(propagator_bra(H, grid) - V_loop)) <= 1e-12
    prod = np.einsum("nji,njk->nik", V_loop.conj(), U_loop)
    assert abs(biorthogonality_defect(H, grid) - np.max(np.abs(prod - eye))) <= 1e-12


def nfirst_step_matrices(gs, dt):
    """Reference copy of the RK4 step matrices over an ``(2n+1, K, K)`` block."""
    g1, g2, g3 = gs[0:-1:2], gs[1::2], gs[2::2]
    k2 = g2 + (0.5 * dt) * (g2 @ g1)
    k3 = g2 + (0.5 * dt) * (g2 @ k2)
    k4 = g3 + dt * (g3 @ k3)
    return np.eye(gs.shape[-1]) + (dt / 6.0) * (g1 + 2.0 * (k2 + k3) + k4)


def two_level_generator():
    """A smooth non-Hermitian two-level generator over a 2000-step grid."""
    return smooth_generator(2, seed=81), TimeGrid(0.0, 2.0, 1e-3)


@pytest.mark.parametrize(
    "make", [cyclic_stage_generator, crossing_piecewise_generator, two_level_generator])
def test_time_last_kernels_match_nfirst_forms(make):
    H, grid = make()
    a, b = grid.segment_indices()[-1]
    times = grid.times()
    op = dynamics._piece_for_segment(H, times[a], times[b])
    gs = -1j * op.sample(dynamics._segment_sample_times(times, a, b))
    steps = dynamics._step_matrices(dynamics._time_last(gs), grid.dt)
    assert steps.shape == (b - a, H.dim, H.dim)
    assert np.max(np.abs(steps - nfirst_step_matrices(gs, grid.dt))) <= 1e-13
    U, V = propagator_ket(H, grid), propagator_bra(H, grid)
    prod = np.einsum("nji,njk->nik", V.conj(), U)
    defect = np.max(np.abs(prod - np.eye(H.dim)))
    assert abs(biorthogonality_defect(H, grid) - defect) <= 1e-13


@pytest.mark.parametrize("halve", [False, True], ids=["dt", "half_dt"])
@pytest.mark.parametrize("passage", ["ket", "bra"])
@pytest.mark.parametrize(
    "make", [cyclic_stage_generator, crossing_piecewise_generator, two_level_generator])
def test_state_sweeps_are_bit_identical_to_step_loop(make, passage, halve):
    H, grid = make()
    if halve:
        grid = grid.halved()
    psi0 = np.zeros(H.dim, dtype=complex)
    psi0[0] = 1.0
    evolve, op = (evolve_ket, H) if passage == "ket" else (evolve_bra, H.adjoint())
    assert np.array_equal(evolve(H, psi0, grid).states, loop_rk4_sweep(op, grid, psi0))


def test_cyclic_run_is_bit_identical_to_step_loop(monkeypatch):
    # the most rounding-sensitive cyclic input: four loops of growing modes
    config = ScenarioConfig("cyclic_ccw", T=0.5, loops=4, gamma_scale=1.15)
    fast = run_cyclic(config)
    monkeypatch.setattr(dynamics, "_rk4_sweep", loop_rk4_sweep)
    slow = run_cyclic(config)
    assert np.array_equal(fast.trajectory.states, slow.trajectory.states)
    assert np.array_equal(fast.phase.f_imag, slow.phase.f_imag)
    assert fast.residuals["step_check"] == slow.residuals["step_check"]


# ---------------------------------------------------------------------------
# matrix exponential


def test_expm_of_zero_is_identity():
    assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))


@pytest.mark.parametrize("dim,scale,seed", [(2, 1.0, 61), (2, 8.0, 62), (3, 1.0, 63), (3, 5.0, 64)])
def test_expm_matches_scipy(dim, scale, seed):
    a = scale * random_generator(dim, seed)
    assert np.max(np.abs(matrix_exponential(a) - scipy.linalg.expm(a))) < 1e-12


def test_expm_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        matrix_exponential(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# parity-time predicate


def test_pt_symmetry_examples():
    times = np.linspace(0.0, 2.0, 101)
    assert is_pt_symmetric_two_level(-np.pi / 2, np.pi / 2, 0.0, times)
    assert not is_pt_symmetric_two_level(-np.pi / 2, np.pi / 2, 0.3, times)
    assert not is_pt_symmetric_two_level(0.0, np.pi / 2, 0.0, times)
    # callable detuning that vanishes only somewhere is still asymmetric
    assert not is_pt_symmetric_two_level(
        -np.pi / 2, np.pi / 2, lambda t: 0.1 * np.sin(t), times)
