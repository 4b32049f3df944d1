"""Core propagation: paired evolutions, propagators, series oracle."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from nhpassage import dynamics
from nhpassage import (
    DimensionMismatchError,
    GridError,
    InvalidArgumentError,
    PassageError,
    ScenarioConfig,
    NonFiniteSampleError,
    TimeDependentOperator,
    TimeGrid,
    biorthogonality_defect,
    constant_operator,
    dyson_truncation,
    evolve_bra,
    evolve_ket,
    propagator_ket,
    run_cyclic,
    run_two_level,
    synthesize_three_level,
    three_level_hamiltonian,
)
from nhpassage.scenarios import _stages

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

    return TimeDependentOperator(dim=dim, values_at=batch)


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
        values_at=lambda ts: 0.5 * (H.sample(ts) + H.sample(ts).conj().transpose(0, 2, 1)),
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
    nan = np.array([[np.nan, 0], [0, 0]], dtype=complex)
    bad = TimeDependentOperator(
        dim=2, values_at=lambda ts: np.broadcast_to(nan, (len(ts), 2, 2))
    )
    with pytest.raises(NonFiniteSampleError, match=r"at t = 0\.0 contains"):
        evolve_ket(bad, [1.0, 0.0], TimeGrid(0, 1, 0.1))


def test_wrong_shape_samples_raise():
    flat = TimeDependentOperator(dim=2, values_at=lambda ts: np.zeros((len(ts), 2)))
    with pytest.raises(DimensionMismatchError):
        evolve_ket(flat, [1.0, 0.0], TimeGrid(0, 1, 0.1))


def test_overflowing_state_raises_with_its_time():
    # exp(1000 t) passes the largest squarable double before t = 0.4
    grow = constant_operator(np.diag([1000j, 0.0]))
    with pytest.raises(NonFiniteSampleError, match=r"t = 0\.3"):
        evolve_ket(grow, [1.0, 0.0], TimeGrid(0.0, 1.0, 1e-3))


# ---------------------------------------------------------------------------
# grids and stages


def test_grid_rejects_non_dividing_step():
    with pytest.raises(GridError):
        TimeGrid(0.0, 1.0, 0.3)


def test_grid_rejects_off_grid_boundary():
    with pytest.raises(GridError):
        TimeGrid(0.0, 1.0, 0.1, stage_boundaries=(0.55,))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [
    lambda: TimeGrid(0.0, 2.0, 1e-320),
    lambda: TimeGrid(0.0, np.inf, 1.0),
    lambda: TimeGrid(-np.inf, 1.0, 0.5),
    lambda: TimeGrid(0.0, 1e300, 1e-300),
    lambda: TimeGrid(0.0, 1.0, 0.5).index_of(np.nan),
    lambda: TimeGrid(0.0, 1.0, 0.5).index_of(np.inf),
    lambda: TimeGrid(0.0, 1.0, "0.1"),
    lambda: TimeGrid(0.0, None, 0.1),
    lambda: TimeGrid(None, 1.0, 0.1),
    lambda: TimeGrid(0.0, 1.0 + 0j, 0.1),
    lambda: TimeGrid(0.0, 1.0, 0.5).index_of(None),
    lambda: TimeGrid(0.0, 1.0, 0.5, stage_boundaries=("x",)),
    lambda: TimeGrid(0.0, 1.0, 0.5, stage_boundaries=(None,)),
    lambda: TimeGrid(0.0, 1.0, 0.5, stage_boundaries=(0.5, None)),
    lambda: TimeGrid(0.0, 1.0, 0.5, stage_boundaries=0.5),
], ids=["overflowing-steps", "infinite-tf", "infinite-t0", "steps-past-float-range",
        "nan-time", "infinite-time", "string-dt", "none-tf", "none-t0", "complex-tf",
        "none-time", "string-boundary", "none-boundary", "unsortable-boundaries",
        "boundaries-not-a-sequence"])
def test_grid_rejects_non_finite_bounds_step_counts_and_times(make):
    with pytest.raises(GridError, match="is not a finite number of steps"):
        make()


@pytest.mark.parametrize("make", [
    lambda: TimeGrid(0.0, 2.0, 1e-300),
    lambda: TimeGrid(0.0, 1.0, 1e-19),
    lambda: TimeGrid(0.0, 1.0, 0.5).index_of(1e300),
], ids=["tf", "tf-just-past-intp", "time"])
def test_grid_rejects_a_step_count_numpy_cannot_index(make):
    # a finite step count past np.intp: linspace would raise an untyped ValueError
    with pytest.raises(GridError, match="more than numpy can index"):
        make()


def test_grid_segments_and_halving():
    grid = TimeGrid(0.0, 1.0, 0.1, stage_boundaries=(0.7, 0.4))
    assert grid.stage_boundaries == (0.4, 0.7)
    assert [grid.index_of(b) for b in grid.stage_boundaries] == [4, 7]
    half = grid.halved()
    assert half.n_steps == 20
    assert half.stage_boundaries == (0.4, 0.7)


def test_piecewise_generator_with_declared_boundary():
    # two constant pieces run as two stages that meet at t = 0.5, the state
    # handed across; the exact answer is a product of exponentials
    h1 = random_generator(2, seed=21)
    h2 = random_generator(2, seed=22)
    first = evolve_ket(constant_operator(h1), [1.0, 0.0], TimeGrid(0.0, 0.5, 1e-3))
    second = evolve_ket(constant_operator(h2), first.states[-1], TimeGrid(0.5, 1.0, 1e-3))
    exact = scipy.linalg.expm(-0.5j * h2) @ scipy.linalg.expm(-0.5j * h1) @ np.array([1.0, 0.0])
    assert np.max(np.abs(second.states[-1] - exact)) < 1e-10


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
    V = propagator_ket(constant_operator(h).adjoint(), grid)
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
        errs.append(np.max(np.abs(ref - dyson_truncation(H, tau, 4, 256))))
    assert np.log2(errs[0] / errs[1]) > 4.5


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_series_is_the_taylor_polynomial_of_a_constant_generator_at_two_steps(order):
    # every integrand up to order 4 is a cubic, which Simpson integrates exactly
    h = random_generator(3, seed=58)
    tau = 0.9
    taylor = sum(np.linalg.matrix_power(-1j * tau * h, k) / math.factorial(k)
                 for k in range(order + 1))
    for steps in (2, 64):
        got = dyson_truncation(constant_operator(h), tau, order, steps)
        assert np.max(np.abs(got - taylor)) <= 1e-14


def test_series_quadrature_error_falls_sixteenfold_per_halving():
    # order 12 on a short horizon leaves only the O(h^4) quadrature error
    H = smooth_generator(3, seed=59)
    t0, t = 0.2, 0.6
    ref = propagator_ket(H, TimeGrid(t0, t, (t - t0) / 20000))[-1]
    errs = [np.max(np.abs(dyson_truncation(H, t, 12, steps, t0=t0) - ref))
            for steps in (8, 16, 32)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 < coarse / fine < 18.0


def test_series_rejects_an_odd_step_count():
    H = constant_operator(np.eye(2))
    for steps in (1, 3, 129):
        with pytest.raises(InvalidArgumentError, match="even"):
            dyson_truncation(H, 0.5, 2, steps)


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


@pytest.mark.parametrize("name", ["t", "t0"])
@pytest.mark.parametrize("value", ["1", None, 1j, True])
def test_series_names_a_time_that_is_not_a_real_number(name, value):
    times = {"t": 0.5, "t0": 0.0, name: value}
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be a real number"):
        dyson_truncation(constant_operator(np.eye(2)), times["t"], 3, 4, t0=times["t0"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t,t0", [(np.nan, 0.0), (np.inf, 0.0), (1.0, -np.inf), (1.0, np.nan)])
def test_series_rejects_non_finite_times(t, t0):
    with pytest.raises(InvalidArgumentError, match="must be finite"):
        dyson_truncation(constant_operator(np.eye(2)), t, 3, 4, t0=t0)


def test_series_accepts_numpy_integers():
    H = constant_operator(np.eye(2))
    assert np.array_equal(dyson_truncation(H, 0.5, np.int64(2), np.int32(128)),
                          dyson_truncation(H, 0.5, 2, 128))


def nfirst_dyson(H, t, order, n, t0=0.0):
    """Reference copy of the series with ``(n, K, K)`` einsum products and the
    cumulative Simpson rule taken node by node."""
    K = H.dim
    total = np.eye(K, dtype=complex)
    h = (t - t0) / n
    gs = -1j * H.sample(t0 + h * np.arange(n + 1))
    s_prev = np.broadcast_to(np.eye(K, dtype=complex), (n + 1, K, K))
    for _ in range(order):
        f = np.einsum("nij,njk->nik", gs, s_prev)
        s = np.zeros((n + 1, K, K), dtype=complex)
        for j in range(0, n, 2):
            s[j + 1] = s[j] + h / 12.0 * (5.0 * f[j] + 8.0 * f[j + 1] - f[j + 2])
            s[j + 2] = s[j] + h / 3.0 * (f[j] + 4.0 * f[j + 1] + f[j + 2])
        total = total + s[n]
        s_prev = s
    return total


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_series_matches_nfirst_form_on_time_dependent_generator(order):
    H = smooth_generator(3, seed=57)
    got = dyson_truncation(H, 2.5, order, 256, t0=0.2)
    assert np.max(np.abs(got - nfirst_dyson(H, 2.5, order, 256, t0=0.2))) <= 1e-13


# ---------------------------------------------------------------------------
# batched propagators against the step-by-step loop


def loop_rk4_sweep(H, grid, y0, bra=False):
    """Reference copy of the step-by-step RK4 loop, under ``H^dag`` for ``bra``;
    ``y0`` a vector or matrix."""
    y0 = np.asarray(y0, dtype=complex)
    times = grid.times()
    dt = grid.dt
    out = np.empty((times.size,) + y0.shape, dtype=complex)
    out[0] = y0
    y = y0
    ts = np.empty(2 * times.size - 1)
    ts[0::2] = times
    ts[1::2] = 0.5 * (times[:-1] + times[1:])
    gs = H.sample(ts)
    gs = -1j * (gs.conj().transpose(0, 2, 1) if bra else gs)
    for i in range(times.size - 1):
        g1, g2, g3 = gs[2 * i], gs[2 * i + 1], gs[2 * i + 2]
        k1 = g1 @ y
        k2 = g2 @ (y + (0.5 * dt) * k1)
        k3 = g2 @ (y + (0.5 * dt) * k2)
        k4 = g3 @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out[i + 1] = y
    return out


def complex_rk4_sweep(H, grid, y0, bra=False):
    """Reference copy of the state sweep's step loop in Python ``complex``
    arithmetic: the sums of ``loop_rk4_sweep`` in their order, each complex
    product rounded as Python rounds it; ``y0`` a vector."""
    times = grid.times()
    dt = grid.dt
    gs = H.sample(dynamics._sample_times(times))
    gs = (-1j * (gs.conj().transpose(0, 2, 1) if bra else gs)).tolist()
    y = np.asarray(y0, dtype=complex).tolist()

    def matvec(g, v):
        out = []
        for row in g:
            acc = row[0] * v[0]
            for gij, vj in zip(row[1:], v[1:]):
                acc = acc + gij * vj
            out.append(acc)
        return out

    out = [y]
    for i in range(times.size - 1):
        g1, g2, g3 = gs[2 * i], gs[2 * i + 1], gs[2 * i + 2]
        k1 = matvec(g1, y)
        k2 = matvec(g2, [a + (0.5 * dt) * b for a, b in zip(y, k1)])
        k3 = matvec(g2, [a + (0.5 * dt) * b for a, b in zip(y, k2)])
        k4 = matvec(g3, [a + dt * b for a, b in zip(y, k3)])
        y = [a + (dt / 6.0) * (p + 2.0 * (q + r) + s)
             for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        out.append(y)
    return np.array(out, dtype=complex)


def cyclic_stage_generator(gamma_ratio=3.45):
    """Generator and grid of stage 1 of the first clockwise loop (T = 1), its
    gain/loss rate ``gamma_ratio theta_dot`` rather than the run's."""
    stage = _stages(ScenarioConfig("cyclic_cw"))[0]
    params = stage.frame_params
    gamma = lambda t: gamma_ratio * np.asarray(params.theta_dot(t))
    controls = synthesize_three_level(
        params, gamma0=gamma, gamma1=gamma, gamma_e=lambda t: 0.5 * gamma(t),
        xi0=-np.pi / 2, xi1=np.pi / 2, xi_e=stage.controls.xi_e,
        delta0=0.0, delta1=0.0, delta_e=0.0,
        varphi=np.pi / 2, varphi_a=np.pi / 2, grid=stage.grid)
    return three_level_hamiltonian(controls), stage.grid


@pytest.mark.parametrize("make", [cyclic_stage_generator])
def test_batched_propagators_match_step_loop(make):
    H, grid = make()
    eye = np.eye(H.dim, dtype=complex)
    U_loop = loop_rk4_sweep(H, grid, eye)
    V_loop = loop_rk4_sweep(H.adjoint(), grid, eye)
    # growing modes: the regime where regrouped products could drift
    assert np.max(np.abs(U_loop)) > 1.0
    assert np.max(np.abs(propagator_ket(H, grid) - U_loop)) <= 1e-12
    assert np.max(np.abs(propagator_ket(H.adjoint(), grid) - V_loop)) <= 1e-12
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


def one_level_generator():
    """K = 1, which runs the generic step kernel."""
    return smooth_generator(1, seed=83), TimeGrid(0.0, 1.0, 1e-3)


def four_level_generator():
    """K = 4, which runs the generic step kernel."""
    return smooth_generator(4, seed=85), TimeGrid(0.0, 1.0, 1e-3)


def step_increments(H, grid, bra=False):
    """The increments of ``H`` on ``grid``, from one block of its samples at the
    grid points and midpoints."""
    return dynamics._increments(H.sample(dynamics._sample_times(grid.times())), grid.dt, bra)


@pytest.mark.parametrize("make", [cyclic_stage_generator, two_level_generator])
def test_time_last_kernels_match_nfirst_forms(make):
    H, grid = make()
    gs = -1j * H.sample(dynamics._sample_times(grid.times()))
    incs = step_increments(H, grid)
    assert incs.shape == (H.dim, H.dim, grid.n_steps)
    steps = np.moveaxis(incs, -1, 0) + np.eye(H.dim)
    assert np.max(np.abs(steps - nfirst_step_matrices(gs, grid.dt))) <= 1e-13
    U, V = propagator_ket(H, grid), propagator_ket(H.adjoint(), grid)
    prod = np.einsum("nji,njk->nik", V.conj(), U)
    defect = np.max(np.abs(prod - np.eye(H.dim)))
    assert abs(biorthogonality_defect(H, grid) - defect) <= 1e-13


# ---------------------------------------------------------------------------
# the in-place increments on contiguous blocks against the interleaved
# expression they replaced, bitwise


def reference_step_increments(gs, dt):
    """Reference copy of the RK4 increments over the interleaved time-last
    ``(K, K, 2n+1)`` block of ``-iH``, read through stride-2 views."""
    mul = dynamics._mul
    g1, g2, g3 = gs[..., 0:-1:2], gs[..., 1::2], gs[..., 2::2]
    k2 = g2 + (0.5 * dt) * mul(g2, g1)
    k3 = g2 + (0.5 * dt) * mul(g2, k2)
    k4 = g3 + dt * mul(g3, k3)
    return (dt / 6.0) * (g1 + 2.0 * (k2 + k3) + k4)


def reference_halved(H, psi0, grid):
    """Reference copy of the dt/2 re-run: increments of the interleaved block,
    paired through stride-2 views."""
    mul = dynamics._mul
    half = grid.halved()
    gs = dynamics._time_last(-1j * H.sample(dynamics._sample_times(half.times())))
    d = reference_step_increments(gs, half.dt)
    pairs = d[..., 0::2] + d[..., 1::2] + mul(d[..., 1::2], d[..., 0::2])
    return reference_prefix_products(pairs, psi0).T


def same_bits(a, b):
    """Equal shapes and equal bytes: signed zeros and NaN payloads included."""
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def assert_increments_are_the_reference(H, grid):
    gs = dynamics._time_last(-1j * H.sample(dynamics._sample_times(grid.times())))
    assert same_bits(step_increments(H, grid), reference_step_increments(gs, grid.dt))
    # the bra increments read the same blocks conjugate-transposed
    assert same_bits(step_increments(H, grid, bra=True),
                     reference_step_increments(-gs.conj().transpose(1, 0, 2), grid.dt))


def assert_halved_is_the_reference(H, grid):
    psi0 = np.zeros(H.dim, dtype=complex)
    psi0[-1] = 1.0
    got = dynamics.evolve_ket_halved(H, psi0, grid).states
    assert same_bits(got, reference_halved(H, psi0, grid))


def run_states(run):
    """``run()``'s states, or the message of the :class:`NonFiniteSampleError` it raised."""
    try:
        return run().states
    except NonFiniteSampleError as error:
        return str(error)


def assert_chunked_runs_are_one_chunk_runs(H, grid, steps):
    """The ket and bra sweeps and the dt/2 re-runs of ``H`` and ``H^dag``, cut into
    chunks of ``steps`` sweep steps (``steps // 2`` re-run steps, at least one),
    against the same runs in one chunk: each chunk samples its own edge points
    and starts from the state its predecessor wrote."""
    psi0 = np.linspace(1.0, 2.0, H.dim) + 0.5j
    runs = [lambda: evolve_ket(H, psi0, grid), lambda: evolve_bra(H, psi0, grid),
            lambda: dynamics.evolve_ket_halved(H, psi0, grid),
            lambda: dynamics.evolve_ket_halved(H.adjoint(), psi0, grid)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_CHUNK_BYTES", chunk_steps(2 * grid.n_steps, H.dim))
        whole = [run_states(run) for run in runs]
        mp.setattr(dynamics, "_CHUNK_BYTES", chunk_steps(steps, H.dim))
        for run, want in zip(runs, whole):
            got = run_states(run)
            if isinstance(want, str):  # both runs overflow, at the same time
                assert got == want
            else:
                assert same_bits(got, want)


@settings(max_examples=40, deadline=None)
@given(K=st.integers(1, 4), n=st.integers(1, 300), seed=st.integers(0, 2**16),
       dt=st.sampled_from([1e-3, 0.05, 0.4]), steps=st.integers(1, 320))
def test_increments_and_halved_run_are_bitwise_the_reference(K, n, seed, dt, steps):
    H, grid = smooth_generator(K, seed), TimeGrid(0.0, n * dt, dt)
    assert_increments_are_the_reference(H, grid)
    assert_halved_is_the_reference(H, grid)
    assert_chunked_runs_are_one_chunk_runs(H, grid, steps)


@pytest.mark.parametrize("make", [
    cyclic_stage_generator, two_level_generator, one_level_generator, four_level_generator])
def test_increments_and_halved_run_are_bitwise_the_reference_on_long_grids(make):
    H, grid = make()
    assert_increments_are_the_reference(H, grid)
    assert_halved_is_the_reference(H, grid)


@pytest.mark.parametrize("gamma_scale", [0.8, 1.15])
@pytest.mark.parametrize("scenario", ["two_level_a", "two_level_b", "two_level_c",
                                      "two_level_d", "cyclic_cw", "cyclic_ccw"])
def test_stage_increments_and_halved_runs_are_bitwise_the_reference(scenario, gamma_scale):
    for stage in _stages(ScenarioConfig(scenario, gamma_scale=gamma_scale)):
        H = stage.H if stage.passage == "ket" else stage.H.adjoint()
        assert_increments_are_the_reference(H, stage.grid)
        assert_halved_is_the_reference(H, stage.grid)


# ---------------------------------------------------------------------------
# the block-major scan against the time-major one it replaced, bitwise


def reference_prefix_products(incs, u0):
    """Reference copy of the blocked scan with time-major ``(K, K, m, nb)`` blocks,
    strided per-step slices and a transposed carry view in the closing product."""
    mul = dynamics._mul
    K, n = incs.shape[0], incs.shape[-1] + 1
    m = max(1, int(np.sqrt(n)))
    nb = -(-n // m)
    padded = np.zeros((K, K, nb * m), dtype=complex)
    padded[..., 1:n] = incs
    F = np.ascontiguousarray(padded.reshape(K, K, nb, m).transpose(0, 1, 3, 2))
    for j in range(1, m):
        F[:, :, j] += F[:, :, j - 1] + mul(F[:, :, j], F[:, :, j - 1])
    ends = np.moveaxis(F[:, :, -1], -1, 0)
    carry = np.empty((nb,) + u0.shape, dtype=complex)
    carry[0] = u0
    for i in range(1, nb):
        carry[i] = carry[i - 1] + ends[i - 1] @ carry[i - 1]
    c = np.moveaxis(carry.reshape(nb, K, -1), 0, -1)[:, :, None]
    out = (c + mul(F, c)).transpose(0, 1, 3, 2).reshape(K, -1, nb * m)
    return out[..., :n].reshape(u0.shape + (n,))


def drawn_increments(K, n, seed, scale):
    rng = np.random.default_rng(seed)
    incs = scale * (rng.normal(size=(K, K, n)) + 1j * rng.normal(size=(K, K, n)))
    u0s = (rng.normal(size=K) + 1j * rng.normal(size=K),
           rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K)))
    return incs, u0s


def assert_scan_is_the_reference(incs, u0s):
    """The scan of ``incs``, written in chunks with edges on and off block edges
    or as one, and closed in ranges of the same budget, against the reference."""
    K, n = incs.shape[0], incs.shape[-1] + 1
    for steps in edge_chunks(n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_CHUNK_BYTES", steps * K * K * 16)
            for u0 in u0s:
                F = dynamics._scan_blocks(n, K)
                for i in range(0, n - 1, steps):
                    dynamics._put(F, i, incs[..., i:i + steps])
                got = dynamics._products(dynamics._scan(F), u0, n)
                assert got.shape == u0.shape + (n,)
                assert np.array_equal(got, reference_prefix_products(incs, u0))


@settings(max_examples=80, deadline=None)
@given(K=st.integers(1, 4), n=st.integers(1, 300), seed=st.integers(0, 2**16),
       scale=st.sampled_from([1e-4, 1e-2, 0.3]))
def test_block_major_scan_is_bitwise_the_reference(K, n, seed, scale):
    assert_scan_is_the_reference(*drawn_increments(K, n, seed, scale))


# the padding edges and the perfect squares n + 1 = 4, 64
@pytest.mark.parametrize("n", [1, 2, 3, 4, 63, 64, 4000, 4001])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_block_major_scan_is_bitwise_the_reference_at_block_edges(K, n):
    assert_scan_is_the_reference(*drawn_increments(K, n, seed=97 * K + n, scale=1e-2))


def reference_propagators(H, grid):
    """Ket and bra propagators and ``V^dag U`` by the reference increments and
    scan, with the ``-1j`` product and the time-last copies as separate passes."""
    eye = np.eye(H.dim, dtype=complex)
    gs = dynamics._time_last(-1j * H.sample(dynamics._sample_times(grid.times())))
    gs_bra = -gs.conj().transpose(1, 0, 2)
    U, V = (np.moveaxis(reference_prefix_products(reference_step_increments(g, grid.dt), eye),
                        -1, 0) for g in (gs, gs_bra))
    prod = np.einsum("jin,jkn->ikn", dynamics._time_last(V).conj(), dynamics._time_last(U))
    prod[np.diag_indices(H.dim)] -= 1.0
    return U, V, float(np.max(np.abs(prod)))


def two_level_bra_stage_generator():
    """The generator and grid of the bra-passage two-level scenario (c)."""
    stage = _stages(ScenarioConfig("two_level_c", T=0.5, gamma_scale=1.15))[0]
    assert stage.passage == "bra"
    return stage.H, stage.grid


@pytest.mark.parametrize("make", [cyclic_stage_generator, two_level_bra_stage_generator])
def test_propagators_and_defect_are_bitwise_the_reference_path(make):
    H, grid = make()
    U, V, defect = reference_propagators(H, grid)
    assert np.array_equal(propagator_ket(H, grid), U)
    assert np.array_equal(propagator_ket(H.adjoint(), grid), V)
    assert biorthogonality_defect(H, grid) == defect


# ---------------------------------------------------------------------------
# the certificates a chunk at a time: bitwise the one-block reference at any
# chunk edge


def chunk_steps(steps, K):
    """A chunk budget of ``steps`` steps of a K-level grid's samples at grid points
    and midpoints; the dt/2 re-run, which reads four samples a step, takes half."""
    return steps * 2 * K * K * 16


def edge_chunks(n):
    """Chunk lengths in steps for an ``n``-point grid cut into blocks of ``m``
    points, increment ``i`` at point ``i + 1``: ``m - 1`` puts every chunk edge
    of the increments on a block edge and ``2 (m - 1)`` every re-run chunk edge,
    ``1`` and ``m`` put edges inside blocks, and ``n`` leaves one chunk."""
    m = max(1, int(np.sqrt(n)))
    return sorted({1, max(1, m - 1), m, max(1, 2 * (m - 1)), n})


def assert_chunked_certificates_are_the_reference(H, grid):
    """The increments, propagators, defect and dt/2 re-run of ``H`` on ``grid``,
    at the chunk budget in force, against the one-block reference."""
    gs = H.sample(dynamics._sample_times(grid.times()))
    ref = dynamics._time_last(-1j * gs)
    for bra, g in ((False, ref), (True, -ref.conj().transpose(1, 0, 2))):
        chunks = [dynamics._increments(gs[2 * s0:2 * s1 + 1], grid.dt, bra)
                  for s0, s1 in dynamics._chunks(grid.n_steps, chunk_steps(1, H.dim))]
        assert sum(c.shape[-1] for c in chunks) == grid.n_steps
        assert same_bits(np.concatenate(chunks, axis=-1), reference_step_increments(g, grid.dt))
    U, V, defect = reference_propagators(H, grid)
    assert np.array_equal(propagator_ket(H, grid), U)
    assert np.array_equal(propagator_ket(H.adjoint(), grid), V)
    assert biorthogonality_defect(H, grid) == defect
    assert_halved_is_the_reference(H, grid)


@settings(max_examples=40, deadline=None)
@given(K=st.integers(1, 4), n=st.integers(1, 300), seed=st.integers(0, 2**16),
       dt=st.sampled_from([1e-3, 0.05, 0.4]), chunk=st.integers(1, 320))
def test_chunked_certificates_are_bitwise_the_reference(K, n, seed, dt, chunk):
    H, grid = smooth_generator(K, seed), TimeGrid(0.0, n * dt, dt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_CHUNK_BYTES", chunk_steps(chunk, K))
        assert_chunked_certificates_are_the_reference(H, grid)


@pytest.mark.parametrize("make", [cyclic_stage_generator, two_level_bra_stage_generator])
def test_chunked_stage_certificates_are_bitwise_the_reference(monkeypatch, make):
    H, grid = make()
    for steps in edge_chunks(grid.n_steps + 1)[1:-1]:  # several chunks, edges on and off blocks
        monkeypatch.setattr(dynamics, "_CHUNK_BYTES", chunk_steps(steps, H.dim))
        assert_chunked_certificates_are_the_reference(H, grid)


def growing_generators():
    """Generators whose propagators overflow: ``V^dag U`` meets ``0 * inf``."""
    return [
        (constant_operator(np.diag([1000j, 0.0])), TimeGrid(0.0, 1.0, 1e-3)),
        (constant_operator(np.array([[1000j, 1e3], [0.0, -500j]])), TimeGrid(0.0, 1.0, 1e-3)),
        (constant_operator(np.array([[800j, 1.0, 0.0], [0.0, 0.0, 1.0], [1e3, 0.0, 300j]])),
         TimeGrid(0.0, 2.0, 1e-3)),
    ]


@pytest.mark.parametrize("steps", [None, 1, 37])
def test_an_overflowing_defect_is_the_reference_value(monkeypatch, steps):
    # a NaN anywhere on the grid is the defect, as one max over the whole grid gives;
    # the padding past the grid's last block is not read
    for H, grid in growing_generators():
        if steps is not None:
            monkeypatch.setattr(dynamics, "_CHUNK_BYTES", chunk_steps(steps, H.dim))
        with np.errstate(all="ignore"):
            got = biorthogonality_defect(H, grid)
            want = reference_propagators(H, grid)[2]
        assert np.isnan(want)
        assert same_bits(np.float64(got), np.float64(want))


# ---------------------------------------------------------------------------
# memory: the certificates hold their scan blocks and a chunk or two


def traced_peak(call):
    """Bytes ``call()`` allocates at its peak, above what was live before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certificates_of_a_long_stage_hold_their_scan_blocks_and_two_chunks():
    # a 40 000-step three-level stage; the one-block certificates peaked at 46 MB
    # (defect) and 56 MB (dt/2 re-run)
    stage = _stages(ScenarioConfig("cyclic_ccw", T=10.0, dt=1 / 2000, gamma_scale=1.15))[1]
    grid, K = stage.grid, 3
    assert grid.n_steps == 40_000
    n = grid.n_steps + 1
    m = int(np.sqrt(n))
    # one passage's scan blocks, which the chunks are written into and the
    # scan advances in place
    block = m * K * K * -(-n // m) * 16
    # a chunk: its samples and the sample set they were read from, their -1j
    # copies and its increments, at most four budgets
    chunk = 4 * dynamics._CHUNK_BYTES
    assert traced_peak(lambda: biorthogonality_defect(stage.H, grid)) <= 2 * block + 2 * chunk
    states = n * K * 16  # the re-run's result
    psi0 = np.eye(K)[1]
    assert traced_peak(lambda: dynamics.evolve_ket_halved(stage.H, psi0, grid)) <= (
        block + states + 2 * chunk)


def test_a_bra_sweep_over_a_table_holds_no_adjoint_copy():
    # a 4000-step three-level bra stage, its H served from a caller's table of
    # its samples: the sweep reads each chunk conjugate-transposed as it
    # converts it, so it peaks level with a ket sweep; an adjoint copy of the
    # table alone is 1.15 MB
    stage = _stages(ScenarioConfig("cyclic_ccw"))[0]
    assert stage.passage == "bra"
    grid = stage.grid
    times = dynamics._sample_times(grid.times())
    table = stage.H.sample(times)
    H = TimeDependentOperator(3, lambda ts: table[np.searchsorted(times, ts)])
    psi0 = np.eye(3)[0]
    ket = traced_peak(lambda: evolve_ket(H, psi0, grid))
    bra = traced_peak(lambda: evolve_bra(H, psi0, grid))
    assert bra <= 1.25 * ket
    assert np.array_equal(evolve_bra(H, psi0, grid).states,
                          evolve_ket(H.adjoint(), psi0, grid).states)


SWEEP_GENERATORS = [
    cyclic_stage_generator, two_level_generator, one_level_generator, four_level_generator]


@pytest.mark.parametrize("halve", [False, True], ids=["dt", "half_dt"])
@pytest.mark.parametrize("passage", ["ket", "bra"])
@pytest.mark.parametrize("make", SWEEP_GENERATORS)
def test_state_sweeps_are_bit_identical_to_step_loop(make, passage, halve):
    H, grid = make()
    if halve:
        grid = grid.halved()
    psi0 = np.zeros(H.dim, dtype=complex)
    psi0[0] = 1.0
    evolve, op = (evolve_ket, H) if passage == "ket" else (evolve_bra, H.adjoint())
    states = evolve(H, psi0, grid).states
    assert np.array_equal(states, complex_rk4_sweep(op, grid, psi0))
    # the numpy loop rounds each complex product with a fused multiply-add
    numpy_loop = loop_rk4_sweep(op, grid, psi0)
    assert np.max(np.abs(states - numpy_loop)) <= 1e-14 * np.max(np.abs(states))


@pytest.mark.parametrize("passage", ["ket", "bra"])
@pytest.mark.parametrize("make", SWEEP_GENERATORS)
def test_halved_scan_matches_half_step_sweep(make, passage):
    H, grid = make()
    psi0 = np.zeros(H.dim, dtype=complex)
    psi0[0] = 1.0
    op = H if passage == "ket" else H.adjoint()
    evolve = evolve_ket if passage == "ket" else evolve_bra
    swept = evolve(H, psi0, grid.halved()).states[::2]
    scanned = dynamics.evolve_ket_halved(op, psi0, grid)
    assert np.array_equal(scanned.times, grid.times())
    assert np.max(np.abs(scanned.states - swept)) <= 1e-12 * np.max(np.abs(swept))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_halved_scan_overflow_raises_with_its_time():
    grow = constant_operator(np.diag([1000j, 0.0]))
    with pytest.raises(NonFiniteSampleError, match=r"t = 0\.3"):
        dynamics.evolve_ket_halved(grow, [1.0, 0.0], TimeGrid(0.0, 1.0, 1e-3))


def step_shift(report):
    """The run's dt/2 shift, as its ``step_halving_shift`` check records it."""
    return next(c.value for c in report.checks if c.name == "step_halving_shift")


def test_cyclic_run_is_bit_identical_to_step_loop(monkeypatch):
    # the most rounding-sensitive cyclic input: four loops of growing modes
    config = ScenarioConfig("cyclic_ccw", T=0.5, loops=4, gamma_scale=1.15)
    fast = run_cyclic(config)
    monkeypatch.setattr(dynamics, "_rk4_sweep", complex_rk4_sweep)
    slow = run_cyclic(config)
    assert np.array_equal(fast.trajectory.states, slow.trajectory.states)
    assert np.array_equal(fast.phase.f_imag, slow.phase.f_imag)
    assert step_shift(fast) == step_shift(slow)
    monkeypatch.setattr(dynamics, "_rk4_sweep", loop_rk4_sweep)
    numpy_loop = run_cyclic(config)
    pops = fast.trajectory.populations
    assert np.max(np.abs(pops - numpy_loop.trajectory.populations)) <= 1e-30
    # guards the accuracy of the batched dt/2 re-run on this input
    assert step_shift(fast) <= 5e-9


@pytest.mark.parametrize("scenario", ["two_level_a", "two_level_c"], ids=["ket", "bra"])
def test_two_level_run_is_bit_identical_to_step_loop(monkeypatch, scenario):
    config = ScenarioConfig(scenario, T=0.5, gamma_scale=1.15)
    fast = run_two_level(config)
    monkeypatch.setattr(dynamics, "_rk4_sweep", complex_rk4_sweep)
    slow = run_two_level(config)
    assert np.array_equal(fast.trajectory.states, slow.trajectory.states)
    assert np.array_equal(fast.phase.f_imag, slow.phase.f_imag)
    assert step_shift(fast) == step_shift(slow)
    monkeypatch.setattr(dynamics, "_rk4_sweep", loop_rk4_sweep)
    numpy_loop = run_two_level(config)
    pops = fast.trajectory.populations
    assert np.max(np.abs(pops - numpy_loop.trajectory.populations)) <= 1e-30


# ---------------------------------------------------------------------------
# non-finite samples


@pytest.mark.parametrize("chunked", [False, True], ids=["fresh", "chunked"])
def test_a_nan_in_a_long_block_names_its_time(monkeypatch, chunked):
    # a NaN at one middle time of a 16 001-point block, an Inf at a later one;
    # a sweep reads the block in chunks, and its first chunk holds neither
    times = np.linspace(0.0, 4.0, 16_001)

    def values_at(ts):
        block = np.zeros((len(ts), 3, 3), dtype=complex)
        block[ts == 2.25, 1, 2] = complex(0.0, np.nan)
        block[ts == 3.0, 0, 0] = np.inf
        return block

    H = TimeDependentOperator(dim=3, values_at=values_at)
    with pytest.raises(NonFiniteSampleError,
                       match=r"^generator sample at t = 2\.25 contains NaN or Inf$"):
        if chunked:
            monkeypatch.setattr(dynamics, "_CHUNK_BYTES", chunk_steps(1000, 3))
            evolve_ket(H, np.eye(3)[0], TimeGrid(0.0, 4.0, 4.0 / 8000))
        else:
            H.sample(times)


# ---------------------------------------------------------------------------
# the dt/2 re-run against an extended-precision oracle


def clongdouble_rk4(H, psi0, grid):
    """Sequential RK4 at ``grid.dt / 2`` in ``np.clongdouble`` on the float64
    samples, at the points of ``grid``."""
    half = grid.halved()
    gs = (-1j * H.sample(dynamics._sample_times(half.times()))).astype(np.clongdouble)
    steps = nfirst_step_matrices(gs, np.longdouble(half.dt))
    out = np.empty((half.n_steps + 1, H.dim), dtype=np.clongdouble)
    out[0] = psi0
    for i, step in enumerate(steps, 1):
        out[i] = step @ out[i - 1]
    return out[::2]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("scenario,loops", [
    ("cyclic_ccw", 4), ("cyclic_cw", 4), ("two_level_c", 1)])
def test_halved_scan_is_closer_to_extended_precision_than_step_sweep(scenario, loops):
    # stage by stage, each path handing its own state across the boundaries
    stages = _stages(ScenarioConfig(scenario, T=0.5, loops=loops, gamma_scale=1.15))
    psi0 = np.zeros(stages[0].H.dim, dtype=complex)
    psi0[1 if scenario == "two_level_c" else 0] = 1.0
    exact, scan, sweep = psi0.astype(np.clongdouble), psi0, psi0
    scan_err = sweep_err = 0.0
    for stage in stages:
        H = stage.H if stage.passage == "ket" else stage.H.adjoint()
        ref = clongdouble_rk4(H, exact, stage.grid)
        got = dynamics.evolve_ket_halved(H, scan, stage.grid).states
        swept = evolve_ket(H, sweep, stage.grid.halved()).states[::2]
        exact, scan, sweep = ref[-1], got[-1], swept[-1]
        pops = np.abs(ref) ** 2
        scan_err = max(scan_err, float(np.max(np.abs(np.abs(got) ** 2 - pops))))
        sweep_err = max(sweep_err, float(np.max(np.abs(np.abs(swept) ** 2 - pops))))
    assert scan_err <= sweep_err
