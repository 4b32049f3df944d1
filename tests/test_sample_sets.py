"""One sample set per stage: what the runner reads from it, against the public calls.

The runner evaluates each frame angle, gain and trig factor of a stage once
on the stage's grid points and RK4 midpoints, and once more on the dt/2
re-run's times, a contiguous chunk of them at a time, and reports the
consistency residual synthesis recorded.  Every number it takes from a set
must be the number a public call computes on its own, bit for bit:
``H.sample`` for the generator table and the dt/2 samples (the chunks'
samples joined), ``phase_two_level`` for the phase,
``two_level_consistency_residual`` for the consistency value, and
``frame.sample``/``sample_derivative`` for the frame table, which the runner
slices from the set's even entries.  The inputs are the six built-ins and
controls drawn as in ``test_synthesis_oracle``: random smooth frames, gains
that are not PT-balanced, and free detunings.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhpassage import (
    ScenarioConfig,
    StepSizeError,
    ThreeLevelFrameParams,
    TimeGrid,
    TwoLevelControls,
    TwoLevelFrameParams,
    phase_two_level,
    run_scenario,
    synthesize_three_level,
    synthesize_two_level,
    three_level_frame,
    three_level_hamiltonian,
    two_level_consistency_residual,
    two_level_frame,
    two_level_hamiltonian,
)
from nhpassage import dynamics, scenarios
from nhpassage.dynamics import TimeDependentOperator, _Derived, _sample_times
from nhpassage.scenarios import RESIDUAL_TOL
from test_synthesis_oracle import (
    GRID,
    assert_phase_is_rotated_diagonal,
    detuning,
    gain,
    gain_rate,
    least_squares,
    local,
    matrices,
    mixing,
    phases,
    pole_gap,
    trig,
)


def same_bits(a, b):
    """Equal shapes and equal bytes: signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


#: A chunk budget of a few dozen steps, so every dt/2 re-run here takes several chunks.
CHUNK_BYTES = 1 << 13


def recorded_run(config, stages):
    """``stages`` through the runner, with what it read per stage recorded: the
    table of ``H`` each sweep ran on, the frame table of each triangularization
    certificate and its value, the times and samples of each chunk of each dt/2
    re-run, and each phase.  The re-runs read chunks of :data:`CHUNK_BYTES`.  The
    report is None when the dt/2 check refuses the run; every stage has run by then."""
    got = {"H": [], "frame": [], "tri": [], "half": [], "phase": []}

    def sweep(inner):
        def recorded(H, psi, grid):
            got["H"].append(H.values_at.table)
            return inner(H, psi, grid)
        return recorded

    def triangularization(H, frame, grid, inner=scenarios.triangularization_residual):
        got["frame"].append(frame.values_at.table)
        got["tri"].append(inner(H, frame, grid))
        return got["tri"][-1]

    def halved(H, psi, grid, inner=scenarios.evolve_ket_halved):
        chunks = []
        got["half"].append(chunks)

        def values_at(ts):  # each chunk's sample of H, recorded with its times
            chunks.append((np.array(ts), H.sample(ts)))
            return chunks[-1][1]
        return inner(TimeDependentOperator(H.dim, values_at), psi, grid)

    def phase(*args, inner=scenarios._phase):
        got["phase"].append(inner(*args))
        return got["phase"][-1]

    with pytest.MonkeyPatch.context() as mp:
        for name in ("evolve_ket", "evolve_bra"):
            mp.setattr(scenarios, name, sweep(getattr(scenarios, name)))
        mp.setattr(scenarios, "triangularization_residual", triangularization)
        mp.setattr(scenarios, "evolve_ket_halved", halved)
        mp.setattr(scenarios, "_phase", phase)
        mp.setattr(dynamics, "_CHUNK_BYTES", CHUNK_BYTES)
        try:
            report = scenarios._run(config, stages=stages)
        except StepSizeError:
            report = None
    assert all(len(per_stage) == len(stages) for per_stage in got.values())
    return report, got


def assert_reads_are_the_public_calls(stages, report, got):
    """What :func:`recorded_run` recorded, against the public calls on each stage."""
    for i, stage in enumerate(stages):
        times = stage.grid.times()
        assert same_bits(got["H"][i], stage.H.sample(_sample_times(times)))
        H = stage.H if stage.passage == "ket" else stage.H.adjoint()
        rerun = _sample_times(stage.grid.halved().times())
        assert len(got["half"][i]) > 1
        assert_chunks_cover_once([ts for ts, _ in got["half"][i]], rerun)
        assert same_bits(np.concatenate([block for _, block in got["half"][i]]), H.sample(rerun))
        assert same_bits(got["frame"][i][:, 0], stage.frame.sample(times))
        assert same_bits(got["frame"][i][:, 1], stage.frame.sample_derivative(times))
        phase = phase_two_level(stage.controls, stage.frame_params, stage.grid, stage.passage)
        assert same_bits(got["phase"][i].f_real, phase.f_real)
        assert same_bits(got["phase"][i].f_imag, phase.f_imag)
        consistency = two_level_consistency_residual(
            stage.controls, stage.frame_params, stage.grid)
        assert stage.controls.consistency == consistency
    if report is not None:
        assert report.residuals["consistency"] == max(s.controls.consistency for s in stages)


def assert_chunks_cover_once(chunks, times):
    """The chunks, in the order they were read, are disjoint contiguous pieces
    of ``times`` that cover it once: joined, they are ``times``, bit for bit."""
    assert all(chunk.size for chunk in chunks)
    assert same_bits(np.concatenate(chunks), times)


@pytest.mark.parametrize("gamma_scale", [0.8, 1.15])
@pytest.mark.parametrize("T", [0.5, 2.0])
@pytest.mark.parametrize("sid", ["two_level_a", "two_level_b", "two_level_c",
                                 "two_level_d", "cyclic_cw", "cyclic_ccw"])
def test_built_in_runs_read_the_public_calls_numbers(sid, T, gamma_scale):
    config = ScenarioConfig(sid, T=T, dt=T / 250, gamma_scale=gamma_scale)
    stages = scenarios._stages(config)
    report, got = recorded_run(config, stages)
    assert report is not None and report.passed
    assert_reads_are_the_public_calls(stages, report, got)


# ---------------------------------------------------------------------------
# drawn controls


def counted(fn, calls, name, arrays=None):
    """``fn``, recording the size of each time array it is called on under
    ``name``, and the array itself in ``arrays`` if given."""
    def f(t):
        calls[name].append(np.size(t))
        if arrays is not None:
            arrays.setdefault(name, []).append(np.array(t))
        return fn(t)
    return f


def drawn_two_level(theta, alpha, gap, g0, g1, xi0, xi1, calls, arrays):
    """Synthesized two-level controls on ``GRID`` whose every frame parameter and
    gain counts its calls, recording each time array in ``arrays``; the
    detuning is solved by least squares from the uncounted ones, so the inputs
    are consistent."""
    th, th_dot = trig(*theta)
    al, al_dot = trig(*alpha)
    params = TwoLevelFrameParams(th, th_dot, al, al_dot)
    frame = two_level_frame(params)
    varphi = gap - alpha[0]
    gamma0, gamma1 = gain_rate(*g0), gain_rate(*g1)
    e0, e1 = np.exp(1j * xi0), np.exp(1j * xi1)

    def base(t):
        return matrices(t, 2, {(0, 0): 0.5 * e0 * gamma0(t), (1, 1): 0.5 * e1 * gamma1(t)})

    terms = (lambda t: matrices(t, 2, {(1, 0): 0.5 * np.exp(1j * varphi),
                                        (0, 1): 0.5 * np.exp(-1j * varphi)}),
             lambda t: matrices(t, 2, {(1, 1): 1.0}))

    def delta(t):
        return least_squares(frame, base, terms, np.asarray(t, dtype=float))[1]

    watched = TwoLevelFrameParams(*(counted(f, calls, name, arrays) for f, name in (
        (th, "theta"), (th_dot, "theta_dot"), (al, "alpha"), (al_dot, "alpha_dot"))))
    controls = synthesize_two_level(
        watched, gamma0=counted(gamma0, calls, "gamma0", arrays),
        gamma1=counted(gamma1, calls, "gamma1", arrays), xi0=xi0, xi1=xi1,
        delta=counted(delta, calls, "delta", arrays), varphi=varphi, grid=GRID)
    return watched, two_level_frame(watched), controls, two_level_hamiltonian(controls)


def drawn_three_level(theta, alpha, phi, beta, gap_a, gap, g0, g1, ge, xi, d0, calls, arrays):
    """As :func:`drawn_two_level`, for three levels with a free detuning on ``|0>``."""
    th, th_dot = trig(*theta)
    al, al_dot = trig(*alpha)
    ph, ph_dot = trig(*phi)
    be, be_dot = trig(*beta)
    params = ThreeLevelFrameParams(th, th_dot, al, al_dot, ph, ph_dot, be, be_dot)
    frame = three_level_frame(params)
    varphi_a, varphi = gap_a - alpha[0], gap - beta[0]
    gamma0, gamma1, gamma_e = gain_rate(*g0), gain_rate(*g1), gain_rate(*ge)
    e0, e1, ee = (np.exp(1j * x) for x in xi)
    delta0, _ = trig(*d0)

    def base(t):
        return matrices(t, 3, {(0, 0): delta0(t) + 0.5 * e0 * gamma0(t),
                               (1, 1): 0.5 * e1 * gamma1(t),
                               (2, 2): 0.5 * ee * gamma_e(t)})

    def outer(t):
        d20 = 0.5 * np.sin(th(t)) * np.exp(1j * (varphi - 0.5 * al(t)))
        d21 = 0.5 * np.cos(th(t)) * np.exp(1j * (varphi + 0.5 * al(t)))
        return matrices(t, 3, {(2, 0): d20, (0, 2): np.conj(d20),
                               (2, 1): d21, (1, 2): np.conj(d21)})

    terms = (outer,
             lambda t: matrices(t, 3, {(1, 0): 0.5 * np.exp(1j * varphi_a),
                                        (0, 1): 0.5 * np.exp(-1j * varphi_a)}),
             lambda t: matrices(t, 3, {(1, 1): 1.0}),
             lambda t: matrices(t, 3, {(2, 2): 1.0}))

    def solved(t):
        return least_squares(frame, base, terms, np.asarray(t, dtype=float))

    watched = ThreeLevelFrameParams(*(counted(f, calls, name, arrays) for f, name in (
        (th, "theta"), (th_dot, "theta_dot"), (al, "alpha"), (al_dot, "alpha_dot"),
        (ph, "phi_mix"), (ph_dot, "phi_mix_dot"), (be, "beta"), (be_dot, "beta_dot"))))
    controls = synthesize_three_level(
        watched, gamma0=counted(gamma0, calls, "gamma0", arrays),
        gamma1=counted(gamma1, calls, "gamma1", arrays),
        gamma_e=counted(gamma_e, calls, "gamma_e", arrays), xi0=xi[0], xi1=xi[1], xi_e=xi[2],
        delta0=counted(delta0, calls, "delta0", arrays),
        delta1=counted(lambda t: solved(t)[2], calls, "delta1", arrays),
        delta_e=counted(lambda t: solved(t)[3], calls, "delta_e", arrays),
        varphi=varphi, varphi_a=varphi_a, grid=GRID)
    return watched, three_level_frame(watched), controls, three_level_hamiltonian(controls)


def assert_runner_numbers_certify(got, stage):
    """The runner's set-read numbers against the rotated-generator oracle: its
    frame triangularizes its generator, and its phase integrates the rotated
    diagonal entry of the untabulated stage."""
    assert got["tri"][0] <= RESIDUAL_TOL
    assert_phase_is_rotated_diagonal(got["phase"][0], stage.H, stage.frame, stage.passage)


def assert_one_call_per_time_array(arrays, grid):
    """Each counted callable ran at most once on the synthesis grid and once on
    the stage's grid points and midpoints, and otherwise only on the dt/2
    re-run's chunks, which cover its time array once."""
    whole = (grid.times(), _sample_times(grid.times()))
    for name, called in arrays.items():
        for times in whole:
            assert sum(same_bits(t, times) for t in called) <= 1, name
        chunks = [t for t in called if not any(same_bits(t, times) for times in whole)]
        if chunks:
            assert len(chunks) > 1, name
            assert_chunks_cover_once(chunks, _sample_times(grid.halved().times()))


STEPS = GRID.n_steps


@settings(max_examples=12, deadline=None)
@given(theta=mixing, alpha=local, gap=pole_gap, g0=gain, g1=gain, xi0=phases, xi1=phases,
       passage=st.sampled_from(["ket", "bra"]))
def test_drawn_two_level_stage_reads_the_public_calls_numbers(
        theta, alpha, gap, g0, g1, xi0, xi1, passage):
    calls = {name: [] for name in ("theta", "theta_dot", "alpha", "alpha_dot",
                                   "gamma0", "gamma1", "delta")}
    arrays = {}
    params, frame, controls, H = drawn_two_level(theta, alpha, gap, g0, g1, xi0, xi1, calls,
                                                 arrays)
    assert all(sizes == [STEPS + 1] for sizes in calls.values())  # synthesis: once, on its grid
    stage = scenarios._Stage(GRID, params, frame, controls, H, passage, 0)
    report, got = recorded_run(ScenarioConfig("two_level_a", T=0.5, dt=GRID.dt), [stage])
    assert_one_call_per_time_array(arrays, GRID)
    assert_runner_numbers_certify(got, stage)
    assert_reads_are_the_public_calls([stage], report, got)


@settings(max_examples=8, deadline=None)
@given(theta=mixing, alpha=local, phi=mixing, beta=local, gap_a=pole_gap, gap=pole_gap,
       g0=gain, g1=gain, ge=gain, xi=st.tuples(phases, phases, phases), d0=detuning,
       passage=st.sampled_from(["ket", "bra"]))
def test_drawn_three_level_stage_reads_the_public_calls_numbers(
        theta, alpha, phi, beta, gap_a, gap, g0, g1, ge, xi, d0, passage):
    calls = {name: [] for name in ("theta", "theta_dot", "alpha", "alpha_dot", "phi_mix",
                                   "phi_mix_dot", "beta", "beta_dot", "gamma0", "gamma1",
                                   "gamma_e", "delta0", "delta1", "delta_e")}
    arrays = {}
    params, frame, controls, H = drawn_three_level(
        theta, alpha, phi, beta, gap_a, gap, g0, g1, ge, xi, d0, calls, arrays)
    assert all(sizes == [STEPS + 1] for sizes in calls.values())
    stage = scenarios._Stage(GRID, params, frame, controls, H, passage, 0)
    report, got = recorded_run(ScenarioConfig("cyclic_ccw", dt=GRID.dt), [stage])
    assert_one_call_per_time_array(arrays, GRID)
    assert_runner_numbers_certify(got, stage)
    assert_reads_are_the_public_calls([stage], report, got)


def hand_built(built_in, calls, arrays=None):
    """The two-level stage ``built_in`` rebuilt by hand, as a caller builds one,
    with its frame angle and rate counted (see :func:`counted`); the gains read
    the rate as the built-ins' do, and the drives are synthesized on the
    stage's grid."""
    p, c = built_in.frame_params, built_in.controls
    params = TwoLevelFrameParams(counted(p.theta, calls, "theta", arrays),
                                 counted(p.theta_dot, calls, "theta_dot", arrays),
                                 p.alpha, p.alpha_dot)
    gamma = _Derived(lambda s: 2.0 * s(params.theta_dot))
    controls = synthesize_two_level(params, gamma0=gamma, gamma1=gamma, xi0=c.xi0, xi1=c.xi1,
                                    delta=0.0, varphi=c.varphi, grid=built_in.grid)
    return scenarios._Stage(built_in.grid, params, two_level_frame(params), controls,
                            two_level_hamiltonian(controls), built_in.passage, built_in.target)


def test_a_run_calls_each_frame_angle_once_per_time_array():
    # a caller-built two-level stage: its angle and rate, which also set the gains,
    # are called once on the synthesis grid, once on the stage's grid points and
    # midpoints, and on the dt/2 re-run's chunks (two at the default budget),
    # which cover its times once, and on nothing else
    calls, arrays = {"theta": [], "theta_dot": []}, {}
    config = ScenarioConfig("two_level_c")
    stage = hand_built(scenarios._stages(config)[0], calls, arrays)
    report = scenarios._run(config, [stage])
    assert report.passed
    steps = 4000
    for sizes in calls.values():
        assert sizes.count(steps + 1) == sizes.count(2 * steps + 1) == 1
        assert len(sizes) == 4 and sum(sizes) == (steps + 1) + (2 * steps + 1) + (4 * steps + 1)
    assert_one_call_per_time_array(arrays, stage.grid)
    assert same_bits(report.trajectory.states, run_scenario(config).trajectory.states)


def test_an_opaque_envelope_is_called_once_per_time_array():
    # controls assembled by hand: the envelope is a plain callable, read like a gain
    calls = {name: [] for name in ("omega", "delta", "gamma", "theta", "theta_dot")}
    built_in = scenarios._stages(ScenarioConfig("two_level_a"))[0].frame_params
    params = TwoLevelFrameParams(counted(built_in.theta, calls, "theta"),
                                 counted(built_in.theta_dot, calls, "theta_dot"),
                                 scenarios._zero, scenarios._zero)
    gamma = counted(lambda t: 2.0 * np.asarray(built_in.theta_dot(t)), calls, "gamma")
    controls = TwoLevelControls(
        omega=counted(lambda t: np.cos(np.asarray(t)), calls, "omega"),
        delta=counted(lambda t: 0.1 * np.asarray(t), calls, "delta"),
        gamma0=gamma, gamma1=gamma, varphi=np.pi / 2, xi0=-np.pi / 2, xi1=np.pi / 2)
    assert np.isnan(controls.consistency)
    ts = np.linspace(0.0, 2.0, 65)
    two_level_hamiltonian(controls).sample(ts)
    assert calls["omega"] == calls["delta"] == calls["gamma"] == [65]
    assert calls["theta"] == calls["theta_dot"] == []
    phase_two_level(controls, params, TimeGrid(0.0, 2.0, 1 / 32))
    assert calls["omega"] == calls["delta"] == calls["gamma"] == [65, 129]
    assert calls["theta"] == [129] and calls["theta_dot"] == []


def test_a_drive_scaled_control_reads_one_sample_set():
    # verify's perturbed control: the scaled generator and the frame table read
    # the stage's angles from one set on the grid
    calls = {"theta": [], "theta_dot": []}
    stage = hand_built(scenarios._stages(ScenarioConfig("two_level_c", dt=0.01))[0], calls)
    assert calls == {"theta": [201], "theta_dot": [201]}  # synthesis
    scenarios._perturbed_omega_checks([stage])
    assert calls == {"theta": [201, 201], "theta_dot": [201, 201]}


# ---------------------------------------------------------------------------
# memory: a set dies with its stage, and a run holds no stage's certificates


def traced_peak(loops, dt=1.0 / 500):
    """Bytes a ``cyclic_ccw`` run at ``gamma_scale`` 1.15 allocates at its peak."""
    config = ScenarioConfig("cyclic_ccw", loops=loops, T=1.0, dt=dt, gamma_scale=1.15)
    tracemalloc.start()
    try:
        report = run_scenario(config)
        return tracemalloc.get_traced_memory()[1], report
    finally:
        tracemalloc.stop()


def test_a_runs_traced_peak_grows_with_loops_only_by_what_it_keeps():
    # per point the run keeps its states and both parts of its phase, and at its
    # end builds the trajectory's populations, norm and times; a sample set or
    # table that outlived its stage would add about 0.9 MB per stage here,
    # 2.7 MB per loop
    run_scenario(ScenarioConfig("cyclic_ccw", T=1.0, dt=1.0 / 500))  # imports and caches
    peak_one, _ = traced_peak(1)
    peak_two, report = traced_peak(2)
    K, points = 3, 3 * 1000
    kept = points * (16 * K + 8 + 8 + 8 * K + 8 + 8)
    assert report.passed
    assert peak_two - peak_one <= kept + 0.25e6, (peak_one, peak_two, kept)


def test_a_four_loop_runs_traced_peak_stays_under_ten_mb():
    # the certificates and the dt/2 re-run take a chunk at a time and the re-run
    # goes stage by stage, so no run holds a stage's propagators, its dt/2
    # samples or a run-length dt/2 copy; when runs did, this one peaked 15.1 MB
    # above what was live before it, and it peaks 8.6 MB now
    run_scenario(ScenarioConfig("cyclic_ccw", T=1.0, dt=1.0 / 500))  # imports and caches
    peak, report = traced_peak(4, dt=None)
    assert report.passed
    assert peak <= 10e6, peak
