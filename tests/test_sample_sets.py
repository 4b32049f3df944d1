"""One sample set per chunk: what a run reads from it, against the public calls.

A run (:func:`run_scenario`, here served hand-built or drawn stages through
``scenarios._stages``, the one stage builder) reads each stage three times,
a contiguous chunk of steps at a time, each chunk sampling its own edge
points, so a chunk after the first starts at its predecessor's last time:
the dt/2 re-run on its own times, the sweep on the stage's grid points and
RK4 midpoints, and one certificate pass, in which a chunk's sample set on its
grid points and midpoints evaluates each frame angle, gain and trig factor
once for the generator and the phase, and the frame is read on the chunk's
grid points.  Every read of ``H`` goes through ``TimeDependentOperator.sample``,
the pass's on its sample set, so the recorder wraps that one method.  The run
reports the consistency residual synthesis recorded.  Every number it takes
from a chunk must be the number a public call computes on the whole stage,
bit for bit: ``H.sample`` on a time array for the sweep's, the pass's and
the dt/2 samples (each pass's chunks joined at their shared edges),
``frame.sample``/``sample_derivative`` for the pass's frame blocks,
``phase_two_level`` for the phase, ``triangularization_residual`` and
``biorthogonality_defect`` for the certificates, and
``two_level_consistency_residual`` for the consistency value.  The inputs are
the six built-ins and controls drawn as in ``test_synthesis_oracle``: random
smooth frames, gains that are not PT-balanced, and free detunings.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nhpassage import (
    AncillaryFrame,
    PhaseFunctional,
    ScenarioConfig,
    StepSizeError,
    ThreeLevelFrameParams,
    TimeGrid,
    TwoLevelControls,
    TwoLevelFrameParams,
    biorthogonality_defect,
    evolve_bra,
    evolve_ket,
    phase_two_level,
    run_scenario,
    synthesize_three_level,
    synthesize_two_level,
    three_level_frame,
    three_level_hamiltonian,
    triangularization_residual,
    two_level_consistency_residual,
    two_level_frame,
    two_level_hamiltonian,
    verify,
)
from nhpassage import dynamics, frames, scenarios
from nhpassage.dynamics import (TimeDependentOperator, _Constant, _Derived, _sample_times,
                                _time_last)
from nhpassage.scenarios import RESIDUAL_TOL, SCENARIO_IDS
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


#: A chunk budget of a few dozen steps, so every stage here takes several chunks.
CHUNK_BYTES = 1 << 13


def recorded_run(config, stages, marks=None):
    """``stages`` through :func:`run_scenario`, served as the config's stages by
    ``scenarios._stages``, with what the run read per stage recorded: the
    times and samples of each chunk of its dt/2 re-run, of its sweep, and of
    its certificate pass (``H`` and the frame), and the certificates.  Chunks
    take :data:`CHUNK_BYTES`.  ``marks``, a dict of per-callable call lists,
    gets the name of each of a stage's passes (``rerun``, ``sweep``, ``pass``)
    appended to every list as the pass starts.  The report is None when the
    dt/2 check refuses the run; every stage has run by then."""
    got = {"half": [], "sweep": [], "H": [], "frame": [], "certificates": []}

    def mark(name):
        for calls in (marks or {}).values():
            calls.append(name)

    def recorded(H, key):  # H, each chunk's sample recorded with its times
        chunks = []
        got[key].append(chunks)

        def values_at(ts):
            chunks.append((np.array(ts), H.sample(ts)))
            return chunks[-1][1]
        return TimeDependentOperator(H.dim, values_at)

    def halved(H, psi, grid, inner=scenarios.evolve_ket_halved):
        mark("rerun")
        return inner(recorded(H, "half"), psi, grid)

    def sweep(inner):
        def swept(H, psi, grid):
            mark("sweep")
            return inner(recorded(H, "sweep"), psi, grid)
        return swept

    certifying = []  # the stage being certified

    def read(H, samples, inner=TimeDependentOperator.sample):
        block = inner(H, samples)
        if certifying and H is certifying[0].H:
            got["H"][-1].append((samples.times, block))
        return block

    def frame_read(frame, times, inner=AncillaryFrame._block):
        block = inner(frame, times)
        if certifying and frame is certifying[0].frame:
            got["frame"][-1].append((np.array(times), block))
        return block

    def certify(stage, *args, inner=scenarios._certify):
        mark("pass")
        got["H"].append([])
        got["frame"].append([])
        certifying.append(stage)
        got["certificates"].append(inner(stage, *args))
        certifying.pop()
        return got["certificates"][-1]

    with pytest.MonkeyPatch.context() as mp:
        for name in ("evolve_ket", "evolve_bra"):
            mp.setattr(scenarios, name, sweep(getattr(scenarios, name)))
        mp.setattr(scenarios, "evolve_ket_halved", halved)
        mp.setattr(TimeDependentOperator, "sample", read)
        mp.setattr(AncillaryFrame, "_block", frame_read)
        mp.setattr(scenarios, "_certify", certify)
        mp.setattr(scenarios, "_stages", lambda _: stages)
        mp.setattr(dynamics, "_CHUNK_BYTES", CHUNK_BYTES)
        try:
            report = run_scenario(config)
        except StepSizeError:
            report = None
    assert all(len(per_stage) == len(stages) for per_stage in got.values())
    return report, got


def joined(chunks):
    """The times and the samples of ``(times, samples)`` chunks, each joined in
    order; each chunk after the first starts at its predecessor's last time,
    which the join drops."""
    times, blocks = zip(*chunks)
    assert all(a[-1] == b[0] for a, b in zip(times, times[1:]))
    times = times[:1] + tuple(t[1:] for t in times[1:])
    blocks = blocks[:1] + tuple(b[1:] for b in blocks[1:])
    return np.concatenate(times), np.concatenate(blocks)


def assert_reads_are_the_public_calls(stages, report, got):
    """What :func:`recorded_run` recorded, against the public calls on each stage."""
    start = 0
    for i, stage in enumerate(stages):
        grid = stage.grid
        times, sample_times = grid.times(), _sample_times(grid.times())
        H = stage.H if stage.passage == "ket" else stage.H.adjoint()
        rerun = _sample_times(grid.halved().times())
        for chunks, want, op in ((got["half"][i], rerun, H),
                                 (got["sweep"][i], sample_times, stage.H),
                                 (got["H"][i], sample_times, stage.H)):
            assert len(chunks) > 1
            ts, block = joined(chunks)
            assert same_bits(ts, want)
            assert same_bits(block, op.sample(want))
        assert len(got["frame"][i]) == len(got["H"][i])  # one frame read per chunk
        ts, block = joined(got["frame"][i])
        assert same_bits(ts, times)
        assert same_bits(block[:, 0], stage.frame.sample(times))
        assert same_bits(block[:, 1], stage.frame.sample_derivative(times))
        certificates = got["certificates"][i]
        assert certificates["triangularization_residual"] == triangularization_residual(
            stage.H, stage.frame, grid)
        assert certificates["biorthogonality_defect"] == biorthogonality_defect(stage.H, grid)
        phase = phase_two_level(stage.controls, stage.frame_params, grid, stage.passage)
        assert certificates["stage_end_f_imag"] == abs(phase.f_imag[-1])
        if report is not None:  # the boundary point keeps the earlier stage's value
            stop = start + grid.n_steps + 1
            first = 1 if i else 0
            for part in ("f_real", "f_imag"):
                assert same_bits(getattr(report.phase, part)[start + first:stop],
                                 getattr(phase, part)[first:])
            start = stop - 1
        consistency = two_level_consistency_residual(
            stage.controls, stage.frame_params, grid)
        assert stage.controls.consistency == consistency
    if report is not None:
        consistency = next(c.value for c in report.checks if c.name == "consistency_residual")
        assert consistency == max(s.controls.consistency for s in stages)


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


@pytest.mark.parametrize("entry", [run_scenario, verify])
@pytest.mark.parametrize("sid", ["two_level_c", "cyclic_ccw"])
def test_every_generator_block_is_read_through_sample(entry, sid):
    # the one checked read of a generator: every (K, K) block that any module's
    # _checked_block forms comes from TimeDependentOperator.sample, which the
    # certificate pass and the residual scans hand their sample sets
    ts = np.linspace(0.0, 1.0, 7)
    assert len(dynamics._Samples(ts)) == ts.size  # what a tracer counts as sample points
    inside, callers = [], []  # the sample calls, and the marked functions, now running
    blocks, sets = [], []  # per generator block, whether sample formed it; per set, its callers

    def checked(values_at, times, shape, inner=dynamics._checked_block):
        if len(shape) == 2:
            blocks.append(bool(inside))
        return inner(values_at, times, shape)

    def sample(H, times, inner=TimeDependentOperator.sample):
        if isinstance(times, dynamics._Samples):
            sets.append(tuple(callers))
        inside.append(H)
        try:
            return inner(H, times)
        finally:
            inside.pop()

    def marked(name, inner):
        def call(*args, **kwargs):
            callers.append(name)
            try:
                return inner(*args, **kwargs)
            finally:
                callers.pop()
        return call

    with pytest.MonkeyPatch.context() as mp:
        for module in (dynamics, frames, scenarios):
            if hasattr(module, "_checked_block"):
                mp.setattr(module, "_checked_block", checked)
        mp.setattr(TimeDependentOperator, "sample", sample)
        mp.setattr(scenarios, "_certify", marked("certify", scenarios._certify))
        for module in (frames, scenarios):
            mp.setattr(module, "_residuals", marked("residuals", frames._residuals))
        entry(ScenarioConfig(sid, T=0.5, dt=0.5 / 250))
    assert blocks and all(blocks)
    assert any("certify" in c for c in sets)
    assert (entry is verify) == any("residuals" in c for c in sets)


def whole_stage_fidelity(states, stage, phase):
    """The passage fidelity of a stage's ``states`` from whole-stage arrays: the
    frame and the phase sampled by the public calls on the stage's grid."""
    column = stage.H.dim - 1 if stage.passage == "ket" else 0
    mus = stage.frame.sample(stage.grid.times())[:, :, column]
    c0 = np.vdot(mus[0], states[0])
    dressed = (c0 * np.exp(-1j * (phase.f_real + 1j * phase.f_imag)))[:, None] * mus
    return np.max(np.linalg.norm(states - dressed, axis=1))


@settings(max_examples=30, deadline=None)
@given(sid=st.sampled_from(SCENARIO_IDS), i=st.integers(0, 2), steps=st.integers(1, 130),
       T=st.sampled_from([0.5, 2.0]), gamma_scale=st.sampled_from([0.8, 1.15]))
def test_the_stage_pass_is_bitwise_the_public_calls_at_any_chunk_budget(
        sid, i, steps, T, gamma_scale):
    # a budget of ``steps`` steps cuts a 500-step stage into up to 500 chunks
    config = ScenarioConfig(sid, T=T, dt=T / 250, gamma_scale=gamma_scale)
    stages = scenarios._stages(config)
    stage = stages[i % len(stages)]
    grid, K = stage.grid, stage.H.dim
    evolve = evolve_ket if stage.passage == "ket" else evolve_bra
    states = evolve(stage.H, np.eye(K)[0], grid).states
    f_real, f_imag = np.empty(grid.n_steps + 1), np.empty(grid.n_steps + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_CHUNK_BYTES", steps * 2 * K * K * 16)
        got = scenarios._certify(stage, states, f_real, f_imag, 0)
    phase = phase_two_level(stage.controls, stage.frame_params, grid, stage.passage)
    assert same_bits(f_real, phase.f_real) and same_bits(f_imag, phase.f_imag)
    assert got == {
        "stage_end_f_imag": abs(phase.f_imag[-1]),
        "triangularization_residual": triangularization_residual(stage.H, stage.frame, grid),
        "biorthogonality_defect": biorthogonality_defect(stage.H, grid),
        "passage_fidelity": whole_stage_fidelity(states, stage, phase),
    }


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


def assert_runner_numbers_certify(report, got, stage):
    """The runner's chunk-read numbers against the rotated-generator oracle: its
    frame triangularizes its generator, and its phase integrates the rotated
    diagonal entry of the stage."""
    assert got["certificates"][0]["triangularization_residual"] <= RESIDUAL_TOL
    phase = PhaseFunctional(stage.grid.times(), report.phase.f_real, report.phase.f_imag)
    assert_phase_is_rotated_diagonal(phase, stage.H, stage.frame, stage.passage)


def assert_calls_per_pass(arrays, grid):
    """Each counted callable ran once on the synthesis grid, then, in each of a
    stage's passes that read it, on that pass's chunks: the dt/2 re-run's and
    the sweep's cover their times, and the certificate pass's cover the grid
    points and midpoints, and for a frame parameter the grid points, each once
    per chunk; every pass's chunks share their edge points.  ``arrays`` holds
    each callable's time arrays with the passes marked, as :func:`recorded_run`
    marks them."""
    times, sample_times = grid.times(), _sample_times(grid.times())
    for name, called in arrays.items():
        assert same_bits(called[0], times), name  # synthesis
        passes = {"rerun": [], "sweep": [], "pass": []}
        for entry in called[1:]:
            if isinstance(entry, str):
                chunks = passes[entry]
            else:
                chunks.append(entry)
        for key, want in (("rerun", _sample_times(grid.halved().times())),
                          ("sweep", sample_times)):
            if passes[key]:
                assert len(passes[key]) > 1, name
                assert same_bits(joined([(t, t) for t in passes[key]])[0], want), name
        pieces = [[t for t in passes["pass"] if is_piece(t, want)]
                  for want in (times, sample_times)]
        assert sum(map(len, pieces)) == len(passes["pass"]) > 0, name
        for chunks, want in zip(pieces, (times, sample_times)):
            if chunks:
                assert len(chunks) > 1, name
                assert same_bits(joined([(t, t) for t in chunks])[0], want), name
        assert not all(pieces) or len(pieces[0]) == len(pieces[1]), name  # once per chunk


def is_piece(ts, times):
    """Whether ``ts`` is a contiguous piece of ``times``, bit for bit."""
    i = int(np.searchsorted(times, ts[0]))
    return same_bits(ts, times[i:i + ts.size])


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
    report, got = recorded_run(ScenarioConfig("two_level_a", T=0.5, dt=GRID.dt), [stage],
                               marks=arrays)
    assert_calls_per_pass(arrays, GRID)
    assert_runner_numbers_certify(report, got, stage)
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
    report, got = recorded_run(ScenarioConfig("cyclic_ccw", dt=GRID.dt), [stage], marks=arrays)
    assert_calls_per_pass(arrays, GRID)
    assert_runner_numbers_certify(report, got, stage)
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
    # are called once on the synthesis grid, then, at the default budget, on the
    # dt/2 re-run's two chunks, once on the sweep's grid points and midpoints,
    # and on the certificate pass's two chunks, each once on its grid points and
    # once on its grid points and midpoints, every pass's chunks sharing their
    # edge point; and on nothing else
    calls = {"theta": [], "theta_dot": []}
    config = ScenarioConfig("two_level_c")
    stage = hand_built(scenarios._stages(config)[0], calls)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "_stages", lambda _: [stage])
        report = run_scenario(config)
    assert report.passed
    steps, first = 4000, 2048
    for sizes in calls.values():
        assert sizes == [steps + 1, 4 * first + 1, 4 * (steps - first) + 1, 2 * steps + 1,
                         first + 1, 2 * first + 1, steps - first + 1, 2 * (steps - first) + 1]
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
    # verify's perturbed control: the scaled generator and the frame read the
    # stage's angles from one set on the grid's one chunk
    calls = {"theta": [], "theta_dot": []}
    config = ScenarioConfig("two_level_c", dt=0.01)
    stage = hand_built(scenarios._stages(config)[0], calls)
    assert calls == {"theta": [201], "theta_dot": [201]}  # synthesis
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "_stages", lambda _: [stage])
        scenarios._perturbed_omega_checks(config)
    assert calls == {"theta": [201, 201], "theta_dot": [201, 201]}


# ---------------------------------------------------------------------------
# constants: served once per set as a scalar, given the times' shape as they leave


@pytest.mark.parametrize("sid", ["two_level_a", "cyclic_ccw"])
@pytest.mark.parametrize("shape", [(7,), (2, 3)])
def test_every_control_and_frame_angle_keeps_the_times_shape(sid, shape):
    # two_level_a's rate and gains, and every local phase, are constants, and
    # so are the closed forms read from them alone
    stage = scenarios._stages(ScenarioConfig(sid))[0]
    ts = stage.grid.t0 + 0.5 + 1e-3 * np.arange(np.prod(shape)).reshape(shape)
    fields = [getattr(obj, f.name) for obj in (stage.controls, stage.frame_params)
              for f in dataclasses.fields(obj)]
    fields += [getattr(stage.controls, name, None) for name in ("omega0", "omega1")]
    for f in filter(callable, fields):
        out = f(ts)
        assert isinstance(out, np.ndarray) and out.shape == shape, (f, out)
    K = stage.H.dim
    assert stage.H.values_at(ts).shape == shape + (K, K)
    assert stage.frame.values_at(ts).shape == shape + (2, K, K)


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_a_built_in_frame_block_is_time_last_in_memory(sid):
    # values_at gives (n, 2, K, K) as a view of a (2, K, K, n) block, so the
    # certificates' time-last copy of it is no copy
    stage = scenarios._stages(ScenarioConfig(sid))[0]
    block = stage.frame.values_at(stage.grid.times()[:9])
    assert block.shape == (9, 2, stage.H.dim, stage.H.dim)
    assert np.shares_memory(_time_last(block), block)


def frozen(value, constant):
    """A callable of time fixed at ``value``: a :class:`_Constant`, or a plain callable."""
    return _Constant(value) if constant else (lambda t: np.full(np.shape(t), value))


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(-3.0, 3.0), rate=st.floats(-2.0, 2.0), g0=st.floats(-2.0, 2.0),
       g1=st.floats(-2.0, 2.0), xi0=phases, xi1=phases)
# with constants served as float64 scalars: sin(theta) ** 2 is an ulp above
# the array's, and a complex scalar product flips an underflowed zero's sign
@example(theta=1.7258450469845465, rate=0.0, g0=1.0, g1=0.0, xi0=0.0, xi1=0.0)
@example(theta=0.0, rate=0.0, g0=-5e-324, g1=-5e-324, xi0=0.0, xi1=-1.5)
def test_a_frozen_stage_of_constants_is_bitwise_the_plain_callables(theta, rate, g0, g1, xi0, xi1):
    # every input a constant, folded to one scalar per set, against the same stage
    # written with plain callables, evaluated per time; local phases are zero,
    # and the detuning cancels the gains' real parts, as consistency asks
    delta = 0.5 * (np.cos(xi0) * g0 - np.cos(xi1) * g1)
    grid = TimeGrid(0.0, 1.0, 1.0 / 64)
    ts = grid.times()
    got = []
    for constant in (True, False):
        params = TwoLevelFrameParams(frozen(theta, constant), frozen(rate, constant),
                                     frozen(0.0, constant), frozen(0.0, constant))
        controls = synthesize_two_level(
            params, gamma0=frozen(g0, constant), gamma1=frozen(g1, constant), xi0=xi0,
            xi1=xi1, delta=delta if constant else frozen(delta, False), varphi=np.pi / 2,
            grid=grid)
        H, frame = two_level_hamiltonian(controls), two_level_frame(params)
        phases_ = [phase_two_level(controls, params, grid, passage)
                   for passage in ("ket", "bra")]
        got.append([controls.omega(ts), H.sample(ts), frame.values_at(ts),
                    *(getattr(p, part) for p in phases_ for part in ("f_real", "f_imag")),
                    np.float64(controls.consistency),
                    np.float64(two_level_consistency_residual(controls, params, grid))])
    folded, plain = got
    for a, b in zip(folded, plain):
        assert isinstance(a, np.ndarray) or np.ndim(a) == 0
        assert same_bits(a, b)
    assert folded[0].shape == ts.shape and folded[3].shape == ts.shape


@settings(max_examples=200, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False), n=st.integers(1, 70))
def test_numpy_rounds_a_scalar_as_every_entry_of_an_array(x, n):
    # what folding a constant relies on: the elementwise functions round a 0-d
    # operand, and a constant's one element, as each entry of an array, SIMD
    # lanes and remainders alike
    for f in (np.sin, np.cos, lambda v: np.exp(1j * v)):
        for one in (np.float64(x), np.full(1, x)):
            assert same_bits(np.broadcast_to(f(one), (n,)), f(np.full(n, x))), (f, one)


@settings(max_examples=200, deadline=None)
@given(re=st.floats(allow_nan=False, allow_infinity=False),
       im=st.floats(allow_nan=False, allow_infinity=False),
       xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=70))
def test_a_complex_scalar_times_a_real_array_is_the_broadcast_product(re, im, xs):
    # a complex scalar, or a constant's one complex element, times a real or a
    # complex array is the product with the operand broadcast to an array
    z, x = np.complex128(complex(re, im)), np.array(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        for y in (x, x + 1j * x[::-1]):
            for one in (z, np.full(1, z)):
                assert same_bits(one * y, np.full(x.size, z) * y)
                assert same_bits(y * one, y * np.full(x.size, z))


# ---------------------------------------------------------------------------
# memory: a set dies with its chunk, and a run holds no stage's samples


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
    # the sweep, the certificates and the dt/2 re-run take a chunk at a time and
    # the re-run goes stage by stage, so no run holds a stage's samples, its
    # propagators or a run-length dt/2 copy; when runs did, this one peaked
    # 15.1 MB above what was live before it, with whole-stage sample tables
    # 8.6 MB, and it peaks 6.5 MB now
    run_scenario(ScenarioConfig("cyclic_ccw", T=1.0, dt=1.0 / 500))  # imports and caches
    peak, report = traced_peak(4, dt=None)
    assert report.passed
    assert peak <= 7.5e6, peak


def test_verify_holds_no_stage_of_samples():
    # verify's perturbed and Hermitian-limit controls read their generators and
    # frames a chunk of grid points at a time; with whole-stage tables of them
    # this peaked at 9.9 MB, and it peaks 4.0 MB now
    run_scenario(ScenarioConfig("cyclic_ccw", T=1.0, dt=1.0 / 500))  # imports and caches
    tracemalloc.start()
    try:
        report = verify(ScenarioConfig("cyclic_ccw"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 5e6, peak
