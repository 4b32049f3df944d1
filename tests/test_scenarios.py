"""Scenario runner, verification suite, exports, config files, CLI."""

import contextlib
import io
import re
import types
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nhpassage import (
    ConfigError,
    NonFiniteSampleError,
    PassageError,
    ScenarioConfig,
    StepSizeError,
    TimeDependentOperator,
    biorthogonality_defect,
    evolve_bra,
    evolve_ket,
    export_csv,
    export_svg,
    phase_three_level,
    phase_two_level,
    run_scenario,
    run_two_level,
    triangularization_residual,
    verify,
    von_neumann_residual,
)
from nhpassage import scenarios
from nhpassage.cli import OPTIONS, main as cli_main
from nhpassage.config import read_config
from nhpassage.scenarios import CYCLIC_IDS
from test_sample_sets import same_bits, whole_stage_fidelity


# ---------------------------------------------------------------------------
# two-level runs


@pytest.mark.parametrize("sid,target", [
    ("two_level_a", 0), ("two_level_b", 1), ("two_level_c", 0), ("two_level_d", 1)])
def test_two_level_transfer_targets(two_level_reports, sid, target):
    report = two_level_reports[sid]
    assert report.passed, [c.describe() for c in report.checks if not c.passed]
    assert abs(report.trajectory.populations[-1, target] - 1.0) < 1e-6
    assert abs(report.trajectory.total_norm[-1] - 1.0) < 1e-6


@pytest.mark.parametrize("sid", [
    "two_level_a", "two_level_b", "two_level_c", "two_level_d"])
def test_two_level_norm_dips_midway(two_level_reports, sid):
    report = two_level_reports[sid]
    assert np.min(report.trajectory.total_norm) < 1.0 - 1e-3


def test_two_level_norm_tracks_imaginary_phase(two_level_reports):
    report = two_level_reports["two_level_c"]
    norm = report.trajectory.vector_norm()
    assert np.max(np.abs(np.exp(report.phase.f_imag) - norm)) < 1e-6


#: Each built-in's initial level and the (passage, target level) of each stage of a loop.
BUILT_IN_LEVELS = {
    "two_level_a": (1, [("ket", 0)]),
    "two_level_b": (0, [("ket", 1)]),
    "two_level_c": (1, [("bra", 0)]),
    "two_level_d": (0, [("bra", 1)]),
    "cyclic_cw": (0, [("ket", 2), ("ket", 1), ("bra", 0)]),
    "cyclic_ccw": (0, [("bra", 1), ("ket", 2), ("ket", 0)]),
}


def test_initial_state_is_exactly_prepared(two_level_reports, cyclic_cw_report,
                                           cyclic_ccw_report):
    reports = {**two_level_reports, "cyclic_cw": cyclic_cw_report,
               "cyclic_ccw": cyclic_ccw_report}
    assert set(reports) == set(BUILT_IN_LEVELS) == set(scenarios.SCENARIO_IDS)
    for sid, report in reports.items():
        initial, stages = BUILT_IN_LEVELS[sid]
        assert [(s.passage, s.target) for s in scenarios._stages(report.config)] == (
            stages * report.config.loops), sid
        expected = np.zeros(report.trajectory.dim)
        expected[initial] = 1.0
        assert np.array_equal(report.trajectory.populations[0], expected), sid


def test_report_checkpoints_complete(two_level_reports):
    report = two_level_reports["two_level_a"]
    for key in ("P0_end", "P1_end", "total_end", "total_min"):
        assert key in report.checkpoints
    names = {c.name for c in report.checks}
    for name in ("triangularization_residual", "consistency_residual", "biorthogonality_defect",
                 "step_halving_shift", "passage_fidelity"):
        assert name in names


def test_coarse_step_fails_convergence_check():
    with pytest.raises(StepSizeError):
        run_two_level(ScenarioConfig(scenario="two_level_a", dt=0.1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_check_rejects_nan_shift():
    # an overflowed run yields NaN populations, and NaN > tol is False
    import nhpassage.scenarios as scenarios

    # in a later stage: Python's max(0.0, nan) would return 0.0, the run's np.max keeps it
    states = np.array([[1.0, 0.0], [np.nan, 0.0], [0.5, 0.5]], dtype=complex)
    populations = np.abs(states) ** 2
    shifts = [np.max(np.abs(populations[:1] - populations[:1].copy())),
              np.max(np.abs(populations - populations.copy()))]
    assert shifts[0] == 0.0 and max(shifts) == 0.0
    with pytest.raises(StepSizeError, match="nan"):
        scenarios._step_check(np.max(shifts))


def test_a_nan_shift_in_a_later_stage_refuses_the_run(monkeypatch):
    # each stage's dt/2 shift is folded into one maximum that keeps a NaN, as one
    # max over the joined run does; Python's max(shift, nan) would drop it
    calls = []

    def halved(H, psi, grid, inner=scenarios.evolve_ket_halved):
        states = inner(H, psi, grid).states.copy()
        calls.append(grid)
        if len(calls) == 2:
            states[len(states) // 2, 1] = np.nan
        return types.SimpleNamespace(states=states, populations=np.abs(states) ** 2)

    monkeypatch.setattr(scenarios, "evolve_ket_halved", halved)
    with pytest.raises(StepSizeError, match=r"moved a population by nan"):
        run_scenario(ScenarioConfig("cyclic_cw", T=0.5))
    assert len(calls) == 3  # every stage ran first


def test_an_overflowing_run_names_the_time(monkeypatch):
    # a later stage whose generator grows without bound: its dt/2 re-run, which
    # goes first, overflows and names the first grid time that does
    first, second = scenarios._stages(ScenarioConfig("cyclic_cw"))[:2]
    grow = TimeDependentOperator(3, lambda ts: second.H.values_at(ts) + np.diag([0, 300j, 0]))
    monkeypatch.setattr(scenarios, "_stages", lambda _: [first, replace(second, H=grow)])
    with pytest.raises(NonFiniteSampleError,
                       match=r"^state at t = 3\.216 overflows or is not finite$"):
        run_scenario(ScenarioConfig("cyclic_cw"))


@pytest.mark.parametrize("field,value", [
    ("T", np.inf), ("T", np.nan),
    ("dt", np.inf), ("dt", np.nan),
    ("gamma_scale", np.inf), ("gamma_scale", -np.inf), ("gamma_scale", np.nan),
    ("tolerance", np.inf), ("tolerance", np.nan),
])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        ScenarioConfig(scenario="cyclic_cw", **{field: value})


@pytest.mark.parametrize("field,value", [
    ("loops", 2.0), ("loops", 1.5), ("loops", True), ("loops", "2"),
    ("T", "1"), ("T", None), ("T", True), ("dt", "0.1"), ("dt", 1j),
    ("gamma_scale", "1.0"), ("gamma_scale", False), ("tolerance", None),
])
def test_config_rejects_wrong_types(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be"):
        ScenarioConfig(scenario="cyclic_cw", **{field: value})


def test_config_rejects_a_default_dt_that_underflows():
    # T / 2000 rounds to 0 for the smallest subnormal T
    with pytest.raises(ConfigError, match="dt must be positive, got 0.0"):
        ScenarioConfig(scenario="two_level_a", T=5e-324)


def test_cli_reports_a_default_dt_that_underflows(capsys):
    assert cli_main(["verify", "--scenario", "a", "--T", "5e-324", "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: dt must be positive, got 0.0"]
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("sid,dt", [("two_level_a", 1e-320), ("cyclic_cw", 1e-308)])
def test_config_rejects_a_dt_whose_step_count_overflows(sid, dt):
    # 2T / dt (6T per loop for a cyclic run) is past float range
    with pytest.raises(ConfigError, match="the run's step count overflows"):
        ScenarioConfig(sid, dt=dt)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_reports_a_dt_whose_step_count_overflows(capsys):
    assert cli_main(["verify", "--scenario", "a", "--dt", "1e-320", "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: dt = 1e-320 is too small for T = 1.0: the run's step count overflows"]
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("sid,dt,steps", [("two_level_a", 1e-300, "2e+300"),
                                          ("cyclic_cw", 1e-19, "6e+19")])
def test_config_rejects_a_step_count_numpy_cannot_index(sid, dt, steps):
    # finite, but past np.intp: no time array of that many points can exist
    with pytest.raises(ConfigError, match=rf"takes {re.escape(steps)} steps, more than numpy can index"):
        ScenarioConfig(sid, dt=dt)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_reports_a_step_count_numpy_cannot_index(capsys):
    assert cli_main(["verify", "--scenario", "a", "--dt", "1e-300", "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: a run of length 2 at dt = 1e-300 takes 2e+300 steps, more than numpy can index"]
    assert "Traceback" not in captured.out + captured.err


def test_config_rejects_a_loop_count_past_float_range():
    with pytest.raises(ConfigError, match=r"^loops must be below 1\.798e\+308, got an integer "
                                          r"of 1329 bits$"):
        ScenarioConfig("cyclic_cw", loops=10**400)
    # the largest float-range count passes this check and fails on its step count
    with pytest.raises(ConfigError, match="more than numpy can index"):
        ScenarioConfig("cyclic_cw", loops=10**300)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", [["cyclic", "--direction", "cw"], ["verify", "--scenario", "cw"]])
def test_cli_reports_a_loop_count_past_float_range(capsys, command):
    assert cli_main(command + ["--loops", "1" + "0" * 400, "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: loops must be below 1.798e+308, got an integer of 1329 bits"]
    assert "Traceback" not in captured.out + captured.err


def test_config_accepts_numpy_scalars():
    config = ScenarioConfig(scenario="cyclic_cw", T=np.float64(0.5), dt=np.float32(0.25),
                            loops=np.int64(2), gamma_scale=np.int32(1))
    assert config.loops == 2 and config.resolved_dt() == 0.25


@pytest.mark.parametrize("gamma_scale", [-0.5, -1e-3, 0.0])
@pytest.mark.parametrize("sid", ["two_level_a", "two_level_c", "cyclic_cw", "cyclic_ccw"])
def test_a_gamma_scale_at_or_below_zero_is_data_not_a_config_error(sid, gamma_scale):
    # verify's Hermitian limit re-validates replace(config, gamma_scale=0.0), so the
    # config must take it; such a run has no norm dip to show, and fails that check only
    config = ScenarioConfig(sid, gamma_scale=gamma_scale)
    for report in (run_scenario(config), verify(config)):
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["mid_evolution_norm_dip"]
        assert failed[0].value == pytest.approx(1.0, abs=1e-12)


def test_two_level_config_rejects_loops():
    # a two-level task is exactly one stage; more loops would be ignored
    for sid in ("two_level_a", "two_level_d"):
        with pytest.raises(ConfigError, match="loops"):
            ScenarioConfig(scenario=sid, loops=3)
    assert ScenarioConfig(scenario="two_level_a", loops=1).loops == 1


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="nope")
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="cyclic_cw", loops=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="two_level_a", T=-1.0)
    with pytest.raises(ConfigError, match="unknown scenario 'custom'"):
        ScenarioConfig(scenario="custom")


# ---------------------------------------------------------------------------
# cyclic runs


def test_clockwise_checkpoints(cyclic_cw_report):
    report = cyclic_cw_report
    assert report.passed, [c.describe() for c in report.checks if not c.passed]
    cp = report.checkpoints
    for loop in (1, 2):
        assert abs(cp[f"loop{loop}_stage1_P2"] - 1.0) < 1e-6   # |e> at 2T
        assert abs(cp[f"loop{loop}_stage2_P1"] - 1.0) < 1e-6   # |1> at 4T
        assert abs(cp[f"loop{loop}_stage3_P0"] - 1.0) < 1e-6   # |0> at 6T


def test_clockwise_transient_matches_dressed_passage(cyclic_cw_report):
    # analytic value at t = 1.6T: P1 = e^{2 F} sin^2(phi) cos^2(theta) with
    # F = (9/16) sin 2theta - (3/32) sin 4theta and theta = phi = -0.1 pi
    th = -0.1 * np.pi
    F = (9 / 16) * np.sin(2 * th) - (3 / 32) * np.sin(4 * th)
    expected = np.exp(2 * F) * np.sin(th) ** 2 * np.cos(th) ** 2
    measured = cyclic_cw_report.checkpoints["P1_at_1.6T"]
    assert abs(measured - expected) < 1e-9
    assert abs(measured - 0.07) <= 0.02


def test_clockwise_bra_stage_never_populates_e(cyclic_cw_report):
    report = cyclic_cw_report
    T = report.config.T
    times = report.trajectory.times
    stage3 = (times >= 4 * T) & (times <= 6 * T)
    assert np.max(report.trajectory.populations[stage3, 2]) < 1e-8


def test_counterclockwise_checkpoints(cyclic_ccw_report):
    report = cyclic_ccw_report
    assert report.passed, [c.describe() for c in report.checks if not c.passed]
    cp = report.checkpoints
    for loop in (1, 2):
        assert abs(cp[f"loop{loop}_stage1_P1"] - 1.0) < 1e-6   # |1> at 2T
        assert abs(cp[f"loop{loop}_stage2_P2"] - 1.0) < 1e-6   # |e> at 4T
        assert abs(cp[f"loop{loop}_stage3_P0"] - 1.0) < 1e-6   # |0> at 6T


@pytest.mark.parametrize("fixture", ["cyclic_cw_report", "cyclic_ccw_report"])
def test_cyclic_loops_repeat(fixture, request):
    report = request.getfixturevalue(fixture)
    assert report.checkpoints["loop_periodicity_drift"] < 1e-6


def test_cyclic_stage_end_norms(cyclic_ccw_report):
    cp = cyclic_ccw_report.checkpoints
    for loop in (1, 2):
        for stage in (1, 2, 3):
            assert abs(cp[f"loop{loop}_stage{stage}_total"] - 1.0) < 1e-6


def test_cyclic_phase_tracks_norm(cyclic_cw_report):
    traj = cyclic_cw_report.trajectory
    phase = cyclic_cw_report.phase
    assert np.max(np.abs(np.exp(phase.f_imag) - traj.vector_norm())) < 1e-6


def test_cyclic_norm_not_conserved_midstage(cyclic_cw_report):
    assert np.min(cyclic_cw_report.trajectory.total_norm) < 1.0 - 1e-3


# ---------------------------------------------------------------------------
# verify


def test_verify_two_level_passes_and_extends():
    report = verify(ScenarioConfig(scenario="two_level_b"))
    assert report.passed
    names = [c.name for c in report.checks]
    for expected in (
        "perturbed_omega_breaks_triangularization",
        "hermitian_limit_triangularization",
        "hermitian_limit_von_neumann",
        "misaligned_frame_triangularization",
        "misaligned_frame_von_neumann",
        "biorthogonality_random_generator",
        "dyson_truncation_order_fit",
    ):
        assert expected in names


def test_verify_records_failures_as_data():
    # a coarse grid trips the dt/2 self-check; verify must not raise
    report = verify(ScenarioConfig(scenario="two_level_a", dt=0.1))
    assert not report.passed
    assert any("run_failed" in c.name for c in report.checks)


def test_verify_reports_a_step_that_does_not_divide_the_span():
    report = verify(ScenarioConfig(scenario="two_level_a", dt=0.3))
    assert not report.passed
    names = [c.name for c in report.checks]
    assert any(n.startswith("run_failed") for n in names)
    assert any(n.startswith("hermitian_limit_failed") for n in names)
    assert "biorthogonality_random_generator" in names
    assert report.trajectory.states.shape == (8, 2)


def test_verify_failed_cyclic_run_keeps_the_scenario_shape(tmp_path):
    # dt = 0.1 divides every stage but trips the dt/2 self-check
    report = verify(ScenarioConfig(scenario="cyclic_cw", loops=2, dt=0.1))
    assert not report.passed
    assert any(c.name.startswith("run_failed") for c in report.checks)
    assert report.trajectory.states.shape == (121, 3)
    assert report.trajectory.times[-1] == pytest.approx(12.0)
    path = tmp_path / "failed.csv"
    export_csv(report, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,P0,P1,Pe,total,f_real,f_imag,norm"
    assert len(lines) == 122


def test_verify_records_each_groups_failure_when_stages_fail_to_build():
    # the shared stages cannot be built (dt does not divide a stage); each group
    # that reads them records the build's error, and none raises
    reason = "tf = 2.0 is not an integer number of steps from t0"
    report = verify(ScenarioConfig("cyclic_cw", dt=0.3))
    got = [(c.name, c.value, c.threshold, c.mode, c.passed) for c in report.checks]
    assert got[:3] + got[4:] == [(f"{group}_failed ({reason})", 1.0, 0.0, "below", False)
                                 for group in ("run", "perturbed_omega", "hermitian_limit",
                                               "dyson_truncation")]
    assert got[3][0] == "biorthogonality_random_generator" and got[3][4]
    assert report.checks[3] == scenarios._random_biorthogonality_checks(
        ScenarioConfig("cyclic_cw"))[0]


def public_verify_checks(config):
    """verify's checks from the public run and each group's checks, the
    perturbed ones by synthesizing and then scaling ``omega``."""
    try:
        checks = list(run_scenario(config).checks)
    except PassageError as exc:
        checks = [scenarios._failed_check("run", exc)]
    perturbed = []
    for stage in scenarios._stages(config):
        omega = stage.controls.omega
        controls = replace(stage.controls, omega=lambda t, f=omega: 1.01 * np.asarray(f(t)))
        H = (scenarios.two_level_hamiltonian if stage.H.dim == 2
             else scenarios.three_level_hamiltonian)(controls)
        perturbed.append(triangularization_residual(H, stage.frame, stage.grid))
    checks.append(scenarios.CheckResult.above(
        "perturbed_omega_breaks_triangularization", min(perturbed), 1e-3))
    checks += scenarios._hermitian_limit_checks(config)
    checks += scenarios._random_biorthogonality_checks(config)
    return checks + scenarios._dyson_checks(config)


@pytest.mark.parametrize("gamma_scale", [0.8, 1.15])
@pytest.mark.parametrize("sid", ["two_level_a", "two_level_b", "two_level_c",
                                 "two_level_d", "cyclic_cw", "cyclic_ccw"])
def test_verify_is_the_public_run_plus_each_groups_checks(sid, gamma_scale):
    config = ScenarioConfig(sid, loops=2 if sid in CYCLIC_IDS else 1, gamma_scale=gamma_scale)
    got = [(c.name, repr(c.value), c.threshold, c.mode, c.passed) for c in verify(config).checks]
    want = [(c.name, repr(c.value), c.threshold, c.mode, c.passed)
            for c in public_verify_checks(config)]
    assert got == want


_SHARED_TAIL = [
    "stage_end_f_imag", "phase_norm_identity", "triangularization_residual",
    "consistency_residual", "biorthogonality_defect", "passage_fidelity",
    "step_halving_shift", "perturbed_omega_breaks_triangularization",
    "hermitian_limit_triangularization", "hermitian_limit_von_neumann",
    "misaligned_frame_triangularization", "misaligned_frame_von_neumann",
    "biorthogonality_random_generator", "dyson_truncation_order_fit",
]


def _two_level_names(target):
    return [f"target_population_P{target}(2T)", "final_total_norm",
            "mid_evolution_norm_dip"] + _SHARED_TAIL


def _cyclic_names(levels, extra):
    names = []
    for stage, level in enumerate(levels, start=1):
        names += [f"loop1_stage{stage}_P{level}(t={2 * stage}T)",
                  f"loop1_stage{stage}_total_norm"]
    return names + ["mid_evolution_norm_dip", "bra_stage_Pe_max"] + extra + _SHARED_TAIL


def test_verify_calls_the_public_run_once_by_name(monkeypatch):
    # the run of verify is run_scenario, looked up by name, so a wrapper over
    # it (a tracer's, say) sees verify's run
    configs = []

    def recorder(config, inner=scenarios.run_scenario):
        configs.append(config)
        return inner(config)

    monkeypatch.setattr(scenarios, "run_scenario", recorder)
    config = ScenarioConfig("two_level_a", dt=0.002)
    verify(config)
    assert configs == [config]


@pytest.mark.parametrize("sid,expected", [
    ("two_level_a", _two_level_names(0)),
    ("two_level_b", _two_level_names(1)),
    ("two_level_c", _two_level_names(0)),
    ("two_level_d", _two_level_names(1)),
    ("cyclic_cw", _cyclic_names((2, 1, 0), ["transient_P1(1.6T)_vs_0.07"])),
    ("cyclic_ccw", _cyclic_names((1, 2, 0), [])),
])
def test_verify_check_names_in_order(sid, expected):
    report = verify(ScenarioConfig(scenario=sid))
    assert [c.name for c in report.checks] == expected
    assert report.passed


@pytest.mark.parametrize("sid", CYCLIC_IDS)
def test_verify_negative_controls_cover_every_stage(monkeypatch, sid):
    # classify each triangularization scan that fails as it should: on a
    # non-Hermitian generator it is the 1% drive perturbation, on the
    # Hermitian zero-gain generator it is the misaligned frame; the
    # perturbation scans through triangularization_residual, which calls
    # frames._residuals, and the Hermitian limit through scenarios' binding
    import nhpassage.frames
    import nhpassage.scenarios as scenarios

    inner = scenarios._residuals
    spans = {"perturbed": [], "misaligned": []}

    def recording(H, frames, grid, von_neumann=False):
        peaks = inner(H, frames, grid, von_neumann)
        h = H.sample(np.array([0.5 * (grid.t0 + grid.tf)]))[0]
        for value in peaks[:len(frames)]:  # the triangularization residuals
            if value > 1e-3:
                kind = "misaligned" if np.array_equal(h, h.conj().T) else "perturbed"
                spans[kind].append((grid.t0, grid.tf))
        return peaks

    for module in (scenarios, nhpassage.frames):
        monkeypatch.setattr(module, "_residuals", recording)
    report = verify(ScenarioConfig(scenario=sid))
    assert report.passed
    for kind, covered in spans.items():
        assert sorted(covered) == pytest.approx([(0.0, 2.0), (2.0, 4.0), (4.0, 6.0)]), kind


def test_verify_series_oracle_covers_every_stage(monkeypatch):
    # two horizons per stage, each on that stage's frozen sample 0.6T in:
    # H on a ket stage, H^dag on a bra stage
    config = ScenarioConfig(scenario="cyclic_ccw", loops=2)
    stages = scenarios._stages(config)
    assert {s.passage for s in stages} == {"ket", "bra"}
    inner = scenarios.dyson_truncation
    seen = []

    def recording(H, t, *args, **kwargs):
        seen.append(H.sample(np.array([0.0]))[0])
        return inner(H, t, *args, **kwargs)

    monkeypatch.setattr(scenarios, "dyson_truncation", recording)
    report = verify(config)
    assert report.passed
    assert len(seen) == 2 * len(stages) == 12
    fits = []
    for stage, h in zip(stages, seen[::2]):
        want = stage.H.sample(np.array([stage.grid.t0 + 0.6 * config.T]))[0]
        if stage.passage == "bra":
            want = want.conj().T
        assert np.array_equal(h, want)
        fits.append(scenarios._series_order_fit(want))
    values = {c.name: c.value for c in report.checks}
    assert values["dyson_truncation_order_fit"] == min(fits)


def test_series_order_fit_is_scale_free():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    fit = scenarios._series_order_fit(h)
    assert fit > 4.5
    for scale in (1e-16, 1e6):
        assert abs(scenarios._series_order_fit(scale * h) - fit) <= 1e-6
    # a zero sample has no truncation error to fit, and passes
    assert scenarios._series_order_fit(np.zeros((3, 3), dtype=complex)) == np.inf
    assert scenarios.CheckResult.above("dyson_truncation_order_fit", np.inf, 4.5).passed


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_reports_an_overflowing_run():
    # the gain outruns the step: the state overflows mid-run
    report = verify(ScenarioConfig(scenario="cyclic_cw", gamma_scale=200))
    failed = [c.name for c in report.checks if c.name.startswith("run_failed")]
    assert len(failed) == 1
    assert "t = " in failed[0]
    assert not report.passed


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_run_raises_a_typed_error():
    with pytest.raises(NonFiniteSampleError, match="t = "):
        run_scenario(ScenarioConfig(scenario="cyclic_cw", gamma_scale=200))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_gains_fail_in_synthesis_with_a_typed_error():
    # gains near the float64 limit make the consistency residual NaN at once
    with pytest.raises(NonFiniteSampleError, match=r"alpha .* t = 0 is NaN or Inf"):
        run_scenario(ScenarioConfig(scenario="cyclic_cw", gamma_scale=1e308))


@pytest.mark.parametrize("scenario,loops", [("cyclic_ccw", 2), ("two_level_c", 1)])
def test_stage_tables_serve_the_same_floats(monkeypatch, scenario, loops):
    # every per-stage number of a run's one certificate pass and of verify's
    # Hermitian-limit controls, recomputed by the public calls on the whole
    # stage, must match bit for bit
    config = ScenarioConfig(scenario, T=0.5, loops=loops, gamma_scale=1.15)
    results = {"sweep": [], "certify": []}
    for kind, name in (("sweep", "evolve_ket"), ("sweep", "evolve_bra"), ("certify", "_certify")):
        def recorded(*args, inner=getattr(scenarios, name), kind=kind):
            results[kind].append(inner(*args))
            return results[kind][-1]
        monkeypatch.setattr(scenarios, name, recorded)
    report = run_scenario(config)
    monkeypatch.undo()
    stages = scenarios._stages(config)
    assert any(stage.passage == "bra" for stage in stages)
    assert all(len(per_stage) == len(stages) for per_stage in results.values())
    psi, start = report.trajectory.states[0], 0
    for i, stage in enumerate(stages):
        evolve = evolve_ket if stage.passage == "ket" else evolve_bra
        direct = evolve(stage.H, psi, stage.grid)
        psi, stop = direct.states[-1], start + stage.grid.n_steps + 1
        assert np.array_equal(results["sweep"][i].states, direct.states)
        assert np.array_equal(report.trajectory.states[start:stop], direct.states)
        certificates = results["certify"][i]
        assert certificates["triangularization_residual"] == triangularization_residual(
            stage.H, stage.frame, stage.grid)
        assert certificates["biorthogonality_defect"] == biorthogonality_defect(
            stage.H, stage.grid)
        phase = (phase_two_level if stage.H.dim == 2 else phase_three_level)(
            stage.controls, stage.frame_params, stage.grid, passage=stage.passage)
        for part in ("f_real", "f_imag"):  # the boundary point keeps the earlier stage's
            assert np.array_equal(getattr(report.phase, part)[start + 1:stop],
                                  getattr(phase, part)[1:])
        assert certificates["stage_end_f_imag"] == abs(phase.f_imag[-1])
        assert certificates["passage_fidelity"] == whole_stage_fidelity(
            direct.states, stage, phase)
        start = stop - 1
    values = {c.name: c.value for c in report.checks}
    for name in ("triangularization_residual", "biorthogonality_defect", "passage_fidelity"):
        assert values[name] == max(c[name] for c in results["certify"])

    report = verify(config)
    zero_gain = scenarios._stages(replace(config, gamma_scale=0.0))
    bad = scenarios._misaligned_frame(zero_gain[0].H.dim, config.T)
    values = {c.name: c.value for c in report.checks}
    assert values["hermitian_limit_triangularization"] == max(
        triangularization_residual(s.H, s.frame, s.grid) for s in zero_gain)
    assert values["hermitian_limit_von_neumann"] == max(
        von_neumann_residual(s.H, s.frame, s.grid) for s in zero_gain)
    assert values["misaligned_frame_triangularization"] == min(
        triangularization_residual(s.H, bad, s.grid) for s in zero_gain)
    assert values["misaligned_frame_von_neumann"] == min(
        von_neumann_residual(s.H, bad, s.grid) for s in zero_gain)


@pytest.mark.parametrize("scenario,loops", [("cyclic_cw", 2), ("two_level_c", 1)])
def test_each_stage_check_is_the_one_fold_of_the_stage_records(monkeypatch, scenario, loops):
    # every per-stage check but phase_norm_identity is the np.max of its stages'
    # values, each stage's dt/2 shift is its largest population change against
    # its re-run, and the step check is handed the one folded shift
    sweeps, certificates, handed = [], [], []

    def sweep(stage, psi_fine, out, inner=scenarios._sweep):
        start = psi_fine.copy()
        end, shift = inner(stage, psi_fine, out)
        sweeps.append((stage, start, out.copy(), shift))
        return end, shift

    def certify(*args, inner=scenarios._certify):
        certificates.append(inner(*args))
        return certificates[-1]

    def step_check(shift, inner=scenarios._step_check):
        handed.append(shift)
        return inner(shift)

    for name, stand_in in (("_sweep", sweep), ("_certify", certify), ("_step_check", step_check)):
        monkeypatch.setattr(scenarios, name, stand_in)
    report = run_scenario(ScenarioConfig(scenario, loops=loops))
    monkeypatch.undo()
    assert len(sweeps) == len(certificates) == (3 * loops if scenario in CYCLIC_IDS else 1)
    for stage, psi_fine, states, shift in sweeps:
        H = stage.H if stage.passage == "ket" else stage.H.adjoint()
        fine = scenarios.evolve_ket_halved(H, psi_fine, stage.grid).states
        assert same_bits(shift, np.max(np.abs(np.abs(states) ** 2 - np.abs(fine) ** 2)))
    recorded = {name: [c[name] for c in certificates] for name in certificates[0]}
    recorded["step_halving_shift"] = [shift for *_, shift in sweeps]
    recorded["consistency_residual"] = [stage.controls.consistency for stage, *_ in sweeps]
    values = {c.name: c.value for c in report.checks}
    assert set(values) >= set(recorded) | {"phase_norm_identity"} and len(recorded) == 6
    for name, per_stage in recorded.items():
        assert same_bits(values[name], float(np.max(per_stage))), name
    assert len(handed) == 1 and np.ndim(handed[0]) == 0
    assert same_bits(handed[0], np.max(recorded["step_halving_shift"]))


# ---------------------------------------------------------------------------
# every per-stage fold keeps a NaN: a certificate that is NaN on a later stage
# reads NaN and fails, however the other stages' values compare


def on_stage_2(t0):
    """Whether a stage of a T = 1 run starts where stage 2 does."""
    return t0 == 2.0


@pytest.mark.parametrize("check", [
    "triangularization_residual", "biorthogonality_defect", "passage_fidelity"])
def test_run_keeps_a_nan_certificate_of_a_later_stage(monkeypatch, check):
    inner = scenarios._certify

    def stand_in(stage, *args):
        certificates = inner(stage, *args)
        return {**certificates, check: np.nan} if on_stage_2(stage.grid.t0) else certificates

    monkeypatch.setattr(scenarios, "_certify", stand_in)
    report = run_scenario(ScenarioConfig("cyclic_cw"))
    result = next(c for c in report.checks if c.name == check)
    assert np.isnan(result.value) and not result.passed


def test_run_keeps_a_nan_stage_end_phase_of_a_later_stage(monkeypatch):
    # the phase of stage 2's last chunk ends in a NaN
    inner = scenarios._accumulate_simpson

    def stand_in(rates, times, start=None):
        f = inner(rates, times, start)
        if times[-1] == 4.0:
            f[-1] = complex(0.0, np.nan)
        return f

    monkeypatch.setattr(scenarios, "_accumulate_simpson", stand_in)
    report = run_scenario(ScenarioConfig("cyclic_cw"))
    result = next(c for c in report.checks if c.name == "stage_end_f_imag")
    assert np.isnan(result.value) and not result.passed


def test_run_keeps_a_nan_consistency_of_a_later_stage(monkeypatch):
    config = ScenarioConfig("cyclic_cw")
    stages = scenarios._stages(config)
    stages[1] = replace(stages[1], controls=replace(stages[1].controls, consistency=np.nan))
    monkeypatch.setattr(scenarios, "_stages", lambda _: stages)
    report = run_scenario(config)
    result = next(c for c in report.checks if c.name == "consistency_residual")
    assert np.isnan(result.value) and not result.passed


def test_verify_controls_keep_a_nan_of_a_later_stage(monkeypatch):
    # the perturbation scans through triangularization_residual, which calls
    # frames._residuals, and the Hermitian limit through scenarios' binding
    import nhpassage.frames

    inner = scenarios._residuals

    def stand_in(H, frames, grid, von_neumann=False):
        peaks = inner(H, frames, grid, von_neumann)
        return [np.nan] * len(peaks) if on_stage_2(grid.t0) else peaks

    for module in (scenarios, nhpassage.frames):
        monkeypatch.setattr(module, "_residuals", stand_in)
    report = verify(ScenarioConfig("cyclic_cw"))
    checks = {c.name: c for c in report.checks}
    for name in ("perturbed_omega_breaks_triangularization",
                 "hermitian_limit_triangularization", "hermitian_limit_von_neumann",
                 "misaligned_frame_triangularization", "misaligned_frame_von_neumann"):
        assert np.isnan(checks[name].value) and not checks[name].passed, name


# ---------------------------------------------------------------------------
# exports


def test_csv_schema_two_level(tmp_path, two_level_reports):
    report = two_level_reports["two_level_a"]
    path = tmp_path / "out.csv"
    export_csv(report, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,P0,P1,total,f_real,f_imag,norm"
    assert len(lines) == 1 + report.trajectory.times.size
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[3].startswith("1.00000000000")
    # 12 significant digits, trailing zeros kept
    assert first[3] == "1.00000000000"


def test_csv_schema_cyclic_has_pe(tmp_path, cyclic_cw_report):
    path = tmp_path / "cw.csv"
    export_csv(cyclic_cw_report, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "t,P0,P1,Pe,total,f_real,f_imag,norm"


def test_csv_reexport_is_byte_identical(tmp_path, two_level_reports):
    report = two_level_reports["two_level_c"]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    export_csv(report, p1)
    export_csv(report, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_svg_two_level_polylines(tmp_path, two_level_reports):
    path = tmp_path / "a.svg"
    export_svg(two_level_reports["two_level_a"], path)
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 3  # P0, P1, total


def test_svg_cyclic_polylines(tmp_path, cyclic_cw_report):
    path = tmp_path / "cw.svg"
    export_svg(cyclic_cw_report, path)
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}polyline")) == 4  # P0, P1, Pe, total


def test_svg_reexport_is_byte_identical(tmp_path, cyclic_ccw_report):
    p1, p2 = tmp_path / "one.svg", tmp_path / "two.svg"
    export_svg(cyclic_ccw_report, p1)
    export_svg(cyclic_ccw_report, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_identical_configs_reproduce_identical_numbers():
    r1 = run_two_level(ScenarioConfig(scenario="two_level_d"))
    r2 = run_two_level(ScenarioConfig(scenario="two_level_d"))
    assert r1.checkpoints == r2.checkpoints
    assert np.array_equal(r1.trajectory.states, r2.trajectory.states)


# ---------------------------------------------------------------------------
# config files


#: The keys ``verify`` and ``two-level`` read from a config file.
VERIFY_KEYS = ("scenario", "loops", "T", "dt", "gamma_scale", "tolerance", "csv", "svg")
TWO_LEVEL_KEYS = ("scenario", "T", "dt", "gamma_scale", "tolerance", "csv", "svg")


def test_read_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# demo\nscenario = a\nT = 2.0\nloops=3  # inline\n", encoding="utf-8")
    assert read_config(path, VERIFY_KEYS, "verify") == {"scenario": "a", "T": "2.0", "loops": "3"}


MALFORMED_CONFIGS = {  # file text -> the error it must raise, read for two-level
    "bogus_key = 1\n": r":1: unknown key 'bogus_key'",
    "just some words\n": r":1: expected key=value",
    "T =\n": r":1: empty value for 'T'",
    "T = 1\nscenario = a\nT = 2\n": r":3: duplicate key 'T' \(first set on line 1\)",
    "scenario = a\nloops = 1\n": (r":2: unknown key 'loops' for two-level \(it reads scenario, "
                                  r"T, dt, gamma_scale, tolerance, csv, svg\)$"),
}


@pytest.mark.parametrize("content", list(MALFORMED_CONFIGS))
def test_read_config_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.cfg"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ConfigError, match=MALFORMED_CONFIGS[content]):
        read_config(path, TWO_LEVEL_KEYS, "two-level")


def test_read_config_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"scenario = a\nT = \xff\xfe1\n")
    with pytest.raises(ConfigError, match=r"latin\.cfg: not UTF-8 text"):
        read_config(path, VERIFY_KEYS, "verify")


# ---------------------------------------------------------------------------
# CLI


def test_cli_two_level_writes_outputs(tmp_path, capsys):
    csv = tmp_path / "a.csv"
    svg = tmp_path / "a.svg"
    code = cli_main(["two-level", "--scenario", "a", "--quiet",
                     "--csv", str(csv), "--svg", str(svg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out
    assert csv.exists() and svg.exists()


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = a\nT = 1.0\n", encoding="utf-8")
    code = cli_main(["two-level", "--config", str(cfg), "--scenario", "b", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "two_level_b" in out


@pytest.fixture
def verified_configs(monkeypatch):
    """The configs ``cli.main`` hands to ``verify``, with a passing stand-in report."""
    import types

    import nhpassage.cli as cli

    configs = []

    def fake_verify(config):
        configs.append(config)
        return types.SimpleNamespace(checks=[], passed=True)

    monkeypatch.setattr(cli, "verify", fake_verify)
    return configs


def test_cli_leaves_run_defaults_to_the_config(verified_configs, capsys):
    assert cli_main(["verify", "--scenario", "a", "--quiet"]) == 0
    assert verified_configs == [ScenarioConfig("two_level_a")]


def test_cli_flag_and_file_values_reach_the_config(tmp_path, verified_configs, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = b\nT = 2.5\n", encoding="utf-8")
    assert cli_main(["verify", "--config", str(cfg), "--tolerance", "3e-7", "--quiet"]) == 0
    assert verified_configs == [ScenarioConfig("two_level_b", T=2.5, tolerance=3e-7)]


def test_cli_cyclic_and_verify(capsys):
    assert cli_main(["cyclic", "--direction", "ccw", "--loops", "1", "--quiet"]) == 0
    capsys.readouterr()
    assert cli_main(["verify", "--scenario", "a", "--quiet"]) == 0


@pytest.mark.parametrize("value", ["cw", "ccw", "cyclic_cw", "cyclic_ccw", "custom", "e"])
def test_cli_two_level_rejects_a_config_scenario_that_is_not_two_level(
        tmp_path, monkeypatch, capsys, value):
    # a config file value passes the same id check as a flag
    import nhpassage.cli as cli

    monkeypatch.setattr(cli, "run_scenario", lambda config: pytest.fail(config.scenario))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = {value}\n", encoding="utf-8")
    code = cli_main(["two-level", "--config", str(cfg), "--quiet"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == (f"error: two-level scenario {value!r} is not one of a|b|c|d or "
                   "('two_level_a', 'two_level_b', 'two_level_c', 'two_level_d')\n")


@pytest.mark.parametrize("value,sid", [("b", "two_level_b"), ("two_level_d", "two_level_d")])
def test_cli_two_level_takes_a_short_or_full_config_scenario(
        tmp_path, monkeypatch, capsys, value, sid):
    import types

    import nhpassage.cli as cli

    configs = []

    def fake_run(config):
        configs.append(config)
        return types.SimpleNamespace(checks=[], passed=True)

    monkeypatch.setattr(cli, "run_scenario", fake_run)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = {value}\n", encoding="utf-8")
    assert cli_main(["two-level", "--config", str(cfg), "--quiet"]) == 0
    assert configs == [ScenarioConfig(sid)]


def test_cli_verify_custom_is_an_unknown_scenario(verified_configs, capsys):
    code = cli_main(["verify", "--scenario", "custom", "--quiet"])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and verified_configs == []
    assert err == ("error: verify scenario 'custom' is not one of a|b|c|d|cw|ccw or "
                   "('two_level_a', 'two_level_b', 'two_level_c', 'two_level_d', "
                   "'cyclic_cw', 'cyclic_ccw')\n")


@pytest.mark.parametrize("value", ["a", "two_level_a", "custom", "cyclic", "CW"])
def test_cli_cyclic_rejects_a_config_direction_that_is_not_cyclic(
        tmp_path, monkeypatch, capsys, value):
    # the message names the value the file holds, not an id built from it
    import nhpassage.cli as cli

    monkeypatch.setattr(cli, "run_scenario", lambda config: pytest.fail(config.scenario))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"direction = {value}\n", encoding="utf-8")
    code = cli_main(["cyclic", "--config", str(cfg), "--quiet"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == (f"error: cyclic direction {value!r} is not one of cw|ccw or "
                   "('cyclic_cw', 'cyclic_ccw')\n")


@pytest.mark.parametrize("value,sid", [("cw", "cyclic_cw"), ("ccw", "cyclic_ccw"),
                                       ("cyclic_cw", "cyclic_cw"), ("cyclic_ccw", "cyclic_ccw")])
def test_cli_cyclic_takes_a_short_or_full_config_direction(
        tmp_path, monkeypatch, capsys, value, sid):
    import types

    import nhpassage.cli as cli

    configs = []

    def fake_run(config):
        configs.append(config)
        return types.SimpleNamespace(checks=[], passed=True)

    monkeypatch.setattr(cli, "run_scenario", fake_run)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"direction = {value}\nloops = 2\n", encoding="utf-8")
    assert cli_main(["cyclic", "--config", str(cfg), "--quiet"]) == 0
    assert configs == [ScenarioConfig(sid, loops=2)]


@pytest.mark.parametrize("command,message", [
    ("two-level", "two-level needs --scenario a|b|c|d (or a config entry)"),
    ("cyclic", "cyclic needs --direction cw|ccw (or a config entry)"),
    ("verify", "verify needs --scenario a|b|c|d|cw|ccw (or a config entry)"),
], ids=["two-level", "cyclic", "verify"])
def test_cli_names_the_missing_key_and_its_ids(capsys, command, message):
    assert cli_main([command, "--quiet"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_cli_missing_scenario_is_an_error(capsys):
    code = cli_main(["two-level", "--quiet"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_failure_exit_code(capsys):
    # coarse dt trips the step check; the CLI reports and exits nonzero
    code = cli_main(["two-level", "--scenario", "a", "--dt", "0.1", "--quiet"])
    assert code == 1


def test_cli_verify_failure_is_reported_not_raised(tmp_path, capsys):
    csv = tmp_path / "failed.csv"
    code = cli_main(["verify", "--scenario", "a", "--dt", "0.3", "--csv", str(csv)])
    assert code == 1
    out, err = capsys.readouterr()
    assert "FAIL  run_failed" in out
    assert out.splitlines()[-1].startswith("FAILED:")
    assert err == ""
    assert len(csv.read_text(encoding="utf-8").splitlines()) == 9


def test_cli_two_level_loops_is_a_clean_error(capsys):
    code = cli_main(["verify", "--scenario", "a", "--loops", "3", "--quiet"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: loops")


@pytest.mark.parametrize("flag,value,key", [("--gamma-scale", "nan", "gamma_scale"),
                                            ("--gamma-scale", "-nan", "gamma_scale"),
                                            ("--dt", "-inf", "dt")])
def test_cli_non_finite_flag_is_a_clean_error(no_run, capsys, flag, value, key):
    # -nan and -inf are flag values, not flags: argparse alone would exit 2
    code = cli_main(["cyclic", "--direction", "cw", flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be finite")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_cli_bad_config_number_is_a_clean_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = a\nloops = two\n", encoding="utf-8")
    code = cli_main(["verify", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config value loops = 'two' is not a valid int")
    assert "Traceback" not in err


def test_cli_non_utf8_config_is_a_clean_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"scenario = a\nT = \xff\xfe1\n")
    code = cli_main(["verify", "--config", str(cfg)])
    assert code == 1
    out, err = capsys.readouterr()
    assert err == f"error: {cfg}: not UTF-8 text (invalid start byte)\n"
    assert out == ""


def test_cli_typed_argument_error_is_a_clean_error(monkeypatch, capsys):
    # a stage list whose first stage names no passage: the stage is built, and
    # its phase raises the typed error when the run reads it
    import nhpassage.scenarios as scenarios

    sign, loop = scenarios._CYCLES["cyclic_cw"]
    monkeypatch.setitem(scenarios._CYCLES, "cyclic_cw",
                        (sign, ((*loop[0][:2], "side", *loop[0][3:]),) + loop[1:]))
    code = cli_main(["cyclic", "--direction", "cw", "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: passage must be 'ket' or 'bra', got 'side'\n"


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test if ``cli.main`` starts a run."""
    import nhpassage.cli as cli

    monkeypatch.setattr(cli, "run_scenario", lambda config: pytest.fail(config.scenario))
    monkeypatch.setattr(cli, "verify", lambda config: pytest.fail(config.scenario))


@pytest.mark.parametrize("command,content,key", [
    ("cyclic", "direction = cw\nscenario = a\n", "scenario"),
    ("verify", "scenario = a\ndirection = ccw\n", "direction"),
    ("two-level", "scenario = a\nloops = 1\n", "loops"),
], ids=["cyclic-scenario", "verify-direction", "two-level-loops"])
def test_cli_rejects_a_config_key_the_subcommand_does_not_read(
        tmp_path, no_run, capsys, command, content, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(content, encoding="utf-8")
    assert cli_main([command, "--config", str(cfg), "--quiet"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: {cfg}:2: unknown key {key!r} for {command} (it reads ")


@pytest.mark.parametrize("command,flag,key", [
    ("cyclic", ["--scenario", "a"], "scenario"),
    ("verify", ["--direction", "ccw"], "direction"),
    ("two-level", ["--loops", "1"], "loops"),
    ("two-level", ["--loops=1"], "loops"),
    ("two-level", ["--loops", "-1"], "loops"),
    ("two-level", ["--direction", "cw"], "direction"),
], ids=["cyclic-scenario", "verify-direction", "two-level-loops", "two-level-loops=",
        "two-level-loops-negative", "two-level-direction"])
def test_cli_rejects_a_flag_of_another_subcommand_like_a_config_key(
        tmp_path, no_run, capsys, command, flag, key):
    # the flag and the same key in a config file fail alike: exit 1, one line
    first = {"cyclic": ["--direction", "cw"], "verify": ["--scenario", "a"],
             "two-level": ["--scenario", "a"]}[command]
    assert cli_main([command] + first + flag + ["--quiet"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    reads = ", ".join(k for k, _, _, commands in OPTIONS if command in commands)
    assert err == f"error: --{key}: unknown key {key!r} for {command} (it reads {reads})\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n", encoding="utf-8")
    assert cli_main([command] + first + ["--config", str(cfg), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:1: unknown key {key!r} for {command} (it reads {reads})\n")


@pytest.mark.parametrize("extra", [["--bogus", "1"], ["--loop", "2"], ["junk"],
                                   ["--loops", "1", "--bogus"],
                                   ["--gamma_scale", "1.0"], ["--gamma_scale=1.0"]])
def test_cli_other_unknown_words_stay_argparse_usage_errors(no_run, capsys, extra):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["two-level", "--scenario", "a"] + extra)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(extra)}\n")


@pytest.mark.parametrize("value,gamma_scale", [("-1e-3", -0.001), ("-0.5", -0.5),
                                               ("-1E+0", -1.0)])
def test_cli_a_negative_number_is_a_flag_value(verified_configs, capsys, value, gamma_scale):
    # argparse alone reads -1e-3 as a flag: "expected one argument", exit 2
    assert cli_main(["verify", "--scenario", "cw", "--gamma-scale", value, "--quiet"]) == 0
    assert verified_configs == [ScenarioConfig("cyclic_cw", gamma_scale=gamma_scale)]


def test_cli_a_dashed_word_that_is_no_number_is_no_flag_value(no_run, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["two-level", "--scenario", "a", "--csv", "-x.csv"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --csv: expected one argument\n")


@pytest.mark.parametrize("argv,sid", [
    (["two-level", "--scenario", "two_level_c"], "two_level_c"),
    (["cyclic", "--direction", "cyclic_ccw"], "cyclic_ccw"),
    (["verify", "--scenario", "cyclic_cw"], "cyclic_cw"),
])
def test_cli_takes_a_full_id_as_a_flag(verified_configs, monkeypatch, capsys, argv, sid):
    import nhpassage.cli as cli

    monkeypatch.setattr(cli, "run_scenario", cli.verify)  # the same stand-in
    assert cli_main(argv + ["--quiet"]) == 0
    assert verified_configs == [ScenarioConfig(sid)]


@pytest.mark.parametrize("argv,message", [
    (["two-level", "--scenario", "cw"],
     "two-level scenario 'cw' is not one of a|b|c|d or "
     "('two_level_a', 'two_level_b', 'two_level_c', 'two_level_d')"),
    (["cyclic", "--direction", "a"],
     "cyclic direction 'a' is not one of cw|ccw or ('cyclic_cw', 'cyclic_ccw')"),
    (["cyclic", "--direction", "cw", "--loops", "two"],
     "config value loops = 'two' is not a valid int"),
    (["verify", "--scenario", "a", "--T", "1.0.0"], "config value T = '1.0.0' is not a valid float"),
])
def test_cli_bad_flag_value_is_the_config_file_error(no_run, capsys, argv, message):
    # one error line and exit 1, as for the same value in a config file
    assert cli_main(argv + ["--quiet"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_option_errors_are_config_errors():
    import nhpassage.cli as cli

    with pytest.raises(ConfigError, match=r"is not one of cw\|ccw"):
        cli._cast("cyclic", "direction", scenarios.CYCLIC_IDS, "two_level_a")
    with pytest.raises(ConfigError, match="is not a valid int"):
        cli._cast("cyclic", "loops", int, "2.0")
    with pytest.raises(ConfigError, match=r"^cyclic needs --direction cw\|ccw"):
        cli._options(cli._build_parser().parse_args(["cyclic"]))


# ---------------------------------------------------------------------------
# CLI: flags against the config file

#: Per subcommand, the keys it reads as a flag or a config file key.
READS = {"two-level": TWO_LEVEL_KEYS,
         "cyclic": ("direction", "loops", "T", "dt", "gamma_scale", "tolerance", "csv", "svg"),
         "verify": VERIFY_KEYS}
ALL_KEYS = ("scenario", "direction") + VERIFY_KEYS[1:]


def _file_value(value: str) -> bool:
    """Whether ``key = value`` holds ``value`` as written: a config line cannot
    carry a line break, a comment sign or whitespace at either end."""
    return bool(value) and value == value.strip() and not set(value) & set("#\n\r")


_IDS = st.sampled_from(["a", "b", "c", "d", "cw", "ccw", *scenarios.SCENARIO_IDS,
                        "e", "CW", "two_level_e", "cyclic"])
_NUMBERS = st.one_of(
    st.integers(-2, 12).map(str),
    st.floats(1e-4, 4.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["two", "1.5", "2.0", "1e3", "1_0", "0x10", "٣", "-0", "nan"]),
)
_PATHS = st.text("abcxyz019._-/", min_size=1, max_size=8)
_ANY_TEXT = st.text(min_size=1, max_size=8).filter(_file_value)
_VALUES = {key: st.one_of({"scenario": _IDS, "direction": _IDS, "csv": _PATHS, "svg": _PATHS}
                          .get(key, _NUMBERS).filter(_file_value), _ANY_TEXT)
           for key in ALL_KEYS}
_UNREAD = {command: st.one_of(st.sampled_from([k for k in ALL_KEYS if k not in reads]),
                              _ANY_TEXT.filter(lambda k: "=" not in k and k not in ALL_KEYS))
           for command, reads in READS.items()}


def _cli_outcome(tmp_path, command, flags, file_values):
    """Exit code, stderr and every call ``cli.main`` makes to a run or an
    exporter, each a stand-in; flags are written ``--key=value``."""
    import types

    import nhpassage.cli as cli

    calls = []
    report = types.SimpleNamespace(checks=[], passed=True)

    def run(config):
        calls.append(("run", config))
        return report

    argv = [command, "--quiet"]
    argv += [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
    if file_values:
        cfg = tmp_path / "drawn.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in file_values.items()), encoding="utf-8")
        argv += ["--config", str(cfg)]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        mp.setattr(cli, "run_scenario", run)
        mp.setattr(cli, "verify", run)
        mp.setattr(cli, "export_csv", lambda r, path: calls.append(("csv", path)))
        mp.setattr(cli, "export_svg", lambda r, path: calls.append(("svg", path)))
        code = cli.main(argv)
    return code, err.getvalue(), calls


@st.composite
def _split_options(draw):
    """A subcommand, options it reads (values as text, good or bad) and the
    keys that go to the config file rather than to flags."""
    command = draw(st.sampled_from(sorted(READS)))
    keys = draw(st.lists(st.sampled_from(READS[command]), unique=True))
    options = {key: draw(_VALUES[key]) for key in keys}
    in_file = draw(st.sets(st.sampled_from(keys))) if keys else set()
    return command, options, in_file


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_split_options())
def test_cli_flags_and_config_file_give_the_same_run(tmp_path, drawn):
    command, options, in_file = drawn
    flags = {k: v for k, v in options.items() if k not in in_file}
    file_values = {k: v for k, v in options.items() if k in in_file}
    code, err, calls = _cli_outcome(tmp_path, command, flags, file_values)
    assert (code, err, calls) == _cli_outcome(tmp_path, command, options, {})
    if calls:
        assert code == 0 and err == ""
    else:
        assert code == 1 and len(err.splitlines()) == 1 and err.startswith("error: ")


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_config_key_the_subcommand_does_not_read_stops_the_run(tmp_path, data):
    command, options, _ = data.draw(_split_options())
    unread = data.draw(_UNREAD[command])
    file_values = {**options, unread: data.draw(_ANY_TEXT)}
    code, err, calls = _cli_outcome(tmp_path, command, {}, file_values)
    assert code == 1 and calls == []
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and f"unknown key {unread!r} for {command}" in err
