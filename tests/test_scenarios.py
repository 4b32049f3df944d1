"""Scenario runner, verification suite, exports, config files, CLI."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from nhpassage import (
    ConfigError,
    ScenarioConfig,
    StepSizeError,
    TwoLevelScenario,
    clockwise_schedule,
    export_csv,
    export_svg,
    run_scenario,
    run_two_level,
    two_level_scenario,
    verify,
)
from nhpassage.cli import main as cli_main
from nhpassage.config import read_config


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


def test_initial_state_is_exactly_prepared(two_level_reports):
    for sid, report in two_level_reports.items():
        scenario = two_level_scenario(sid, report.config.T)
        expected = np.zeros(2)
        expected[scenario.initial_level] = 1.0
        assert np.array_equal(report.trajectory.populations[0], expected)


def test_report_checkpoints_complete(two_level_reports):
    report = two_level_reports["two_level_a"]
    for key in ("P0_end", "P1_end", "total_end", "total_min"):
        assert key in report.checkpoints
    for key in ("triangularization", "consistency", "biorthogonality",
                "step_check", "passage_fidelity"):
        assert key in report.residuals


def test_custom_two_level_scenario_runs():
    # a slower sweep, same boundary angles as scenario (a)
    T = 1.0
    quarter = np.pi / (4 * T)
    scenario = TwoLevelScenario(
        label="custom",
        theta=lambda t: -(quarter * (np.asarray(t, float) - T) + np.pi / 4),
        theta_dot=lambda t: np.full_like(np.asarray(t, float), -quarter),
        initial_level=1, target_level=0, passage="ket",
        gamma_ratio=1.0,
    )
    report = run_two_level(ScenarioConfig(scenario="custom"), scenario)
    assert report.passed


def test_coarse_step_fails_convergence_check():
    with pytest.raises(StepSizeError):
        run_two_level(ScenarioConfig(scenario="two_level_a", dt=0.1))


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


def test_config_accepts_numpy_scalars():
    config = ScenarioConfig(scenario="cyclic_cw", T=np.float64(0.5), dt=np.float32(0.25),
                            loops=np.int64(2), gamma_scale=np.int32(1))
    assert config.loops == 2 and config.resolved_dt() == 0.25


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="nope")
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="cyclic_cw", loops=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="two_level_a", T=-1.0)
    with pytest.raises(ConfigError):
        run_scenario(ScenarioConfig(scenario="custom"))


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


def test_read_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# demo\nscenario = a\nT = 2.0\nloops=3  # inline\n", encoding="utf-8")
    assert read_config(path) == {"scenario": "a", "T": "2.0", "loops": "3"}


@pytest.mark.parametrize("content", ["bogus_key = 1\n", "just some words\n", "T =\n"])
def test_read_config_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.cfg"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ConfigError):
        read_config(path)


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


def test_cli_cyclic_and_verify(capsys):
    assert cli_main(["cyclic", "--direction", "ccw", "--loops", "1", "--quiet"]) == 0
    capsys.readouterr()
    assert cli_main(["verify", "--scenario", "a", "--quiet"]) == 0


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


def test_cli_non_finite_flag_is_a_clean_error(capsys):
    code = cli_main(["cyclic", "--direction", "cw", "--gamma-scale", "nan"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gamma_scale must be finite")
    assert "Traceback" not in err


def test_cli_bad_config_number_is_a_clean_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = a\nloops = two\n", encoding="utf-8")
    code = cli_main(["verify", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config value loops = 'two' is not a valid int")
    assert "Traceback" not in err


def test_cli_typed_argument_error_is_a_clean_error(monkeypatch, capsys):
    # route a loop index of 0 into the schedule builder the runner uses
    import nhpassage.scenarios as scenarios

    monkeypatch.setattr(scenarios, "clockwise_schedule",
                        lambda k, T: clockwise_schedule(k - 1, T))
    code = cli_main(["cyclic", "--direction", "cw", "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: loop index must be >= 1, got 0\n"
