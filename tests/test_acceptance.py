"""Acceptance suite: the quantitative exit criteria of the package.

Each test prints one PASS line with the measured numbers once its
assertions hold (run with ``pytest -s`` to see them).  Tolerances are
fixed here, not imported, so loosening a library constant cannot silently
weaken the gate.  Everything runs at desk scale (T = 1, dt = T/2000).
"""

from dataclasses import replace

import numpy as np
import pytest

from nhpassage import (
    ScenarioConfig,
    TimeGrid,
    biorthogonality_defect,
    constant_operator,
    dyson_truncation,
    export_csv,
    export_svg,
    propagator_ket,
    run_two_level,
    triangularization_residual,
    von_neumann_residual,
)
from nhpassage.scenarios import (
    CYCLIC_IDS,
    TWO_LEVEL_IDS,
    _drive_scaled,
    _misaligned_frame,
    _stages,
)
from bra_phase_reference import bra_phase_relation_check
from test_dynamics import smooth_generator
from test_synthesis import (
    GRID,
    STANDARD,
    ramp_down_params,
    synthesize_stage1_cw,
    synthesize_two_level,
)


def _report(two_level_reports, cyclic_cw_report, cyclic_ccw_report, sid):
    if sid in TWO_LEVEL_IDS:
        return two_level_reports[sid]
    return cyclic_cw_report if sid == "cyclic_cw" else cyclic_ccw_report


def test_criterion_01_two_level_transfers(two_level_reports):
    """Fig-2-style transfers: unit target population, mid-run dip, final norm."""
    worst_target = worst_final = 0.0
    worst_dip = 1.0
    targets = {"two_level_a": 0, "two_level_b": 1, "two_level_c": 0, "two_level_d": 1}
    for sid, target in targets.items():
        traj = two_level_reports[sid].trajectory
        worst_target = max(worst_target, abs(traj.populations[-1, target] - 1.0))
        worst_final = max(worst_final, abs(traj.total_norm[-1] - 1.0))
        worst_dip = min(worst_dip, float(np.min(traj.total_norm)))
        assert abs(traj.populations[-1, target] - 1.0) <= 1e-6
        assert abs(traj.total_norm[-1] - 1.0) <= 1e-6
        assert np.min(traj.total_norm) < 1.0 - 1e-3
    print(f"\n[criterion 01] two-level transfers a-d: PASS "
          f"(max target dev {worst_target:.2e}, max final-norm dev {worst_final:.2e}, "
          f"deepest dip {worst_dip:.3f})")


def test_criterion_02_cyclic_clockwise(cyclic_cw_report):
    """Clockwise loops: unit checkpoints for two loops, 1.6T transient, clean stage 3."""
    report = cyclic_cw_report
    cp = report.checkpoints
    for loop in (1, 2):
        assert abs(cp[f"loop{loop}_stage1_P2"] - 1.0) <= 1e-6
        assert abs(cp[f"loop{loop}_stage2_P1"] - 1.0) <= 1e-6
        assert abs(cp[f"loop{loop}_stage3_P0"] - 1.0) <= 1e-6
    transient = cp["P1_at_1.6T"]
    assert abs(transient - 0.07) <= 0.02
    T = report.config.T
    times = report.trajectory.times
    stage3 = ((times >= 4 * T) & (times <= 6 * T)) | ((times >= 10 * T) & (times <= 12 * T))
    pe_max = float(np.max(report.trajectory.populations[stage3, 2]))
    assert pe_max < 1e-8
    print(f"\n[criterion 02] clockwise cyclic transfer: PASS "
          f"(P1(1.6T) = {transient:.4f}, stage-3 Pe max {pe_max:.2e})")


def test_criterion_03_cyclic_counterclockwise(cyclic_ccw_report):
    """Counterclockwise loops: unit checkpoints for two loops."""
    cp = cyclic_ccw_report.checkpoints
    worst = 0.0
    for loop in (1, 2):
        for key, level in (("stage1_P1", 1), ("stage2_P2", 2), ("stage3_P0", 0)):
            dev = abs(cp[f"loop{loop}_{key}"] - 1.0)
            worst = max(worst, dev)
            assert dev <= 1e-6
    print(f"\n[criterion 03] counterclockwise cyclic transfer: PASS "
          f"(max checkpoint dev {worst:.2e})")


def test_criterion_04_triangularization_certificate(
        two_level_reports, cyclic_cw_report, cyclic_ccw_report):
    """Every built-in scenario triangularizes; a 1% drive error breaks every stage."""
    worst_residual = 0.0
    worst_perturbed = np.inf
    for sid in TWO_LEVEL_IDS + CYCLIC_IDS:
        report = _report(two_level_reports, cyclic_cw_report, cyclic_ccw_report, sid)
        residual = next(c.value for c in report.checks
                        if c.name == "triangularization_residual")
        worst_residual = max(worst_residual, residual)
        assert residual < 1e-9, sid
        for stage in _stages(ScenarioConfig(scenario=sid)):
            perturbed = triangularization_residual(
                _drive_scaled(stage, 1.01), stage.frame, stage.grid)
            worst_perturbed = min(worst_perturbed, perturbed)
            assert perturbed > 1e-3, (sid, stage.grid.t0)
    print(f"\n[criterion 04] triangularization certificate: PASS "
          f"(max residual {worst_residual:.2e}, weakest perturbed response "
          f"{worst_perturbed:.2e})")


@pytest.mark.parametrize("sid", ["two_level_a", "cyclic_cw"])
def test_criterion_05_hermitian_reduction(sid):
    """Zero-gain limit: triangularization and projector-commutation residuals
    vanish together on every stage's frame and grid; a misaligned frame fails both."""
    config = ScenarioConfig(scenario=sid)
    tri = von = 0.0
    tri_bad = von_bad = np.inf
    for stage in _stages(replace(config, gamma_scale=0.0)):
        H, frame, grid = stage.H, stage.frame, stage.grid
        tri_s = triangularization_residual(H, frame, grid)
        von_s = von_neumann_residual(H, frame, grid)
        assert tri_s < 1e-9 and von_s < 1e-9
        assert von_s < 10.0 * max(tri_s, 1e-9)
        bad = _misaligned_frame(frame.dim, config.T)
        tri_bad = min(tri_bad, triangularization_residual(H, bad, grid))
        von_bad = min(von_bad, von_neumann_residual(H, bad, grid))
        tri, von = max(tri, tri_s), max(von, von_s)
    assert tri_bad > 1e-3 and von_bad > 1e-3
    print(f"\n[criterion 05] Hermitian-limit equivalence ({sid}): PASS "
          f"(tri {tri:.2e}, commutator {von:.2e}; misaligned {tri_bad:.2e}/{von_bad:.2e})")


@pytest.mark.parametrize("dim,seed", [(2, 101), (3, 202)])
def test_criterion_06_biorthogonality(dim, seed):
    """Paired ket/bra evolutions keep Kronecker overlaps for random generators."""
    H = smooth_generator(dim, seed)
    defect = biorthogonality_defect(H, TimeGrid(0.0, 2.0, 1e-3))
    assert defect < 1e-6
    print(f"\n[criterion 06] biorthogonality ({dim}x{dim}): PASS (defect {defect:.2e})")


def test_criterion_07_series_truncation_order():
    """Order-4 truncation of the time-ordered series converges at fifth order."""
    rng = np.random.default_rng(77)
    worst = np.inf
    for dim in (2, 3):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = constant_operator(a / np.linalg.norm(a, 2))
        errs = []
        for tau in (1.0, 0.5):
            ref = propagator_ket(H, TimeGrid(0.0, tau, tau / 400))[-1]
            errs.append(np.max(np.abs(ref - dyson_truncation(H, tau, 4, 256))))
        order = float(np.log2(errs[0] / errs[1]))
        worst = min(worst, order)
        assert order >= 4.5
    print(f"\n[criterion 07] series-truncation order fit: PASS (min order {worst:.2f})")


def test_criterion_08_phase_norm_identity(
        two_level_reports, cyclic_cw_report, cyclic_ccw_report):
    """exp(f_imag) tracks the state norm; f_imag closes at every stage end."""
    worst_track = 0.0
    worst_end = 0.0
    for sid in TWO_LEVEL_IDS + CYCLIC_IDS:
        report = _report(two_level_reports, cyclic_cw_report, cyclic_ccw_report, sid)
        track = float(np.max(np.abs(np.exp(report.phase.f_imag)
                                    - report.trajectory.vector_norm())))
        worst_track = max(worst_track, track)
        assert track <= 1e-6, sid
        T = report.config.T
        n_stages = 1 if sid in TWO_LEVEL_IDS else 3 * report.config.loops
        for s in range(1, n_stages + 1):
            idx = report.trajectory.grid.index_of(2.0 * T * s)
            end_dev = abs(report.phase.f_imag[idx])
            worst_end = max(worst_end, end_dev)
            assert end_dev < 1e-8, (sid, s)
    print(f"\n[criterion 08] phase-norm identity: PASS "
          f"(max tracking dev {worst_track:.2e}, max stage-end f_imag {worst_end:.2e})")


def test_criterion_09_bra_phase_relation():
    """The bra-passage phase rate is tied linearly to the ket one."""
    params = ramp_down_params()
    gamma = lambda t: 2.0 * params.theta_dot(t)
    controls = synthesize_two_level(params, gamma0=gamma, gamma1=gamma,
                                    delta=0.0, grid=GRID, **STANDARD)
    res2 = bra_phase_relation_check(controls, params, GRID)
    params3, controls3, _, _ = synthesize_stage1_cw()
    res3 = bra_phase_relation_check(controls3, params3, GRID)
    assert res2 < 1e-8 and res3 < 1e-8
    print(f"\n[criterion 09] bra-phase relation: PASS "
          f"(two-level {res2:.2e}, three-level {res3:.2e})")


def test_criterion_10_determinism_and_convergence(
        tmp_path, two_level_reports, cyclic_cw_report, cyclic_ccw_report):
    """dt/2 moves no reported population beyond 1e-8; exports are byte-stable."""
    worst_step = 0.0
    for sid in TWO_LEVEL_IDS + CYCLIC_IDS:
        report = _report(two_level_reports, cyclic_cw_report, cyclic_ccw_report, sid)
        shift = next(c.value for c in report.checks if c.name == "step_halving_shift")
        worst_step = max(worst_step, shift)
        assert shift <= 1e-8, sid
    r1 = run_two_level(ScenarioConfig(scenario="two_level_b"))
    r2 = run_two_level(ScenarioConfig(scenario="two_level_b"))
    assert r1.checkpoints == r2.checkpoints
    pairs = []
    for tag, report in (("fresh1", r1), ("fresh2", r2)):
        csv = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        export_csv(report, csv)
        export_svg(report, svg)
        pairs.append((csv.read_bytes(), svg.read_bytes()))
    assert pairs[0] == pairs[1]
    print(f"\n[criterion 10] determinism and convergence: PASS "
          f"(max dt/2 population shift {worst_step:.2e}, exports byte-identical)")
