"""Bitwise guards on the built-in drives, for the benchmark's 1e-12 gate.

The benchmark (``perfbench/``) compares stage-end populations and
``f_imag`` of every input it can draw with ``perfbench/reference.json`` at
1e-12.  On ``cyclic_ccw`` with four loops the growing non-Hermitian modes
amplify rounding so strongly that one ulp in ``H`` moves populations past
that gate, so the synthesized envelopes must stay bitwise equal to the
formulas below, in their operation order, as must the generator assembled
from them, and the three most amplifying reference inputs are rerun here,
with a ket and a bra two-level input for the K = 2 sweep.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from nhpassage import ScenarioConfig, TwoLevelControls, run_scenario
from nhpassage.dynamics import _sample_times
from nhpassage.scenarios import _stages

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
GATE_TOL = 1e-12


def assert_matches_reference(config):
    """Stage-end populations and ``f_imag`` of ``config``'s run within the gate."""
    with open(REFERENCE, encoding="utf-8") as fh:
        want = json.load(fh)["values"][
            f"{config.scenario}|loops={config.loops}|T={config.T!r}"
            f"|gamma_scale={config.gamma_scale!r}"]
    report = run_scenario(config)
    traj = report.trajectory
    ends = [traj.grid.index_of(b) for b in traj.grid.stage_boundaries] + [traj.times.size - 1]
    assert np.max(np.abs(traj.populations[ends] - want["pops"])) <= GATE_TOL
    assert np.max(np.abs(report.phase.f_imag[ends] - want["f_imag"])) <= GATE_TOL


@pytest.mark.parametrize("gamma_scale", [1.05, 1.1, 1.15])
def test_most_amplifying_reference_inputs(gamma_scale):
    assert_matches_reference(ScenarioConfig(scenario="cyclic_ccw", loops=4, T=0.5,
                                            gamma_scale=gamma_scale))


@pytest.mark.parametrize("scenario", ["two_level_a", "two_level_c"], ids=["ket", "bra"])
def test_two_level_reference_inputs(scenario):
    # the K = 2 sweep, on the longest reference grid and the strongest gains
    assert_matches_reference(ScenarioConfig(scenario=scenario, T=2.0, gamma_scale=1.15))


def inner_envelope(p, c, varphi, ts):
    """The two-level envelope, also the inner |0>-|1> drive of three levels."""
    th = np.asarray(p.theta(ts))
    inv = 1.0 / np.sin(varphi + np.asarray(p.alpha(ts)))
    return (-4.0 * np.asarray(p.theta_dot(ts))
            + (c.gamma0(ts) * np.sin(c.xi0) - c.gamma1(ts) * np.sin(c.xi1))
            * np.sin(2.0 * th)) * inv / 2.0


def outer_envelope(p, c, ts):
    """The three-level drive coupling the bright combination to |e>."""
    th = np.asarray(p.theta(ts))
    ph = np.asarray(p.phi_mix(ts))
    sin_th2 = np.sin(th) ** 2
    cos_th2 = np.cos(th) ** 2
    rate = (c.gamma0(ts) * np.sin(c.xi0) * sin_th2 + c.gamma1(ts) * np.sin(c.xi1) * cos_th2
            - c.gamma_e(ts) * np.sin(c.xi_e))
    inv = 1.0 / np.sin(c.varphi + np.asarray(p.beta(ts)))
    return (-4.0 * np.asarray(p.phi_mix_dot(ts)) + rate * np.sin(2.0 * ph)) * inv / 2.0


def closed_form_generator(p, c, ts):
    """The generator assembled from the closed-form envelopes, in the
    operation order of ``two_level_hamiltonian``/``three_level_hamiltonian``."""
    if isinstance(c, TwoLevelControls):
        h = np.empty(ts.shape + (2, 2), dtype=complex)
        h[:, 0, 0] = 0.5 * np.exp(1j * c.xi0) * c.gamma0(ts)
        h[:, 1, 1] = np.asarray(c.delta(ts)) + 0.5 * np.exp(1j * c.xi1) * c.gamma1(ts)
        h[:, 1, 0] = (0.5 * inner_envelope(p, c, c.varphi, ts).astype(complex)
                      * np.exp(1j * c.varphi))
        h[:, 0, 1] = np.conj(h[:, 1, 0])
        return h
    omega, th = outer_envelope(p, c, ts), np.asarray(p.theta(ts))
    alpha = np.asarray(p.alpha(ts))
    h = np.empty(ts.shape + (3, 3), dtype=complex)
    for i, (delta, xi, gamma) in enumerate(((c.delta0, c.xi0, c.gamma0),
                                            (c.delta1, c.xi1, c.gamma1),
                                            (c.delta_e, c.xi_e, c.gamma_e))):
        h[:, i, i] = np.asarray(delta(ts)) + 0.5 * np.exp(1j * xi) * gamma(ts)
    h[:, 2, 0] = 0.5 * (omega * np.sin(th)) * np.exp(1j * (c.varphi - 0.5 * alpha))
    h[:, 2, 1] = 0.5 * (omega * np.cos(th)) * np.exp(1j * (c.varphi + 0.5 * alpha))
    h[:, 1, 0] = 0.5 * inner_envelope(p, c, c.varphi_a, ts) * np.exp(1j * c.varphi_a)
    h[:, 0, 2] = np.conj(h[:, 2, 0])
    h[:, 1, 2] = np.conj(h[:, 2, 1])
    h[:, 0, 1] = np.conj(h[:, 1, 0])
    return h


@pytest.mark.parametrize("gamma_scale", [0.8, 1.15])
@pytest.mark.parametrize("scenario", ["two_level_a", "two_level_b", "two_level_c",
                                      "two_level_d", "cyclic_cw", "cyclic_ccw"])
def test_built_in_envelopes_are_bitwise_the_closed_forms(scenario, gamma_scale):
    loops = 2 if scenario.startswith("cyclic") else 1
    for stage in _stages(ScenarioConfig(scenario, loops=loops, gamma_scale=gamma_scale)):
        p, c = stage.frame_params, stage.controls
        ts = _sample_times(stage.grid.times())
        assert np.array_equal(stage.H.sample(ts), closed_form_generator(p, c, ts))
        if stage.H.dim == 2:
            assert np.array_equal(c.omega(ts), inner_envelope(p, c, c.varphi, ts))
            continue
        omega = outer_envelope(p, c, ts)
        th = np.asarray(p.theta(ts))
        assert np.array_equal(c.omega(ts), omega)
        assert np.array_equal(c.omega0(ts), omega * np.sin(th))
        assert np.array_equal(c.omega1(ts), omega * np.cos(th))
        assert np.array_equal(c.omega_a(ts), inner_envelope(p, c, c.varphi_a, ts))
