"""Synthesis against an independent least-squares oracle over random frames.

Hypothesis draws low-order trigonometric frames (theta, alpha and, for three
levels, phi_mix, beta) kept away from ``sin 2theta = 0``,
``sin 2phi_mix = 0`` and the drive-phase poles, positive time-dependent
gains with free gain phases (so ``|xi0| != |xi1|`` in general: not
PT-balanced), and a free detuning on ``|0>``.  The above-diagonal entries of
the rotated generator ``Hf - A`` are real-linear in the drive envelopes and
the remaining detunings, so the oracle solves them by least squares at each
sample; the detunings it returns make the inputs consistent.  Against it:

- every synthesized envelope equals the oracle's, within 1e-12 relative;
- each accumulated passage phase is the Simpson integral of the synthesized
  generator's rotated diagonal entry;
- the frame triangularizes the synthesized generator to ``RESIDUAL_TOL``;
- a 1e-3 detuning offset is refused with :class:`PhaseConsistencyError`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhpassage import (
    PhaseConsistencyError,
    ThreeLevelFrameParams,
    TimeDependentOperator,
    TimeGrid,
    TwoLevelFrameParams,
    phase_three_level,
    phase_two_level,
    synthesize_three_level,
    synthesize_two_level,
    three_level_frame,
    three_level_hamiltonian,
    triangularization_residual,
    two_level_frame,
    two_level_hamiltonian,
)
from nhpassage.frames import _rotated_batch
from nhpassage.scenarios import RESIDUAL_TOL

GRID = TimeGrid(0.0, 1.0, 0.01)
OFFSET = 1e-3


def trig(c0, a1, p1, a2, p2, w):
    """``c0 + a1 sin(w t + p1) + a2 sin(2 w t + p2)`` and its rate."""

    def f(t):
        t = np.asarray(t, dtype=float)
        return c0 + a1 * np.sin(w * t + p1) + a2 * np.sin(2 * w * t + p2)

    def f_dot(t):
        t = np.asarray(t, dtype=float)
        return a1 * w * np.cos(w * t + p1) + 2 * a2 * w * np.cos(2 * w * t + p2)

    return f, f_dot


phases = st.floats(-np.pi, np.pi)
ripple = st.floats(-0.15, 0.15)
rates = st.floats(0.5, 3.0)
# a mixing angle in [0.15, 1.42]: |sin 2x| >= 0.29
mixing = st.tuples(st.floats(0.45, 1.12), ripple, phases, ripple, phases, rates)
# a local phase anywhere, moving by at most 0.3 about its offset
local = st.tuples(phases, ripple, phases, ripple, phases, rates)
# drive phase + local-phase offset in [0.9, pi - 0.9]: |sin(varphi + a)| >= 0.29
pole_gap = st.floats(0.9, np.pi - 0.9)
gain = st.tuples(st.floats(0.5, 2.0), st.floats(-0.45, 0.45), phases, rates)
detuning = st.tuples(st.floats(-1.0, 1.0), st.floats(-0.5, 0.5), phases,
                     st.floats(-0.5, 0.5), phases, rates)


def gain_rate(g0, g1, p, w):
    return lambda t: g0 + g1 * np.cos(w * np.asarray(t, dtype=float) + p)


def least_squares(frame, base, terms, ts):
    """Real coefficients ``x_k(t)`` that zero the above-diagonal entries of
    the rotated ``base + sum_k x_k terms[k]``, one solve per sample."""
    dim = frame.dim
    iu = np.triu_indices(dim, k=1)
    rot0 = _rotated_batch(TimeDependentOperator(dim, base), frame, ts)
    cols = [(_rotated_batch(TimeDependentOperator(dim, lambda t, term=term: base(t) + term(t)),
                            frame, ts) - rot0)[iu] for term in terms]
    a = np.stack(cols, axis=-1)
    a = np.concatenate([a.real, a.imag]).transpose(1, 0, 2)
    b = np.concatenate([rot0[iu].real, rot0[iu].imag]).T
    return -np.einsum("nkm,nm->kn", np.linalg.pinv(a), b)


def matrices(ts, dim, entries):
    """``(n, dim, dim)`` stack with the given ``{(i, j): values}`` entries."""
    ts = np.asarray(ts, dtype=float)
    out = np.zeros(ts.shape + (dim, dim), dtype=complex)
    for (i, j), value in entries.items():
        out[..., i, j] = value
    return out


def assert_close(got, want, rel=1e-12):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(np.asarray(got) - want)) <= rel * scale


def assert_phase_is_rotated_diagonal(phase, H, frame, passage):
    """The phase equals the Simpson integral of the rotated diagonal entry."""
    k = frame.dim - 1 if passage == "ket" else 0
    ts = GRID.times()
    left, right = ts[:-1], ts[1:]
    entry = [_rotated_batch(H, frame, s)[k, k] for s in (left, 0.5 * (left + right), right)]
    panels = (right - left) / 6.0 * (entry[0] + 4.0 * entry[1] + entry[2])
    f = np.concatenate([[0.0], np.cumsum(panels)])
    f_imag = f.imag if passage == "ket" else -f.imag
    assert_close(phase.f_real, f.real, rel=1e-11)
    assert_close(phase.f_imag, f_imag, rel=1e-11)


@settings(max_examples=25, deadline=None)
@given(theta=mixing, alpha=local, gap=pole_gap, g0=gain, g1=gain,
       xi0=phases, xi1=phases)
def test_two_level_synthesis_matches_least_squares(theta, alpha, gap, g0, g1, xi0, xi1):
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

    inputs = dict(gamma0=gamma0, gamma1=gamma1, xi0=xi0, xi1=xi1, varphi=varphi, grid=GRID)
    controls = synthesize_two_level(params, delta=delta, **inputs)
    ts = GRID.times()
    assert_close(controls.omega(ts), least_squares(frame, base, terms, ts)[0])
    H = two_level_hamiltonian(controls)
    assert triangularization_residual(H, frame, GRID) <= RESIDUAL_TOL
    for passage in ("ket", "bra"):
        phase = phase_two_level(controls, params, GRID, passage)
        assert_phase_is_rotated_diagonal(phase, H, frame, passage)
    with pytest.raises(PhaseConsistencyError, match="alpha"):
        synthesize_two_level(params, delta=lambda t: delta(t) + OFFSET, **inputs)


@settings(max_examples=25, deadline=None)
@given(theta=mixing, alpha=local, phi=mixing, beta=local, gap_a=pole_gap, gap=pole_gap,
       g0=gain, g1=gain, ge=gain, xi=st.tuples(phases, phases, phases), d0=detuning)
def test_three_level_synthesis_matches_least_squares(
        theta, alpha, phi, beta, gap_a, gap, g0, g1, ge, xi, d0):
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
        # Omega0 = sin(theta), Omega1 = cos(theta) with phases varphi -+ alpha/2
        d20 = 0.5 * np.sin(th(t)) * np.exp(1j * (varphi - 0.5 * al(t)))
        d21 = 0.5 * np.cos(th(t)) * np.exp(1j * (varphi + 0.5 * al(t)))
        return matrices(t, 3, {(2, 0): d20, (0, 2): np.conj(d20),
                               (2, 1): d21, (1, 2): np.conj(d21)})

    terms = (outer,
             lambda t: matrices(t, 3, {(1, 0): 0.5 * np.exp(1j * varphi_a),
                                        (0, 1): 0.5 * np.exp(-1j * varphi_a)}),
             lambda t: matrices(t, 3, {(1, 1): 1.0}),
             lambda t: matrices(t, 3, {(2, 2): 1.0}))

    def delta1(t):
        return least_squares(frame, base, terms, np.asarray(t, dtype=float))[2]

    def delta_e(t):
        return least_squares(frame, base, terms, np.asarray(t, dtype=float))[3]

    inputs = dict(gamma0=gamma0, gamma1=gamma1, gamma_e=gamma_e, xi0=xi[0], xi1=xi[1],
                  xi_e=xi[2], delta0=delta0, varphi=varphi, varphi_a=varphi_a, grid=GRID)
    controls = synthesize_three_level(params, delta1=delta1, delta_e=delta_e, **inputs)
    ts = GRID.times()
    oracle = least_squares(frame, base, terms, ts)
    assert_close(controls.omega(ts), oracle[0])
    assert_close(controls.omega0(ts), oracle[0] * np.sin(th(ts)))
    assert_close(controls.omega1(ts), oracle[0] * np.cos(th(ts)))
    assert_close(controls.omega_a(ts), oracle[1])
    H = three_level_hamiltonian(controls)
    assert triangularization_residual(H, frame, GRID) <= RESIDUAL_TOL
    for passage in ("ket", "bra"):
        phase = phase_three_level(controls, params, GRID, passage)
        assert_phase_is_rotated_diagonal(phase, H, frame, passage)
    with pytest.raises(PhaseConsistencyError, match="alpha"):
        synthesize_three_level(params, delta1=lambda t: delta1(t) + OFFSET,
                               delta_e=delta_e, **inputs)
    with pytest.raises(PhaseConsistencyError, match="beta"):
        synthesize_three_level(params, delta1=delta1,
                               delta_e=lambda t: delta_e(t) + OFFSET, **inputs)
