"""Drive synthesis that triangularizes the rotated generator, and the phases it earns.

Given a moving frame and a gain/loss assignment, these routines solve the
above-diagonal conditions of the rotated generator ``Hf - A`` for the drive
envelopes, check the rest on the supplied local phases as residuals, and
accumulate the complex phase picked up along the resulting passage.  All of
it comes from the closed form of one *pair*: states ``lo``, ``hi`` with
diagonal entries ``d_lo``, ``d_hi``, mixed by an angle ``x`` with local phase
``a`` into the frame vectors ``cos x e^{ia/2}|lo> - sin x e^{-ia/2}|hi>``
(bra side) and ``sin x e^{ia/2}|lo> + cos x e^{-ia/2}|hi>`` (ket side), and
driven by ``(Omega/2) e^{i varphi}|hi><lo| + h.c.``.  The imaginary part of
the rotated above-diagonal entry vanishes for::

    Omega = [-4 x_dot + 2 Im(d_lo - d_hi) sin 2x] / [2 sin(varphi + a)]

Its real part, the local-phase consistency residual (in product form, so
nothing blows up where sin 2x vanishes), is checked, not solved::

    (sin 2x / 2) Re(d_lo - d_hi) + (Omega/2) cos 2x cos(varphi + a) + (a_dot/2) sin 2x

The diagonal entries are the ket and bra passage rates ``d_lo sin^2 x +
d_hi cos^2 x + drive - twist`` and ``d_lo cos^2 x + d_hi sin^2 x - drive +
twist``, with ``drive = (Omega/2) sin 2x cos(varphi + a)`` and ``twist =
(a_dot/2) cos 2x``.  A two-level system is one pair, ``|0>, |1>`` on
``(theta, alpha)``.  Three levels nest two, as in the paper: the inner pair
``|0>, |1>`` on ``(theta, alpha)``, driven by ``Omega_a``, makes the bright
state (its ket-side vector); the outer pair, bright state and ``|e>`` on
``(phi_mix, beta)``, takes the inner ket rate as its ``d_lo``.  Its drive is
split as ``Omega_0 = Omega sin theta``, ``Omega_1 = Omega cos theta`` with
phases ``varphi -+ alpha/2``.

The envelopes, the generators, the passage rates and the consistency residual
are closed forms over a sample set (:class:`~nhpassage.dynamics._Samples`):
each reads the frame angles, gains and detunings, and the sines and cosines of
``x``, ``2x`` and ``varphi + a``, from the set, so every consumer of one set
shares each evaluation.  Synthesis checks the consistency residual on its grid
once and records the largest as the controls' ``consistency``.

Each envelope keeps the operations, and their order, of the closed forms it
was first written in: on four ``cyclic_ccw`` loops the growing modes amplify
one ulp in ``H`` past the benchmark's 1e-12 gate on stage-end populations (a
per-sample least-squares solve, exact to rounding, moved them by 1.2e-9).

The frames themselves, and the stage lists of the built-in scenarios, are
:mod:`~nhpassage.frames`' and :mod:`~nhpassage.scenarios`' concern.

All accumulated phases follow the convention that the passage state is
``c * exp(-i (f_real + i f_imag)) * mu(t)``, so ``exp(f_imag)`` is the
state norm and probability returns to one exactly when ``f_imag`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dynamics import TimeDependentOperator, TimeGrid, _Derived, _Samples, _sample_times
from .exceptions import (
    InvalidArgumentError,
    NonFiniteSampleError,
    PhaseConsistencyError,
    SingularDenominatorError,
)
from .frames import ThreeLevelFrameParams, TwoLevelFrameParams, _grid_times

__all__ = [
    "EPS_SINGULAR",
    "CONSISTENCY_TOL",
    "TwoLevelControls",
    "ThreeLevelControls",
    "PhaseFunctional",
    "synthesize_two_level",
    "synthesize_three_level",
    "two_level_hamiltonian",
    "three_level_hamiltonian",
    "two_level_consistency_residual",
    "three_level_consistency_residual",
    "phase_two_level",
    "phase_three_level",
]

#: Guard on |sin(varphi + phase)| denominators.
EPS_SINGULAR = 1e-6

#: Ceiling for phase-evolution consistency residuals.
CONSISTENCY_TOL = 1e-8


def _as_callable(x) -> Callable:
    if callable(x):
        return x
    value = float(x)
    return lambda t: value * np.ones_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class TwoLevelControls:
    """Synthesized drive for the two-level generator.

    The generator in the fixed basis ``|0>, |1>`` is::

        H = Delta |1><1| + (1/2)[e^{i xi0} gamma0 |0><0| + e^{i xi1} gamma1 |1><1|]
            + (1/2)[Omega e^{i varphi} |1><0| + h.c.]

    Envelope, detuning, and rates are vectorized callables of time; the
    phases are constants.  ``consistency`` is the largest local-phase
    consistency residual synthesis measured on its grid (NaN for controls
    assembled by hand).
    """

    omega: Callable
    delta: Callable
    gamma0: Callable
    gamma1: Callable
    varphi: float
    xi0: float
    xi1: float
    consistency: float = math.nan


@dataclass(frozen=True)
class ThreeLevelControls:
    """Synthesized drives for the three-level generator in the basis ``|0>, |1>, |e>``.

    ``omega0``/``omega1`` drive ``|0> <-> |e>`` and ``|1> <-> |e>`` with
    phases ``varphi0(t) = varphi - alpha(t)/2`` and ``varphi1(t) = varphi +
    alpha(t)/2``; ``omega_a`` drives ``|0> <-> |1>`` with constant phase
    ``varphi_a``.  ``omega`` is the shared outer envelope and ``theta`` the
    frame's mixing angle that splits it: ``omega0 = omega sin(theta)``,
    ``omega1 = omega cos(theta)``, so scaling ``omega`` scales both.
    ``consistency`` is as for :class:`TwoLevelControls`, over both local phases.
    """

    omega: Callable
    theta: Callable
    omega_a: Callable
    delta0: Callable
    delta1: Callable
    delta_e: Callable
    varphi0: Callable
    varphi1: Callable
    varphi_a: float
    varphi: float
    gamma0: Callable
    gamma1: Callable
    gamma_e: Callable
    xi0: float
    xi1: float
    xi_e: float
    consistency: float = math.nan

    def omega0(self, ts) -> np.ndarray:
        """The ``|0> <-> |e>`` envelope ``omega sin(theta)``."""
        return np.asarray(self.omega(ts)) * np.sin(np.asarray(self.theta(ts)))

    def omega1(self, ts) -> np.ndarray:
        """The ``|1> <-> |e>`` envelope ``omega cos(theta)``."""
        return np.asarray(self.omega(ts)) * np.cos(np.asarray(self.theta(ts)))


def two_level_hamiltonian(controls: TwoLevelControls) -> TimeDependentOperator:
    """Assemble the two-level generator from its controls."""
    c = controls
    e0 = np.exp(1j * c.xi0)
    e1 = np.exp(1j * c.xi1)
    ephi = np.exp(1j * c.varphi)

    def assemble(s):
        h = np.empty(s.times.shape + (2, 2), dtype=complex)
        h[..., 0, 0] = 0.5 * e0 * s(c.gamma0)
        h[..., 1, 1] = s(c.delta) + 0.5 * e1 * s(c.gamma1)
        h[..., 1, 0] = 0.5 * np.asarray(s(c.omega), dtype=complex) * ephi
        h[..., 0, 1] = np.conj(h[..., 1, 0])
        return h

    return TimeDependentOperator(dim=2, values_at=_Derived(assemble))


def three_level_hamiltonian(controls: ThreeLevelControls) -> TimeDependentOperator:
    """Assemble the three-level generator from its controls."""
    c = controls
    e0 = np.exp(1j * c.xi0)
    e1 = np.exp(1j * c.xi1)
    ee = np.exp(1j * c.xi_e)
    epa = np.exp(1j * c.varphi_a)

    def assemble(s):
        h = np.empty(s.times.shape + (3, 3), dtype=complex)
        h[..., 0, 0] = s(c.delta0) + 0.5 * e0 * s(c.gamma0)
        h[..., 1, 1] = s(c.delta1) + 0.5 * e1 * s(c.gamma1)
        h[..., 2, 2] = s(c.delta_e) + 0.5 * ee * s(c.gamma_e)
        om = s(c.omega)
        h[..., 2, 0] = 0.5 * (om * s.sin(c.theta)) * np.exp(1j * s(c.varphi0))
        h[..., 2, 1] = 0.5 * (om * s.cos(c.theta)) * np.exp(1j * s(c.varphi1))
        h[..., 1, 0] = 0.5 * s(c.omega_a) * epa
        h[..., 0, 2] = np.conj(h[..., 2, 0])
        h[..., 1, 2] = np.conj(h[..., 2, 1])
        h[..., 0, 1] = np.conj(h[..., 1, 0])
        return h

    return TimeDependentOperator(dim=3, values_at=_Derived(assemble))


def _weigh(lo, hi, sin_x, cos_x):
    """``lo sin^2 x + hi cos^2 x``: the diagonal entries as the upper vector sees them."""
    return lo * sin_x ** 2 + hi * cos_x ** 2


def _pair_drive(rate, x, x_dot, a, varphi, context: str) -> _Derived:
    """A pair's envelope as a closed form over a sample set, for ``rate(s) = 2
    Im(d_lo - d_hi)`` read from the set."""

    def omega(s):
        sin_a = s.sin_plus(varphi, a)
        small = np.abs(sin_a) < EPS_SINGULAR
        if np.any(small):
            raise SingularDenominatorError(
                f"|sin({context})| < {EPS_SINGULAR:g} at sample index {int(np.argmax(small))}")
        return (-4.0 * s(x_dot) + rate(s) * s.sin2(x)) * (1.0 / sin_a) / 2.0

    return _Derived(omega)


def _pair_rate(side: str, s, d_lo, d_hi, x, a, a_dot, omega, varphi):
    """Rotated diagonal entry of the upper ('ket') or lower ('bra') frame vector,
    its angles, rates and envelope read from the sample set ``s``."""
    drive_twist = (0.5 * s(omega) * s.sin2(x) * s.cos_plus(varphi, a)
                   - 0.5 * s(a_dot) * s.cos2(x))
    if side == "ket":
        return _weigh(d_lo, d_hi, s.sin(x), s.cos(x)) + drive_twist
    return _weigh(d_hi, d_lo, s.sin(x), s.cos(x)) - drive_twist


def _pair_residual(s, d_lo, d_hi, x, a, a_dot, omega, varphi):
    """Real part of the rotated above-diagonal entry, from the real parts of ``d_lo``, ``d_hi``."""
    s2 = s.sin2(x)
    return (0.5 * s2 * (d_lo - d_hi)
            + 0.5 * s(omega) * s.cos2(x) * s.cos_plus(varphi, a)
            + 0.5 * s(a_dot) * s2)


def _cis(xi):
    return np.exp(1j * xi)


def _inner_pair(c, frame, s, weight):
    """Pair arguments of ``|0>, |1>``: a whole two-level system, or the inner
    pair of three levels.  ``weight(xi)`` multiplies ``gamma/2`` on the
    diagonal: :func:`_cis` for the entries, ``np.cos`` for their real parts.
    The diagonal entries are read from the sample set ``s``; the angles, rates
    and envelope are passed as callables, which the pair formulas read there."""
    if isinstance(c, TwoLevelControls):
        d0 = 0.5 * weight(c.xi0) * s(c.gamma0)
        delta1, omega, varphi = c.delta, c.omega, c.varphi
    elif isinstance(c, ThreeLevelControls):
        d0 = s(c.delta0) + 0.5 * weight(c.xi0) * s(c.gamma0)
        delta1, omega, varphi = c.delta1, c.omega_a, c.varphi_a
    else:
        raise TypeError(f"unsupported controls type {type(c).__name__}")
    d1 = s(delta1) + 0.5 * weight(c.xi1) * s(c.gamma1)
    return d0, d1, frame.theta, frame.alpha, frame.alpha_dot, omega, varphi


def _outer_pair(c: ThreeLevelControls, frame, s, weight, bright):
    """Pair arguments of the bright state, whose entry is the inner ket rate, and ``|e>``."""
    d_e = s(c.delta_e) + 0.5 * weight(c.xi_e) * s(c.gamma_e)
    return bright, d_e, frame.phi_mix, frame.beta, frame.beta_dot, c.omega, c.varphi


def _consistency_residuals(c, frame, s) -> dict[str, np.ndarray]:
    """Magnitude of each pair's consistency residual on the sample set ``s``,
    keyed by its local phase."""
    inner = _inner_pair(c, frame, s, np.cos)
    residuals = {"alpha": np.abs(_pair_residual(s, *inner))}
    if isinstance(c, ThreeLevelControls):
        outer = _outer_pair(c, frame, s, np.cos, _pair_rate("ket", s, *inner))
        residuals["beta"] = np.abs(_pair_residual(s, *outer))
    return residuals


def _worst(residuals: dict[str, np.ndarray]) -> float:
    """The largest of the residuals, a NaN in any of them included."""
    return float(np.max([np.max(res) for res in residuals.values()]))


def _consistent(controls, frame, grid):
    """``controls``, after checking every consistency residual on the grid, with
    the largest recorded as their ``consistency``; a residual that is NaN or Inf
    raises :class:`NonFiniteSampleError` at its first such time."""
    ts = _grid_times(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = _consistency_residuals(controls, frame, _Samples(ts))
    for name, res in residuals.items():
        finite = np.isfinite(res)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise NonFiniteSampleError(
                f"{name} phase-evolution residual at t = {ts[bad]:g} is NaN or Inf")
        worst = int(np.argmax(res))
        if res[worst] > CONSISTENCY_TOL:
            raise PhaseConsistencyError(
                f"{name} phase-evolution condition violated: residual "
                f"{res[worst]:.3e} at t = {ts[worst]:g}"
            )
    return replace(controls, consistency=_worst(residuals))


def _inner_drive(frame, g0, g1, xi0, xi1, varphi) -> _Derived:
    """Envelope of the ``|0> <-> |1>`` drive."""
    sx0, sx1 = np.sin(xi0), np.sin(xi1)
    return _pair_drive(lambda s: s(g0) * sx0 - s(g1) * sx1, frame.theta, frame.theta_dot,
                       frame.alpha, varphi, "varphi + alpha")


def synthesize_two_level(
    frame: TwoLevelFrameParams, *, gamma0, gamma1, xi0: float, xi1: float, delta,
    varphi: float, grid: TimeGrid | np.ndarray,
) -> TwoLevelControls:
    """Solve the two-level triangularization condition for the drive envelope.

    The envelope is fixed by the imaginary part of the condition; the real
    part couples the supplied ``alpha`` and ``delta`` and is *checked*,
    not solved: a residual above :data:`CONSISTENCY_TOL` on the grid raises
    :class:`PhaseConsistencyError`.  A denominator ``|sin(varphi + alpha)|``
    below the guard raises :class:`SingularDenominatorError`.
    """
    g0, g1 = _as_callable(gamma0), _as_callable(gamma1)
    return _consistent(TwoLevelControls(
        omega=_inner_drive(frame, g0, g1, xi0, xi1, varphi), delta=_as_callable(delta),
        gamma0=g0, gamma1=g1, varphi=float(varphi), xi0=float(xi0), xi1=float(xi1),
    ), frame, grid)


def synthesize_three_level(
    frame: ThreeLevelFrameParams, *, gamma0, gamma1, gamma_e, xi0: float, xi1: float,
    xi_e: float, delta0, delta1, delta_e, varphi: float, varphi_a: float,
    grid: TimeGrid | np.ndarray,
) -> ThreeLevelControls:
    """Solve the three-level triangularization conditions for all drive envelopes.

    The inner ``|0> <-> |1>`` pair is the two-level problem with ``varphi ->
    varphi_a``; the outer pair couples its bright state to ``|e>``.  Both
    residuals (alpha, then beta) are checked as for two levels.
    """
    g0, g1, ge = _as_callable(gamma0), _as_callable(gamma1), _as_callable(gamma_e)
    sx0, sx1, sxe = np.sin(xi0), np.sin(xi1), np.sin(xi_e)
    # 2 Im(d_bright - d_e): the bright state's gain part needs no omega_a
    omega = _pair_drive(
        lambda s: (_weigh(s(g0) * sx0, s(g1) * sx1, s.sin(frame.theta), s.cos(frame.theta))
                   - s(ge) * sxe),
        frame.phi_mix, frame.phi_mix_dot, frame.beta, varphi, "varphi + beta")
    return _consistent(ThreeLevelControls(
        omega=omega,
        theta=frame.theta,
        omega_a=_inner_drive(frame, g0, g1, xi0, xi1, varphi_a),
        delta0=_as_callable(delta0), delta1=_as_callable(delta1),
        delta_e=_as_callable(delta_e),
        varphi0=_Derived(lambda s: varphi - 0.5 * s(frame.alpha)),
        varphi1=_Derived(lambda s: varphi + 0.5 * s(frame.alpha)),
        varphi_a=float(varphi_a),
        varphi=float(varphi),
        gamma0=g0, gamma1=g1, gamma_e=ge,
        xi0=float(xi0), xi1=float(xi1), xi_e=float(xi_e),
    ), frame, grid)


def two_level_consistency_residual(controls, frame, grid) -> float:
    """Max local-phase consistency residual (alpha, and for three levels beta) over the grid.

    ``three_level_consistency_residual`` is this function.  Synthesized
    controls carry the same number, from their own check, as ``consistency``.
    """
    return _worst(_consistency_residuals(controls, frame, _Samples(_grid_times(grid))))


three_level_consistency_residual = two_level_consistency_residual


@dataclass(frozen=True)
class PhaseFunctional:
    """Complex phase accumulated along a passage, split into real and imaginary parts.

    The passage state is ``c * exp(-i (f_real + i f_imag)) * mu(t)`` for a
    unit constant ``c``, so ``exp(f_imag)`` equals the state norm.  Both
    parts start at zero at the first grid point.
    """

    times: np.ndarray
    f_real: np.ndarray
    f_imag: np.ndarray


def _accumulate_simpson(rates: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Cumulative integral on the grid, one Simpson panel per step, of the rates
    sampled at each grid point and midpoint (:func:`_sample_times`).

    Uses the same midpoint samples the integrator sees; exact enough that
    stage-end cancellations in the imaginary part survive at the 1e-12
    level.
    """
    panels = (times[1:] - times[:-1]) / 6.0 * (
        rates[0:-1:2] + 4.0 * rates[1::2] + rates[2::2]
    )
    out = np.empty(times.size, dtype=panels.dtype)
    out[0] = 0.0
    np.cumsum(panels, out=out[1:])
    return out


def phase_two_level(controls, frame, grid: TimeGrid, passage: str = "ket") -> PhaseFunctional:
    """Accumulated complex phase along a passage of two- or three-level controls.

    ``phase_three_level`` is this function.  ``passage='ket'`` follows the
    last frame vector under ``H``; ``passage='bra'`` follows the first frame
    vector under ``H^dag`` (recorded with the conjugate convention so that
    ``exp(f_imag)`` is the norm in both cases).
    """
    times = grid.times()
    return _phase(controls, frame, _Samples(_sample_times(times)), times, passage)


phase_three_level = phase_two_level


def _phase(controls, frame, s, times: np.ndarray, passage: str) -> PhaseFunctional:
    """:func:`phase_two_level` on the grid ``times``, its rates read from the
    sample set ``s`` on the grid points and midpoints."""
    if passage not in ("ket", "bra"):
        raise InvalidArgumentError(f"passage must be 'ket' or 'bra', got {passage!r}")
    # the bra vector mu_1 lies in the inner pair; the three-level ket vector is
    # the outer pair's, whose d_lo is the inner ket rate
    inner = _inner_pair(controls, frame, s, _cis)
    if passage == "bra" or isinstance(controls, TwoLevelControls):
        rates = _pair_rate(passage, s, *inner)
    else:
        rates = _pair_rate("ket", s, *_outer_pair(controls, frame, s, _cis,
                                                  _pair_rate("ket", s, *inner)))
    f = _accumulate_simpson(np.asarray(rates), times)
    # bra passages carry exp(-i f*), so the recorded functional is the conjugate
    return PhaseFunctional(times=times, f_real=f.real,
                           f_imag=f.imag if passage == "ket" else -f.imag)
