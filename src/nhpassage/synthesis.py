"""Drive synthesis that triangularizes the rotated generator, and the phases it earns.

Given a moving frame and a gain/loss assignment, these routines solve the
above-diagonal conditions of the rotated generator for the drive
envelopes, check the remaining (real-part) conditions on the supplied
local phases as residuals, and accumulate the complex phase picked up
along the resulting passage.

Two-level constraint (frame angles ``theta``, ``alpha``; drive phase
``varphi``; per-level rates ``gamma0/1`` with gain/loss phases ``xi0/1``)::

    Omega = [-4 theta_dot + (gamma0 sin xi0 - gamma1 sin xi1) sin 2theta]
            / [2 sin(varphi + alpha)]

with the local-phase consistency condition (written in product form, so
nothing blows up where sin 2theta vanishes)::

    (sin 2theta / 2) * [alpha_dot - Delta + (gamma0 cos xi0 - gamma1 cos xi1)/2]
        + (Omega / 2) cos 2theta cos(varphi + alpha)  =  0

The three-level synthesis nests two copies of this structure: an inner
drive ``Omega_a`` between the two lower levels (the two-level equations
with ``Delta -> Delta1 - Delta0``, ``varphi -> varphi_a``) and an outer
drive ``Omega`` coupling the bright combination to the third level::

    Omega = [-4 phi_mix_dot
             + (gamma0 sin xi0 sin^2 theta + gamma1 sin xi1 cos^2 theta
                - gamma_e sin xi_e) sin 2phi_mix]
            / [2 sin(varphi + beta)]

split between the level drives as ``Omega_0 = Omega sin theta``,
``Omega_1 = Omega cos theta`` with phases ``varphi -+ alpha/2``.

All accumulated phases follow the convention that the passage state is
``c * exp(-i (f_real + i f_imag)) * mu(t)``, so ``exp(f_imag)`` is the
state norm and probability returns to one exactly when ``f_imag`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import TimeDependentOperator, TimeGrid
from .exceptions import (
    InvalidArgumentError,
    PhaseConsistencyError,
    SingularDenominatorError,
)
from .frames import ThreeLevelFrameParams, TwoLevelFrameParams

__all__ = [
    "EPS_SINGULAR",
    "CONSISTENCY_TOL",
    "TwoLevelControls",
    "ThreeLevelControls",
    "PhaseFunctional",
    "ScheduleStage",
    "StageSchedule",
    "synthesize_two_level",
    "synthesize_three_level",
    "two_level_hamiltonian",
    "three_level_hamiltonian",
    "two_level_consistency_residual",
    "three_level_consistency_residual",
    "phase_two_level",
    "phase_three_level",
    "bra_phase_relation_check",
    "clockwise_schedule",
    "counterclockwise_schedule",
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
    phases are constants.
    """

    omega: Callable
    delta: Callable
    gamma0: Callable
    gamma1: Callable
    varphi: float
    xi0: float
    xi1: float


@dataclass(frozen=True)
class ThreeLevelControls:
    """Synthesized drives for the three-level generator in the basis ``|0>, |1>, |e>``.

    ``omega0``/``omega1`` drive ``|0> <-> |e>`` and ``|1> <-> |e>`` with
    phases ``varphi0(t) = varphi - alpha(t)/2`` and ``varphi1(t) = varphi +
    alpha(t)/2``; ``omega_a`` drives ``|0> <-> |1>`` with constant phase
    ``varphi_a``.  ``omega`` is the shared outer envelope, kept for
    reference: ``omega0 = omega sin(theta)``, ``omega1 = omega cos(theta)``.
    """

    omega0: Callable
    omega1: Callable
    omega_a: Callable
    omega: Callable
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


def two_level_hamiltonian(controls: TwoLevelControls) -> TimeDependentOperator:
    """Assemble the two-level generator from its controls."""
    c = controls
    e0 = np.exp(1j * c.xi0)
    e1 = np.exp(1j * c.xi1)
    ephi = np.exp(1j * c.varphi)

    def batch(ts):
        ts = np.asarray(ts, dtype=float)
        om = np.asarray(c.omega(ts), dtype=complex)
        h = np.empty(ts.shape + (2, 2), dtype=complex)
        h[..., 0, 0] = 0.5 * e0 * c.gamma0(ts)
        h[..., 1, 1] = np.asarray(c.delta(ts)) + 0.5 * e1 * c.gamma1(ts)
        h[..., 1, 0] = 0.5 * om * ephi
        h[..., 0, 1] = np.conj(h[..., 1, 0])
        return h

    return TimeDependentOperator(dim=2, values_at=batch)


def three_level_hamiltonian(controls: ThreeLevelControls) -> TimeDependentOperator:
    """Assemble the three-level generator from its controls."""
    c = controls
    e0 = np.exp(1j * c.xi0)
    e1 = np.exp(1j * c.xi1)
    ee = np.exp(1j * c.xi_e)
    epa = np.exp(1j * c.varphi_a)

    def batch(ts):
        ts = np.asarray(ts, dtype=float)
        h = np.empty(ts.shape + (3, 3), dtype=complex)
        h[..., 0, 0] = np.asarray(c.delta0(ts)) + 0.5 * e0 * c.gamma0(ts)
        h[..., 1, 1] = np.asarray(c.delta1(ts)) + 0.5 * e1 * c.gamma1(ts)
        h[..., 2, 2] = np.asarray(c.delta_e(ts)) + 0.5 * ee * c.gamma_e(ts)
        h[..., 2, 0] = 0.5 * np.asarray(c.omega0(ts)) * np.exp(1j * np.asarray(c.varphi0(ts)))
        h[..., 2, 1] = 0.5 * np.asarray(c.omega1(ts)) * np.exp(1j * np.asarray(c.varphi1(ts)))
        h[..., 1, 0] = 0.5 * np.asarray(c.omega_a(ts)) * epa
        h[..., 0, 2] = np.conj(h[..., 2, 0])
        h[..., 1, 2] = np.conj(h[..., 2, 1])
        h[..., 0, 1] = np.conj(h[..., 1, 0])
        return h

    return TimeDependentOperator(dim=3, values_at=batch)


def _guarded_inverse_sin(angle: np.ndarray, context: str) -> np.ndarray:
    s = np.sin(angle)
    small = np.abs(s) < EPS_SINGULAR
    if np.any(small):
        where = np.argmax(small)
        raise SingularDenominatorError(
            f"|sin({context})| < {EPS_SINGULAR:g} at sample index {int(where)}"
        )
    return 1.0 / s


def _two_level_drive(frame: TwoLevelFrameParams, gamma0, gamma1, xi0, xi1, varphi):
    g0, g1 = _as_callable(gamma0), _as_callable(gamma1)
    sx0, sx1 = np.sin(xi0), np.sin(xi1)

    def omega(ts):
        ts = np.asarray(ts, dtype=float)
        th = np.asarray(frame.theta(ts))
        inv = _guarded_inverse_sin(varphi + np.asarray(frame.alpha(ts)), "varphi + alpha")
        return (-4.0 * np.asarray(frame.theta_dot(ts))
                + (g0(ts) * sx0 - g1(ts) * sx1) * np.sin(2.0 * th)) * inv / 2.0

    return omega, g0, g1


def _two_level_phase_residual(frame, omega, delta, g0, g1, xi0, xi1, varphi, ts):
    """Real part of the above-diagonal rotated entry, i.e. the local-phase
    consistency condition multiplied through by sin(2 theta)/2."""
    th = np.asarray(frame.theta(ts))
    al = np.asarray(frame.alpha(ts))
    s2, c2 = np.sin(2.0 * th), np.cos(2.0 * th)
    return (
        0.25 * s2 * (g0(ts) * np.cos(xi0) - g1(ts) * np.cos(xi1))
        - 0.5 * np.asarray(delta(ts)) * s2
        + 0.5 * np.asarray(omega(ts)) * c2 * np.cos(varphi + al)
        + 0.5 * np.asarray(frame.alpha_dot(ts)) * s2
    )


def synthesize_two_level(
    frame: TwoLevelFrameParams,
    *,
    gamma0,
    gamma1,
    xi0: float,
    xi1: float,
    delta,
    varphi: float,
    grid: TimeGrid | np.ndarray,
    consistency_tol: float = CONSISTENCY_TOL,
) -> TwoLevelControls:
    """Solve the two-level triangularization condition for the drive envelope.

    The envelope is fixed by the imaginary part of the condition; the real
    part couples the supplied ``alpha`` and ``delta`` and is *checked*,
    not solved: a residual above ``consistency_tol`` on the grid raises
    :class:`PhaseConsistencyError`.  A denominator ``|sin(varphi + alpha)|``
    below the guard raises :class:`SingularDenominatorError`.
    """
    omega, g0, g1 = _two_level_drive(frame, gamma0, gamma1, xi0, xi1, varphi)
    delta_c = _as_callable(delta)
    ts = grid.times() if isinstance(grid, TimeGrid) else np.asarray(grid, dtype=float)
    residual = np.abs(
        _two_level_phase_residual(frame, omega, delta_c, g0, g1, xi0, xi1, varphi, ts)
    )
    worst = int(np.argmax(residual))
    if residual[worst] > consistency_tol:
        raise PhaseConsistencyError(
            "alpha phase-evolution condition violated: residual "
            f"{residual[worst]:.3e} at t = {ts[worst]:g}"
        )
    return TwoLevelControls(
        omega=omega, delta=delta_c, gamma0=g0, gamma1=g1,
        varphi=float(varphi), xi0=float(xi0), xi1=float(xi1),
    )


def synthesize_three_level(
    frame: ThreeLevelFrameParams,
    *,
    gamma0,
    gamma1,
    gamma_e,
    xi0: float,
    xi1: float,
    xi_e: float,
    delta0,
    delta1,
    delta_e,
    varphi: float,
    varphi_a: float,
    grid: TimeGrid | np.ndarray,
    consistency_tol: float = CONSISTENCY_TOL,
) -> ThreeLevelControls:
    """Solve the three-level triangularization conditions for all drive envelopes.

    The inner ``|0> <-> |1>`` drive reuses the two-level equations with
    ``Delta -> Delta1 - Delta0`` and ``varphi -> varphi_a``; the outer
    drive couples the bright combination to ``|e>``.  Both remaining
    real-part conditions (on ``alpha_dot`` and ``beta_dot``) are checked
    as residuals and reported with the offending equation and time.
    """
    g0, g1, ge = _as_callable(gamma0), _as_callable(gamma1), _as_callable(gamma_e)
    d0, d1, de = _as_callable(delta0), _as_callable(delta1), _as_callable(delta_e)
    omega_a, _, _ = _two_level_drive(
        _inner_two_level_frame(frame), g0, g1, xi0, xi1, varphi_a
    )
    sx0, sx1, sxe = np.sin(xi0), np.sin(xi1), np.sin(xi_e)

    def omega(ts):
        ts = np.asarray(ts, dtype=float)
        th = np.asarray(frame.theta(ts))
        ph = np.asarray(frame.phi_mix(ts))
        sin_th2 = np.sin(th) ** 2
        cos_th2 = np.cos(th) ** 2
        rate = g0(ts) * sx0 * sin_th2 + g1(ts) * sx1 * cos_th2 - ge(ts) * sxe
        inv = _guarded_inverse_sin(varphi + np.asarray(frame.beta(ts)), "varphi + beta")
        return (-4.0 * np.asarray(frame.phi_mix_dot(ts)) + rate * np.sin(2.0 * ph)) * inv / 2.0

    def omega0(t):
        return np.asarray(omega(t)) * np.sin(np.asarray(frame.theta(t)))

    def omega1(t):
        return np.asarray(omega(t)) * np.cos(np.asarray(frame.theta(t)))

    controls = ThreeLevelControls(
        omega0=omega0,
        omega1=omega1,
        omega_a=omega_a,
        omega=omega,
        delta0=d0, delta1=d1, delta_e=de,
        varphi0=lambda t: varphi - 0.5 * np.asarray(frame.alpha(t)),
        varphi1=lambda t: varphi + 0.5 * np.asarray(frame.alpha(t)),
        varphi_a=float(varphi_a),
        varphi=float(varphi),
        gamma0=g0, gamma1=g1, gamma_e=ge,
        xi0=float(xi0), xi1=float(xi1), xi_e=float(xi_e),
    )
    ts = grid.times() if isinstance(grid, TimeGrid) else np.asarray(grid, dtype=float)
    r_alpha = _three_level_alpha_residual(controls, frame, ts)
    r_beta = _three_level_beta_residual(controls, frame, ts)
    for name, res in (("alpha", r_alpha), ("beta", r_beta)):
        worst = int(np.argmax(res))
        if res[worst] > consistency_tol:
            raise PhaseConsistencyError(
                f"{name} phase-evolution condition violated: residual "
                f"{res[worst]:.3e} at t = {ts[worst]:g}"
            )
    return controls


def _inner_two_level_frame(frame: ThreeLevelFrameParams) -> TwoLevelFrameParams:
    return TwoLevelFrameParams(
        theta=frame.theta, theta_dot=frame.theta_dot,
        alpha=frame.alpha, alpha_dot=frame.alpha_dot,
    )


def _three_level_alpha_residual(
    controls: ThreeLevelControls, frame: ThreeLevelFrameParams, ts: np.ndarray
) -> np.ndarray:
    """Inner condition: the two-level alpha equation with Delta -> Delta1 - Delta0."""
    c = controls

    def delta_inner(t):
        return np.asarray(c.delta1(t)) - np.asarray(c.delta0(t))

    return np.abs(_two_level_phase_residual(
        _inner_two_level_frame(frame), c.omega_a, delta_inner,
        c.gamma0, c.gamma1, c.xi0, c.xi1, c.varphi_a, ts,
    ))


def _three_level_beta_residual(
    controls: ThreeLevelControls, frame: ThreeLevelFrameParams, ts: np.ndarray
) -> np.ndarray:
    """Outer condition: real part of the bright/e above-diagonal rotated entry."""
    c = controls
    th = np.asarray(frame.theta(ts))
    ph = np.asarray(frame.phi_mix(ts))
    al = np.asarray(frame.alpha(ts))
    be = np.asarray(frame.beta(ts))
    sin_th2, cos_th2 = np.sin(th) ** 2, np.cos(th) ** 2
    re_bright = (
        np.asarray(c.delta0(ts)) * sin_th2 + np.asarray(c.delta1(ts)) * cos_th2
        + 0.5 * (c.gamma0(ts) * np.cos(c.xi0) * sin_th2
                 + c.gamma1(ts) * np.cos(c.xi1) * cos_th2)
        + 0.5 * np.asarray(c.omega_a(ts)) * np.sin(2.0 * th) * np.cos(c.varphi_a + al)
    )
    re_e = np.asarray(c.delta_e(ts)) + 0.5 * c.gamma_e(ts) * np.cos(c.xi_e)
    s2p, c2p = np.sin(2.0 * ph), np.cos(2.0 * ph)
    return np.abs(
        0.5 * s2p * (re_bright - re_e)
        + 0.5 * np.asarray(c.omega(ts)) * c2p * np.cos(c.varphi + be)
        + 0.5 * np.asarray(frame.beta_dot(ts)) * s2p
        - 0.25 * np.asarray(frame.alpha_dot(ts)) * np.cos(2.0 * th) * s2p
    )


def two_level_consistency_residual(
    controls: TwoLevelControls, frame: TwoLevelFrameParams, grid
) -> float:
    """Max local-phase consistency residual of synthesized two-level controls."""
    ts = grid.times() if isinstance(grid, TimeGrid) else np.asarray(grid, dtype=float)
    res = _two_level_phase_residual(
        frame, controls.omega, controls.delta, controls.gamma0, controls.gamma1,
        controls.xi0, controls.xi1, controls.varphi, ts,
    )
    return float(np.max(np.abs(res)))


def three_level_consistency_residual(
    controls: ThreeLevelControls, frame: ThreeLevelFrameParams, grid
) -> float:
    """Max of the alpha and beta consistency residuals over the grid."""
    ts = grid.times() if isinstance(grid, TimeGrid) else np.asarray(grid, dtype=float)
    r_alpha = _three_level_alpha_residual(controls, frame, ts)
    r_beta = _three_level_beta_residual(controls, frame, ts)
    return float(max(np.max(r_alpha), np.max(r_beta)))


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


def _accumulate_simpson(fdot: Callable, times: np.ndarray) -> np.ndarray:
    """Cumulative integral of ``fdot`` on the grid, one Simpson panel per step.

    Uses the same midpoint samples the integrator sees; exact enough that
    stage-end cancellations in the imaginary part survive at the 1e-12
    level.
    """
    left = times[:-1]
    right = times[1:]
    mid = 0.5 * (left + right)
    panels = (right - left) / 6.0 * (
        np.asarray(fdot(left)) + 4.0 * np.asarray(fdot(mid)) + np.asarray(fdot(right))
    )
    out = np.empty(times.size, dtype=panels.dtype)
    out[0] = 0.0
    np.cumsum(panels, out=out[1:])
    return out


def _two_level_fdot(controls: TwoLevelControls, frame: TwoLevelFrameParams, passage: str):
    c = controls
    e0 = np.exp(1j * c.xi0)
    e1 = np.exp(1j * c.xi1)

    def fdot(ts):
        ts = np.asarray(ts, dtype=float)
        th = np.asarray(frame.theta(ts))
        al = np.asarray(frame.alpha(ts))
        sin2, cos2 = np.sin(th) ** 2, np.cos(th) ** 2
        s2, c2 = np.sin(2.0 * th), np.cos(2.0 * th)
        drive = 0.5 * np.asarray(c.omega(ts)) * s2 * np.cos(c.varphi + al)
        twist = 0.5 * np.asarray(frame.alpha_dot(ts)) * c2
        if passage == "ket":
            return (np.asarray(c.delta(ts)) * cos2 + drive - twist
                    + 0.5 * (c.gamma0(ts) * e0 * sin2 + c.gamma1(ts) * e1 * cos2))
        return (np.asarray(c.delta(ts)) * sin2 - drive + twist
                + 0.5 * (c.gamma0(ts) * e0 * cos2 + c.gamma1(ts) * e1 * sin2))

    return fdot


def _three_level_fdot(controls: ThreeLevelControls, frame: ThreeLevelFrameParams, passage: str):
    c = controls
    e0 = np.exp(1j * c.xi0)
    e1 = np.exp(1j * c.xi1)
    ee = np.exp(1j * c.xi_e)

    def fdot(ts):
        ts = np.asarray(ts, dtype=float)
        th = np.asarray(frame.theta(ts))
        al = np.asarray(frame.alpha(ts))
        sin2, cos2 = np.sin(th) ** 2, np.cos(th) ** 2
        s2t, c2t = np.sin(2.0 * th), np.cos(2.0 * th)
        drive_a = 0.5 * np.asarray(c.omega_a(ts)) * s2t * np.cos(c.varphi_a + al)
        if passage == "bra":
            return (np.asarray(c.delta0(ts)) * cos2 + np.asarray(c.delta1(ts)) * sin2
                    - drive_a + 0.5 * np.asarray(frame.alpha_dot(ts)) * c2t
                    + 0.5 * (c.gamma0(ts) * e0 * cos2 + c.gamma1(ts) * e1 * sin2))
        ph = np.asarray(frame.phi_mix(ts))
        be = np.asarray(frame.beta(ts))
        sin2p, cos2p = np.sin(ph) ** 2, np.cos(ph) ** 2
        s2p, c2p = np.sin(2.0 * ph), np.cos(2.0 * ph)
        bright = (np.asarray(c.delta0(ts)) * sin2 + np.asarray(c.delta1(ts)) * cos2
                  + drive_a
                  + 0.5 * (c.gamma0(ts) * e0 * sin2 + c.gamma1(ts) * e1 * cos2))
        level_e = np.asarray(c.delta_e(ts)) + 0.5 * c.gamma_e(ts) * ee
        return (sin2p * bright + cos2p * level_e
                + 0.5 * np.asarray(c.omega(ts)) * s2p * np.cos(c.varphi + be)
                - 0.5 * np.asarray(frame.beta_dot(ts)) * c2p
                - 0.5 * np.asarray(frame.alpha_dot(ts)) * sin2p * c2t)

    return fdot


def _phase_from_fdot(fdot, grid: TimeGrid, passage: str) -> PhaseFunctional:
    times = grid.times()
    f = _accumulate_simpson(fdot, times)
    if passage == "ket":
        return PhaseFunctional(times=times, f_real=f.real, f_imag=f.imag)
    # bra passages carry exp(-i f*), so the recorded functional is the conjugate
    return PhaseFunctional(times=times, f_real=f.real, f_imag=-f.imag)


def phase_two_level(
    controls: TwoLevelControls,
    frame: TwoLevelFrameParams,
    grid: TimeGrid,
    passage: str = "ket",
) -> PhaseFunctional:
    """Accumulated complex phase along a two-level passage.

    ``passage='ket'`` follows the last frame vector under ``H``;
    ``passage='bra'`` follows the first frame vector under ``H^dag``
    (recorded with the conjugate convention so that ``exp(f_imag)`` is
    the norm in both cases).
    """
    if passage not in ("ket", "bra"):
        raise InvalidArgumentError(f"passage must be 'ket' or 'bra', got {passage!r}")
    return _phase_from_fdot(_two_level_fdot(controls, frame, passage), grid, passage)


def phase_three_level(
    controls: ThreeLevelControls,
    frame: ThreeLevelFrameParams,
    grid: TimeGrid,
    passage: str = "ket",
) -> PhaseFunctional:
    """Accumulated complex phase along a three-level passage (ket or bra space)."""
    if passage not in ("ket", "bra"):
        raise InvalidArgumentError(f"passage must be 'ket' or 'bra', got {passage!r}")
    return _phase_from_fdot(_three_level_fdot(controls, frame, passage), grid, passage)


def bra_phase_relation_check(controls, frame, grid) -> float:
    """Residual of the linear relation tying the bra-passage phase to the ket one.

    Two-level: ``conj(fdot_11) = Delta - conj(fdot_22)``.  Three-level:
    ``conj(fdot_11) = Delta0 cos^2 theta + Delta1 - conj(fdot_22_inner)``
    where the inner functional is the two-level one under ``Delta ->
    Delta1``, ``Omega -> Omega_a``, ``varphi -> varphi_a``.  Returns the
    max magnitude over grid points; both relations hold identically when
    the gain/loss assignment satisfies
    ``gamma0 e^{-i xi0} + gamma1 e^{-i xi1} = 0``.
    """
    times = grid.times() if isinstance(grid, TimeGrid) else np.asarray(grid, dtype=float)
    if isinstance(controls, TwoLevelControls):
        # raw diagonal entries of the rotated generator (no bra conjugation here)
        raw11 = _two_level_fdot(controls, frame, "bra")(times)
        raw22 = _two_level_fdot(controls, frame, "ket")(times)
        residual = np.conj(raw11) - np.asarray(controls.delta(times)) + np.conj(raw22)
        return float(np.max(np.abs(residual)))
    if isinstance(controls, ThreeLevelControls):
        raw11 = _three_level_fdot(controls, frame, "bra")(times)
        inner = TwoLevelControls(
            omega=controls.omega_a,
            delta=controls.delta1,
            gamma0=controls.gamma0,
            gamma1=controls.gamma1,
            varphi=controls.varphi_a,
            xi0=controls.xi0,
            xi1=controls.xi1,
        )
        raw22 = _two_level_fdot(inner, _inner_two_level_frame(frame), "ket")(times)
        th = np.asarray(frame.theta(times))
        target = (np.asarray(controls.delta0(times)) * np.cos(th) ** 2
                  + np.asarray(controls.delta1(times)))
        residual = np.conj(raw11) - target + np.conj(raw22)
        return float(np.max(np.abs(residual)))
    raise TypeError(f"unsupported controls type {type(controls).__name__}")


@dataclass(frozen=True)
class ScheduleStage:
    """One smooth stage of a cyclic schedule.

    ``passage`` names the space whose frame vector carries the state
    ('ket' for the last frame vector under H, 'bra' for the first under
    H^dag); ``xi_e`` is the gain/loss phase assigned to the third level
    during the stage.
    """

    start: float
    end: float
    theta: Callable
    theta_dot: Callable
    phi_mix: Callable
    phi_mix_dot: Callable
    passage: str
    xi_e: float


@dataclass(frozen=True)
class StageSchedule:
    """Three equal-duration stages forming one loop of a cyclic transfer."""

    T: float
    loop_index: int
    direction: str
    stages: tuple[ScheduleStage, ScheduleStage, ScheduleStage]


def _affine(slope: float, t_ref: float, offset: float = 0.0):
    def f(t):
        return slope * (np.asarray(t, dtype=float) - t_ref) + offset

    def fdot(t):
        return np.full_like(np.asarray(t, dtype=float), slope)

    return f, fdot


def clockwise_schedule(k: int, T: float) -> StageSchedule:
    """Stage angles for the k-th clockwise loop ``|0> -> |e> -> |1> -> |0>``.

    Each stage lasts ``2T``.  Stages 1-2 ride the ket-space passage under
    ``H`` and stage 3 the bra-space passage under ``H^dag`` (which never
    touches the third level).  The third-level gain flips sign in stage 2
    via ``xi_e``.
    """
    if k < 1:
        raise InvalidArgumentError(f"loop index must be >= 1, got {k}")
    if not T > 0:
        raise InvalidArgumentError(f"stage half-duration must be positive, got {T}")
    slope = np.pi / (4.0 * T)
    base = 6.0 * (k - 1) * T
    th1, th1_dot = _affine(slope, 2.0 * (3 * k - 2) * T)
    ph1, ph1_dot = _affine(slope, 2.0 * (3 * k - 2) * T)
    th2, th2_dot = _affine(slope, 2.0 * (3 * k - 1) * T)
    ph2, ph2_dot = _affine(slope, 2.0 * (3 * k - 1) * T, -np.pi / 2.0)
    th3, th3_dot = _affine(slope, 2.0 * (3 * k - 2) * T)
    ph3, ph3_dot = _affine(slope, 2.0 * (3 * k - 2) * T, np.pi / 2.0)
    stages = (
        ScheduleStage(base, base + 2 * T, th1, th1_dot, ph1, ph1_dot, "ket", np.pi / 2),
        ScheduleStage(base + 2 * T, base + 4 * T, th2, th2_dot, ph2, ph2_dot, "ket", -np.pi / 2),
        ScheduleStage(base + 4 * T, base + 6 * T, th3, th3_dot, ph3, ph3_dot, "bra", np.pi / 2),
    )
    return StageSchedule(T=T, loop_index=k, direction="cw", stages=stages)


def counterclockwise_schedule(k: int, T: float) -> StageSchedule:
    """Stage angles for the k-th counterclockwise loop ``|0> -> |1> -> |e> -> |0>``.

    Stage 1 rides the bra-space passage under ``H^dag`` and stages 2-3 the
    ket-space passage under ``H``; the ``xi_e`` assignment matches the
    clockwise case.
    """
    if k < 1:
        raise InvalidArgumentError(f"loop index must be >= 1, got {k}")
    if not T > 0:
        raise InvalidArgumentError(f"stage half-duration must be positive, got {T}")
    slope = -np.pi / (4.0 * T)
    base = 6.0 * (k - 1) * T
    th1, th1_dot = _affine(slope, 6.0 * (k - 1) * T)
    ph1, ph1_dot = _affine(-slope, 6.0 * (k - 1) * T)
    th2, th2_dot = _affine(slope, 2.0 * (3 * k - 2) * T)
    ph2, ph2_dot = _affine(-slope, 2.0 * (3 * k - 2) * T, -np.pi / 2.0)
    th3, th3_dot = _affine(slope, 2.0 * (3 * k - 1) * T)
    ph3, ph3_dot = _affine(-slope, 2.0 * (3 * k - 1) * T, np.pi)
    stages = (
        ScheduleStage(base, base + 2 * T, th1, th1_dot, ph1, ph1_dot, "bra", np.pi / 2),
        ScheduleStage(base + 2 * T, base + 4 * T, th2, th2_dot, ph2, ph2_dot, "ket", -np.pi / 2),
        ScheduleStage(base + 4 * T, base + 6 * T, th3, th3_dot, ph3, ph3_dot, "ket", np.pi / 2),
    )
    return StageSchedule(T=T, loop_index=k, direction="ccw", stages=stages)
