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

Each envelope keeps the operations, and their order, of the closed forms it
was first written in: on four ``cyclic_ccw`` loops the growing modes amplify
one ulp in ``H`` past the benchmark's 1e-12 gate on stage-end populations (a
per-sample least-squares solve, exact to rounding, moved them by 1.2e-9).

All accumulated phases follow the convention that the passage state is
``c * exp(-i (f_real + i f_imag)) * mu(t)``, so ``exp(f_imag)`` is the
state norm and probability returns to one exactly when ``f_imag`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import TimeDependentOperator, TimeGrid, _sample_times
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
    ``varphi_a``.  ``omega`` is the shared outer envelope and ``theta`` the
    frame's mixing angle that splits it: ``omega0 = omega sin(theta)``,
    ``omega1 = omega cos(theta)``, so scaling ``omega`` scales both.
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
        # the outer envelope and mixing angle once for both outer drives
        om, th = np.asarray(c.omega(ts)), np.asarray(c.theta(ts))
        h[..., 2, 0] = 0.5 * (om * np.sin(th)) * np.exp(1j * np.asarray(c.varphi0(ts)))
        h[..., 2, 1] = 0.5 * (om * np.cos(th)) * np.exp(1j * np.asarray(c.varphi1(ts)))
        h[..., 1, 0] = 0.5 * np.asarray(c.omega_a(ts)) * epa
        h[..., 0, 2] = np.conj(h[..., 2, 0])
        h[..., 1, 2] = np.conj(h[..., 2, 1])
        h[..., 0, 1] = np.conj(h[..., 1, 0])
        return h

    return TimeDependentOperator(dim=3, values_at=batch)


def _weigh(lo, hi, x):
    """``lo sin^2 x + hi cos^2 x``: the diagonal entries as the upper vector sees them."""
    return lo * np.sin(x) ** 2 + hi * np.cos(x) ** 2


def _pair_drive(rate, x, x_dot, a, varphi, context: str) -> Callable:
    """A pair's envelope as a callable of time, for ``rate(t) = 2 Im(d_lo - d_hi)``."""

    def omega(ts):
        ts = np.asarray(ts, dtype=float)
        s = np.sin(varphi + np.asarray(a(ts)))
        small = np.abs(s) < EPS_SINGULAR
        if np.any(small):
            raise SingularDenominatorError(
                f"|sin({context})| < {EPS_SINGULAR:g} at sample index {int(np.argmax(small))}")
        x_ts, inv = np.asarray(x(ts)), 1.0 / s
        return (-4.0 * np.asarray(x_dot(ts)) + rate(ts) * np.sin(2.0 * x_ts)) * inv / 2.0

    return omega


def _pair_rate(side: str, d_lo, d_hi, x, a, a_dot, omega, varphi):
    """Rotated diagonal entry of the upper ('ket') or lower ('bra') frame vector."""
    drive_twist = (0.5 * omega * np.sin(2.0 * x) * np.cos(varphi + a)
                   - 0.5 * a_dot * np.cos(2.0 * x))
    if side == "ket":
        return _weigh(d_lo, d_hi, x) + drive_twist
    return _weigh(d_hi, d_lo, x) - drive_twist


def _pair_residual(d_lo, d_hi, x, a, a_dot, omega, varphi):
    """Real part of the rotated above-diagonal entry, from the real parts of ``d_lo``, ``d_hi``."""
    s2 = np.sin(2.0 * x)
    return (0.5 * s2 * (d_lo - d_hi)
            + 0.5 * omega * np.cos(2.0 * x) * np.cos(varphi + a)
            + 0.5 * a_dot * s2)


def _cis(xi):
    return np.exp(1j * xi)


def _inner_pair(c, frame, ts, weight):
    """Pair arguments of ``|0>, |1>``: a whole two-level system, or the inner
    pair of three levels.  ``weight(xi)`` multiplies ``gamma/2`` on the
    diagonal: :func:`_cis` for the entries, ``np.cos`` for their real parts."""
    if isinstance(c, TwoLevelControls):
        d0 = 0.5 * weight(c.xi0) * c.gamma0(ts)
        delta1, omega, varphi = c.delta, c.omega, c.varphi
    elif isinstance(c, ThreeLevelControls):
        d0 = np.asarray(c.delta0(ts)) + 0.5 * weight(c.xi0) * c.gamma0(ts)
        delta1, omega, varphi = c.delta1, c.omega_a, c.varphi_a
    else:
        raise TypeError(f"unsupported controls type {type(c).__name__}")
    d1 = np.asarray(delta1(ts)) + 0.5 * weight(c.xi1) * c.gamma1(ts)
    return (d0, d1, np.asarray(frame.theta(ts)), np.asarray(frame.alpha(ts)),
            np.asarray(frame.alpha_dot(ts)), np.asarray(omega(ts)), varphi)


def _outer_pair(c: ThreeLevelControls, frame, ts, weight, bright):
    """Pair arguments of the bright state, whose entry is the inner ket rate, and ``|e>``."""
    d_e = np.asarray(c.delta_e(ts)) + 0.5 * weight(c.xi_e) * c.gamma_e(ts)
    return (bright, d_e, np.asarray(frame.phi_mix(ts)), np.asarray(frame.beta(ts)),
            np.asarray(frame.beta_dot(ts)), np.asarray(c.omega(ts)), c.varphi)


def _consistency_residuals(c, frame, ts) -> dict[str, np.ndarray]:
    """Magnitude of each pair's consistency residual, keyed by its local phase."""
    inner = _inner_pair(c, frame, ts, np.cos)
    residuals = {"alpha": np.abs(_pair_residual(*inner))}
    if isinstance(c, ThreeLevelControls):
        outer = _outer_pair(c, frame, ts, np.cos, _pair_rate("ket", *inner))
        residuals["beta"] = np.abs(_pair_residual(*outer))
    return residuals


def _consistent(controls, frame, grid):
    """``controls``, after checking every consistency residual on the grid; a
    residual that is NaN or Inf raises :class:`NonFiniteSampleError` at its
    first such time."""
    ts = _grid_times(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = _consistency_residuals(controls, frame, ts)
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
    return controls


def _inner_drive(frame, g0, g1, xi0, xi1, varphi) -> Callable:
    """Envelope of the ``|0> <-> |1>`` drive."""
    sx0, sx1 = np.sin(xi0), np.sin(xi1)
    return _pair_drive(lambda ts: g0(ts) * sx0 - g1(ts) * sx1, frame.theta, frame.theta_dot,
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
        lambda ts: _weigh(g0(ts) * sx0, g1(ts) * sx1, np.asarray(frame.theta(ts))) - ge(ts) * sxe,
        frame.phi_mix, frame.phi_mix_dot, frame.beta, varphi, "varphi + beta")
    return _consistent(ThreeLevelControls(
        omega=omega,
        theta=frame.theta,
        omega_a=_inner_drive(frame, g0, g1, xi0, xi1, varphi_a),
        delta0=_as_callable(delta0), delta1=_as_callable(delta1),
        delta_e=_as_callable(delta_e),
        varphi0=lambda t: varphi - 0.5 * np.asarray(frame.alpha(t)),
        varphi1=lambda t: varphi + 0.5 * np.asarray(frame.alpha(t)),
        varphi_a=float(varphi_a),
        varphi=float(varphi),
        gamma0=g0, gamma1=g1, gamma_e=ge,
        xi0=float(xi0), xi1=float(xi1), xi_e=float(xi_e),
    ), frame, grid)


def two_level_consistency_residual(controls, frame, grid) -> float:
    """Max local-phase consistency residual (alpha, and for three levels beta) over the grid.

    ``three_level_consistency_residual`` is this function.
    """
    residuals = _consistency_residuals(controls, frame, _grid_times(grid))
    return float(max(np.max(res) for res in residuals.values()))


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


def _accumulate_simpson(fdot: Callable, times: np.ndarray) -> np.ndarray:
    """Cumulative integral of ``fdot`` on the grid, one Simpson panel per step.

    Uses the same midpoint samples the integrator sees; exact enough that
    stage-end cancellations in the imaginary part survive at the 1e-12
    level.
    """
    rates = np.asarray(fdot(_sample_times(times)))  # each grid point and midpoint once
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
    if passage not in ("ket", "bra"):
        raise InvalidArgumentError(f"passage must be 'ket' or 'bra', got {passage!r}")

    def fdot(ts):
        # the bra vector mu_1 lies in the inner pair; the three-level ket
        # vector is the outer pair's, whose d_lo is the inner ket rate
        inner = _inner_pair(controls, frame, ts, _cis)
        if passage == "bra" or isinstance(controls, TwoLevelControls):
            return _pair_rate(passage, *inner)
        return _pair_rate("ket", *_outer_pair(controls, frame, ts, _cis,
                                              _pair_rate("ket", *inner)))

    times = grid.times()
    f = _accumulate_simpson(fdot, times)
    # bra passages carry exp(-i f*), so the recorded functional is the conjugate
    return PhaseFunctional(times=times, f_real=f.real,
                           f_imag=f.imag if passage == "ket" else -f.imag)


phase_three_level = phase_two_level


def bra_phase_relation_check(controls, frame, grid) -> float:
    """Residual of the linear relation tying the bra-passage phase to the ket one.

    ``conj(fdot_11) = Delta0 cos^2 theta + Delta1 - conj(fdot_22_inner)`` on the
    ``|0>, |1>`` pair (the whole system for two levels, with ``Delta0 = 0``,
    ``Delta1 = Delta``): ``fdot_11`` is its bra rate and ``fdot_22_inner`` its
    ket rate without ``Delta0``.  Returns the max magnitude over grid points;
    the relation holds identically when the gain/loss assignment satisfies
    ``gamma0 e^{-i xi0} + gamma1 e^{-i xi1} = 0``.
    """
    times = _grid_times(grid)
    d0, d1, *rest = _inner_pair(controls, frame, times, _cis)
    # the detunings alone: the same diagonal entries with the gains weighted by zero
    delta0, delta1, *_ = _inner_pair(controls, frame, times, lambda xi: 0.0)
    # raw diagonal entries of the rotated generator (no bra conjugation here)
    raw11 = _pair_rate("bra", d0, d1, *rest)
    raw22 = _pair_rate("ket", d0 - delta0, d1, *rest)
    target = delta0 * np.cos(rest[0]) ** 2 + delta1
    return float(np.max(np.abs(np.conj(raw11) - target + np.conj(raw22))))


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
