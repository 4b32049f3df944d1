"""Time-dependent orthonormal frames, gauge potentials, and triangularization checks.

A complete orthonormal set of basis-vector functions ``mu_k(t)`` defines a
rotating picture for the dynamics.  In that picture the generator turns
into ``Hf(t) - A(t)``, where ``Hf_km = <mu_k|H|mu_m>`` is the dynamical
part and ``A_km = i <mu_k | d mu_m/dt>`` is the (Hermitian) gauge
potential produced by the frame's motion.

When every entry of ``Hf - A`` *above* the diagonal vanishes, each frame
vector with no entries feeding into it from above becomes an exact
passage: the last frame vector is carried exactly by the ket dynamics and
the first one by the dual (bra) dynamics, each up to a complex global
phase.  The residual functions here certify or refute that condition; for
Hermitian generators it collapses to the classical projector commutation
law d Pi_k/dt = -i [H, Pi_k], which :func:`von_neumann_residual` measures
directly.

Frame convention: the frame matrix ``M(t)`` carries ``mu_k(t)`` in its
columns, ordered so that column K-1 (the last) is the ket-space passage
and column 0 the bra-space passage.  The triangularization direction
depends on this ordering.  A frame, like a generator, is sampled only in
batches: its callables map a 1-D array of times to ``(n, K, K)`` stacks of
frame matrices and their analytic time derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import TimeDependentOperator, TimeGrid, _tabulated, _time_last
from .exceptions import DimensionMismatchError, NonHermitianError

__all__ = [
    "AncillaryFrame",
    "TwoLevelFrameParams",
    "ThreeLevelFrameParams",
    "two_level_frame",
    "three_level_frame",
    "triangularization_residual",
    "von_neumann_residual",
]

#: Largest entry of ``H - H^dag`` that :func:`von_neumann_residual` accepts.
_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class AncillaryFrame:
    """A complete orthonormal moving basis with analytic time derivatives.

    ``basis_batch`` maps a 1-D time array to the ``(n, dim, dim)`` stack of
    frame matrices whose columns are the basis vectors;
    ``basis_derivative_batch`` gives their elementwise time derivatives.
    """

    dim: int
    basis_batch: Callable[[np.ndarray], np.ndarray]
    basis_derivative_batch: Callable[[np.ndarray], np.ndarray]

    def sample(self, times: np.ndarray) -> np.ndarray:
        return self._checked(self.basis_batch, times)

    def tabulated(self, times: np.ndarray) -> "AncillaryFrame":
        """This frame and its derivative evaluated once on ``times``."""
        return AncillaryFrame(self.dim, _tabulated(self.basis_batch, times),
                              _tabulated(self.basis_derivative_batch, times))

    def sample_derivative(self, times: np.ndarray) -> np.ndarray:
        return self._checked(self.basis_derivative_batch, times)

    def _checked(self, batch: Callable, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        block = np.asarray(batch(times), dtype=complex)
        if block.shape != (times.size, self.dim, self.dim):
            raise DimensionMismatchError(
                f"frame samples have shape {block.shape}, expected "
                f"({times.size}, {self.dim}, {self.dim})"
            )
        return block


@dataclass(frozen=True)
class TwoLevelFrameParams:
    """Mixing angle and local phase (with analytic rates) of a two-level frame.

    All four callables must accept scalar or array times (plain numpy
    expressions do).  ``theta`` steers populations between the levels,
    ``alpha`` their relative phase.
    """

    theta: Callable
    theta_dot: Callable
    alpha: Callable
    alpha_dot: Callable


@dataclass(frozen=True)
class ThreeLevelFrameParams:
    """Angles of the nested three-level frame.

    ``theta``/``alpha`` parameterize the inner two-level rotation between
    the two lower levels (producing the superposed bright combination),
    ``phi_mix``/``beta`` the outer rotation mixing that combination with
    the third level.
    """

    theta: Callable
    theta_dot: Callable
    alpha: Callable
    alpha_dot: Callable
    phi_mix: Callable
    phi_mix_dot: Callable
    beta: Callable
    beta_dot: Callable


def _stack_matrix(rows):
    """Stack row-major component lists into (..., dim, dim) matrices."""
    stacked = [np.stack(row, axis=-1) for row in rows]
    return np.stack(stacked, axis=-2)


def _two_level_matrix(th, al):
    c, s = np.cos(th), np.sin(th)
    ep = np.exp(0.5j * np.asarray(al))
    em = np.conj(ep)
    return _stack_matrix([[c * ep, s * ep], [-s * em, c * em]])


def _two_level_matrix_dot(th, al, dth, dal):
    c, s = np.cos(th), np.sin(th)
    ep = np.exp(0.5j * np.asarray(al))
    em = np.conj(ep)
    dc = (-s * dth + 0.5j * dal * c) * ep
    ds = (c * dth + 0.5j * dal * s) * ep
    dcm = (-s * dth - 0.5j * dal * c) * em
    dsm = (c * dth - 0.5j * dal * s) * em
    return _stack_matrix([[dc, ds], [-dsm, dcm]])


def two_level_frame(params: TwoLevelFrameParams) -> AncillaryFrame:
    """The standard two-level moving frame.

    Columns (in the fixed basis ``|0>, |1>``)::

        mu_1 =  cos(theta) e^{+i alpha/2} |0> - sin(theta) e^{-i alpha/2} |1>
        mu_2 =  sin(theta) e^{+i alpha/2} |0> + cos(theta) e^{-i alpha/2} |1>

    ``mu_2`` (last column) is the ket-space passage candidate and ``mu_1``
    the bra-space one.  Derivatives are analytic via the chain rule.
    """
    p = params

    def batch(ts):
        ts = np.asarray(ts, dtype=float)
        return _two_level_matrix(p.theta(ts), p.alpha(ts))

    def batch_dot(ts):
        ts = np.asarray(ts, dtype=float)
        return _two_level_matrix_dot(p.theta(ts), p.alpha(ts), p.theta_dot(ts), p.alpha_dot(ts))

    return AncillaryFrame(dim=2, basis_batch=batch, basis_derivative_batch=batch_dot)


def _three_level_matrix(th, al, ph, be):
    cth, sth = np.cos(th), np.sin(th)
    cph, sph = np.cos(ph), np.sin(ph)
    ea = np.exp(0.5j * np.asarray(al))
    eb = np.exp(0.5j * np.asarray(be))
    eam, ebm = np.conj(ea), np.conj(eb)
    zero = np.zeros_like(cth + 0j)
    # bright combination of the two lower levels
    b0, b1 = sth * ea, cth * eam
    mu1 = [cth * ea, -sth * eam, zero]
    mu2 = [cph * eb * b0, cph * eb * b1, -sph * ebm]
    mu3 = [sph * eb * b0, sph * eb * b1, cph * ebm]
    return _stack_matrix([
        [mu1[0], mu2[0], mu3[0]],
        [mu1[1], mu2[1], mu3[1]],
        [mu1[2], mu2[2], mu3[2]],
    ])


def _three_level_matrix_dot(th, al, ph, be, dth, dal, dph, dbe):
    cth, sth = np.cos(th), np.sin(th)
    cph, sph = np.cos(ph), np.sin(ph)
    ea = np.exp(0.5j * np.asarray(al))
    eb = np.exp(0.5j * np.asarray(be))
    eam, ebm = np.conj(ea), np.conj(eb)
    zero = np.zeros_like(cth + 0j)

    b0 = sth * ea
    b1 = cth * eam
    db0 = (cth * dth + 0.5j * dal * sth) * ea
    db1 = (-sth * dth - 0.5j * dal * cth) * eam

    dmu1_0 = (-sth * dth + 0.5j * dal * cth) * ea
    dmu1_1 = -(cth * dth - 0.5j * dal * sth) * eam

    ceb = cph * eb
    seb = sph * eb
    dceb = (-sph * dph + 0.5j * dbe * cph) * eb
    dseb = (cph * dph + 0.5j * dbe * sph) * eb
    dsebm = (cph * dph - 0.5j * dbe * sph) * ebm
    dcebm = (-sph * dph - 0.5j * dbe * cph) * ebm

    dmu2 = [dceb * b0 + ceb * db0, dceb * b1 + ceb * db1, -dsebm]
    dmu3 = [dseb * b0 + seb * db0, dseb * b1 + seb * db1, dcebm]
    return _stack_matrix([
        [dmu1_0, dmu2[0], dmu3[0]],
        [dmu1_1, dmu2[1], dmu3[1]],
        [zero, dmu2[2], dmu3[2]],
    ])


def three_level_frame(params: ThreeLevelFrameParams) -> AncillaryFrame:
    """Nested moving frame for a three-level system in the basis ``|0>, |1>, |e>``.

    The inner rotation builds the bright combination
    ``b = sin(theta) e^{+i alpha/2}|0> + cos(theta) e^{-i alpha/2}|1>``
    orthogonal to ``mu_1``; the outer rotation by ``phi_mix``/``beta``
    mixes ``b`` with ``|e>``::

        mu_1 = cos(theta) e^{+i alpha/2}|0> - sin(theta) e^{-i alpha/2}|1>
        mu_2 = cos(phi_mix) e^{+i beta/2}|b> - sin(phi_mix) e^{-i beta/2}|e>
        mu_3 = sin(phi_mix) e^{+i beta/2}|b> + cos(phi_mix) e^{-i beta/2}|e>

    ``mu_3`` is the ket-space passage candidate and ``mu_1`` the bra-space
    one; ``mu_1`` never touches ``|e>``.
    """
    p = params

    def batch(ts):
        ts = np.asarray(ts, dtype=float)
        return _three_level_matrix(p.theta(ts), p.alpha(ts), p.phi_mix(ts), p.beta(ts))

    def batch_dot(ts):
        ts = np.asarray(ts, dtype=float)
        return _three_level_matrix_dot(
            p.theta(ts), p.alpha(ts), p.phi_mix(ts), p.beta(ts),
            p.theta_dot(ts), p.alpha_dot(ts), p.phi_mix_dot(ts), p.beta_dot(ts),
        )

    return AncillaryFrame(dim=3, basis_batch=batch, basis_derivative_batch=batch_dot)


def _gauge_batch(frames: np.ndarray, dframes: np.ndarray) -> np.ndarray:
    """Gauge potentials of time-last ``(K, K, n)`` frame and derivative blocks."""
    return 1j * np.einsum("ikn,imn->kmn", frames.conj(), dframes)


def _rotated_batch(H: TimeDependentOperator, frame: AncillaryFrame, times: np.ndarray):
    """``Hf - A`` on every time, as a time-last ``(K, K, n)`` block."""
    hs = _time_last(H.sample(times))
    ms = _time_last(frame.sample(times))
    dms = _time_last(frame.sample_derivative(times))
    hf = np.einsum("ikn,imn->kmn", ms.conj(), np.einsum("ijn,jmn->imn", hs, ms))
    return hf - _gauge_batch(ms, dms)


def _grid_times(grid) -> np.ndarray:
    if isinstance(grid, TimeGrid):
        return grid.times()
    return np.asarray(grid, dtype=float)


def triangularization_residual(
    H: TimeDependentOperator, frame: AncillaryFrame, grid
) -> float:
    """Largest above-diagonal magnitude of the rotated generator over the grid.

    A residual at roundoff certifies that the frame triangularizes the
    dynamics, i.e. that the last/first frame vectors are exact ket/bra
    passages.  ``grid`` may be a :class:`TimeGrid` or an array of times,
    which must not straddle discontinuities of ``H`` or the frame.
    """
    if H.dim != frame.dim:
        raise DimensionMismatchError(
            f"operator dim {H.dim} != frame dim {frame.dim}"
        )
    times = _grid_times(grid)
    rot = _rotated_batch(H, frame, times)
    iu = np.triu_indices(frame.dim, k=1)
    return float(np.max(np.abs(rot[iu])))


def von_neumann_residual(
    H: TimeDependentOperator, frame: AncillaryFrame, grid
) -> float:
    """Max-entry defect of ``d Pi_k/dt + i [H, Pi_k]`` over grid points and k.

    ``Pi_k = |mu_k><mu_k|`` are the frame projectors.  Only meaningful for
    Hermitian generators, where a vanishing residual is equivalent to the
    triangularization condition; raises :class:`NonHermitianError` if
    ``H`` deviates from Hermiticity beyond 1e-12 on the grid.
    """
    if H.dim != frame.dim:
        raise DimensionMismatchError(
            f"operator dim {H.dim} != frame dim {frame.dim}"
        )
    times = _grid_times(grid)
    hs = _time_last(H.sample(times))
    herm_defect = float(np.max(np.abs(hs - hs.conj().transpose(1, 0, 2))))
    if herm_defect > _HERMITIAN_TOL:
        raise NonHermitianError(
            f"generator is not Hermitian on the grid (defect {herm_defect:.3e})"
        )
    ms = _time_last(frame.sample(times))
    dms = _time_last(frame.sample_derivative(times))
    worst = 0.0
    for k in range(frame.dim):
        mu, dmu = ms[:, k], dms[:, k]
        pi = mu[:, None] * mu[None].conj()
        dpi = dmu[:, None] * mu[None].conj() + mu[:, None] * dmu[None].conj()
        comm = np.einsum("ijn,jkn->ikn", hs, pi) - np.einsum("ijn,jkn->ikn", pi, hs)
        worst = max(worst, float(np.max(np.abs(dpi + 1j * comm))))
    return worst
