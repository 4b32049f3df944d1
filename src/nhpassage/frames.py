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
depends on this ordering.  A frame is sampled like a generator, only in
batches: its one callable maps a 1-D array of times to an ``(n, 2, K, K)``
block, ``[:, 0]`` the frame matrices and ``[:, 1]`` their analytic time
derivatives, checked for shape and NaN/Inf by the same code as a
generator's block (see :mod:`nhpassage.dynamics`).

Both built-in frames come from one pair rotation, the pair that synthesis
solves: the two-level frame is one pair on ``|0>, |1>``, and the
three-level frame is a product of two pair rotations (the ``|0>, |1>``
pair making the bright state, and the bright state paired with ``|e>``),
its derivative by the product rule, so one evaluation of the pairs gives
matrices and derivatives together, in one time-last ``(2, K, K, n)`` block:
``values_at`` returns its ``(n, 2, K, K)`` view, so the time-last copy the
certificates make of it is no copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import (TimeDependentOperator, TimeGrid, _checked_block, _chunks, _Derived,
                       _Samples, _time_last)
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

    ``values_at`` maps a 1-D time array to one ``(n, 2, dim, dim)`` block:
    ``[:, 0]`` holds the frame matrices, whose columns are the basis
    vectors, and ``[:, 1]`` their elementwise time derivatives.
    """

    dim: int
    values_at: Callable[[np.ndarray], np.ndarray]

    def _block(self, times) -> np.ndarray:
        """The block at ``times``, a time array or a sample set, checked as
        :meth:`TimeDependentOperator.sample` checks."""
        return _checked_block(self.values_at, times, (2, self.dim, self.dim))

    def sample(self, times: np.ndarray) -> np.ndarray:
        """The frame matrices at ``times``: a view of the checked block."""
        return self._block(times)[:, 0]

    def sample_derivative(self, times: np.ndarray) -> np.ndarray:
        """Their time derivatives: a view of the same block."""
        return self._block(times)[:, 1]


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


def _pair(samples, x, a, dx, da):
    """The time-last ``(2, 2, 2, n)`` block of one pair's rotation by angle ``x``
    and local phase ``a``::

        [[cos x e^{+ia/2},  sin x e^{+ia/2}],
         [-sin x e^{-ia/2}, cos x e^{-ia/2}]]

    and of its derivative at the rates ``dx, da``, from the same cosines,
    sines and phase factors; the angles, rates and trig factors are the sample
    set's, and an entry of constants alone is broadcast along time.
    """
    c, s = samples.cos(x), samples.sin(x)
    dx, da = samples(dx), samples(da)
    ep = np.exp(0.5j * samples(a))
    em = np.conj(ep)
    m, d = block = np.empty((2, 2, 2) + samples.times.shape, dtype=complex)
    m[0, 0], m[0, 1], m[1, 0], m[1, 1] = c * ep, s * ep, -s * em, c * em
    d[0, 0], d[0, 1] = (-s * dx + 0.5j * da * c) * ep, (c * dx + 0.5j * da * s) * ep
    d[1, 0], d[1, 1] = -((c * dx - 0.5j * da * s) * em), (-s * dx - 0.5j * da * c) * em
    return block


def _nested(inner, outer):
    """The time-last ``(2, 3, 3, n)`` block of an outer pair nested on an inner
    one, from the two pairs' time-last blocks.

    Column 0 is the inner pair's first column.  The outer pair's first row
    scales the inner second column (the bright state) into rows 0-1 of
    columns 1-2, and its second row is row 2 there.  The derivative follows
    by the product rule: an entry linear in one pair takes that pair's
    derivative.  Products keep the outer factor on the left: numpy's complex
    multiply is not bitwise commutative.
    """
    m = np.zeros((2, 3, 3) + inner.shape[3:], dtype=complex)
    m[:, :2, 0] = inner[:, :, 0]
    m[:, :2, 1:] = outer[:, None, 0] * inner[:1, :, 1, None]
    m[1, :2, 1:] += outer[0, None, 0] * inner[1, :, 1, None]
    m[:, 2, 1:] = outer[:, 1]
    return m


def _built_in(dim: int, block: Callable) -> AncillaryFrame:
    """The frame whose values are the ``(n, 2, dim, dim)`` view of ``block(samples)``."""
    return AncillaryFrame(dim, _Derived(lambda s: np.moveaxis(block(s), (0, 1, 2), (-3, -2, -1))))


def two_level_frame(params: TwoLevelFrameParams) -> AncillaryFrame:
    """The standard two-level moving frame: one pair on ``|0>, |1>``.

    Columns (in the fixed basis ``|0>, |1>``)::

        mu_1 =  cos(theta) e^{+i alpha/2} |0> - sin(theta) e^{-i alpha/2} |1>
        mu_2 =  sin(theta) e^{+i alpha/2} |0> + cos(theta) e^{-i alpha/2} |1>

    ``mu_2`` (last column) is the ket-space passage candidate and ``mu_1``
    the bra-space one.  Derivatives are analytic via the chain rule.
    """
    p = params
    return _built_in(2, lambda s: _pair(s, p.theta, p.alpha, p.theta_dot, p.alpha_dot))


def three_level_frame(params: ThreeLevelFrameParams) -> AncillaryFrame:
    """Nested moving frame for a three-level system in the basis ``|0>, |1>, |e>``.

    The frame is a product of two pair rotations.  The inner pair
    ``(theta, alpha)`` on ``|0>, |1>`` builds the bright combination
    ``b = sin(theta) e^{+i alpha/2}|0> + cos(theta) e^{-i alpha/2}|1>``
    orthogonal to ``mu_1``; the outer pair ``(phi_mix, beta)`` mixes ``b``
    with ``|e>``::

        mu_1 = cos(theta) e^{+i alpha/2}|0> - sin(theta) e^{-i alpha/2}|1>
        mu_2 = cos(phi_mix) e^{+i beta/2}|b> - sin(phi_mix) e^{-i beta/2}|e>
        mu_3 = sin(phi_mix) e^{+i beta/2}|b> + cos(phi_mix) e^{-i beta/2}|e>

    ``mu_3`` is the ket-space passage candidate and ``mu_1`` the bra-space
    one; ``mu_1`` never touches ``|e>``.  The derivative follows from the
    two pairs' derivatives by the product rule.
    """
    p = params
    return _built_in(3, lambda s: _nested(_pair(s, p.theta, p.alpha, p.theta_dot, p.alpha_dot),
                                          _pair(s, p.phi_mix, p.beta, p.phi_mix_dot, p.beta_dot)))


def _grid_times(grid) -> np.ndarray:
    if isinstance(grid, TimeGrid):
        return grid.times()
    return np.asarray(grid, dtype=float)


def _triangularization(hs: np.ndarray, ms: np.ndarray, dms: np.ndarray) -> np.float64:
    """The largest above-diagonal magnitude of ``Hf - A`` from the time-last
    blocks of ``H``, the frame and its derivative.

    Only the entries read are formed, by the sums of the full rotated block:
    ``H M`` on columns 1..K-1, then ``M^dag (H M)`` and the gauge term
    ``i M^dag dM`` on rows 0..K-2, which hold every entry above the diagonal.
    """
    left = ms[:, :-1].conj()
    rot = np.einsum("ikn,imn->kmn", left, np.einsum("ijn,jmn->imn", hs, ms[:, 1:]))
    rot -= 1j * np.einsum("ikn,imn->kmn", left, dms[:, 1:])
    return np.max(np.abs(rot[np.triu_indices(len(ms) - 1)]))


def _von_neumann(hs: np.ndarray, ms: np.ndarray, dms: np.ndarray) -> np.float64:
    """The largest entry of ``d Pi_k/dt + i [H, Pi_k]`` from the time-last
    blocks of ``H``, the frame and its derivative; products that overflow
    give NaN, and no warning.

    Two products serve every ``k``: with ``HM`` and ``M^dag H`` formed once,
    the defect of ``Pi_k`` is ``(dmu_k + i (HM)_k) mu_k^dag + mu_k (dmu_k^dag
    - i (M^dag H)_k)``, column ``k`` of the one and row ``k`` of the other, so
    each ``k`` costs two outer products.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        hm = np.einsum("ijn,jkn->ikn", hs, ms)
        mh = np.einsum("jkn,jmn->kmn", ms.conj(), hs)
        peaks = []
        for k in range(len(ms)):
            mu, dmu = ms[:, k], dms[:, k]
            left = dmu + 1j * hm[:, k]
            right = dmu.conj() - 1j * mh[k]
            defect = left[:, None] * mu[None].conj() + mu[:, None] * right[None]
            peaks.append(np.max(np.abs(defect)))
    return np.max(peaks)  # a NaN defect of any projector is the result


def _residuals(H: TimeDependentOperator, frames: tuple, grid,
               von_neumann: bool = False) -> list[np.float64]:
    """The triangularization residual of ``H`` in each of ``frames`` over the
    grid, then, for ``von_neumann``, its von Neumann residual in each: running
    maxima that keep a NaN, over a chunk of points at a time, one sample set
    per chunk serving ``H`` and every frame.  The von Neumann residuals raise
    :class:`NonHermitianError` if an entry of ``H - H^dag`` exceeds 1e-12, or is NaN.
    """
    K, times = H.dim, _grid_times(grid)
    for frame in frames:
        if frame.dim != K:
            raise DimensionMismatchError(f"operator dim {K} != frame dim {frame.dim}")
    peaks = np.zeros(len(frames) * (2 if von_neumann else 1))
    herm_defect = np.float64(0.0)
    # per point, a sample of H and the two of each frame
    for p0, p1 in _chunks(times.size, (1 + 2 * len(frames)) * K * K * 16):
        samples = _Samples(times[p0:p1])
        hs = _time_last(H.sample(samples))
        blocks = [_time_last(frame._block(samples)) for frame in frames]
        chunk = [_triangularization(hs, *block) for block in blocks]
        if von_neumann:
            with np.errstate(over="ignore"):
                herm_defect = np.maximum(herm_defect,
                                         np.max(np.abs(hs - hs.conj().transpose(1, 0, 2))))
            chunk += [_von_neumann(hs, *block) for block in blocks]
        peaks = np.maximum(peaks, chunk)
    if von_neumann and not herm_defect <= _HERMITIAN_TOL:
        raise NonHermitianError(
            f"generator is not Hermitian on the grid (defect {herm_defect:.3e})")
    return list(peaks)


def triangularization_residual(
    H: TimeDependentOperator, frame: AncillaryFrame, grid
) -> float:
    """Largest above-diagonal magnitude of the rotated generator over the grid.

    A residual at roundoff certifies that the frame triangularizes the
    dynamics, i.e. that the last/first frame vectors are exact ket/bra
    passages.  ``grid`` may be a :class:`TimeGrid` or an array of times,
    which must not straddle discontinuities of ``H`` or the frame.
    """
    return float(_residuals(H, (frame,), grid)[0])


def von_neumann_residual(
    H: TimeDependentOperator, frame: AncillaryFrame, grid
) -> float:
    """Max-entry defect of ``d Pi_k/dt + i [H, Pi_k]`` over grid points and k.

    ``Pi_k = |mu_k><mu_k|`` are the frame projectors.  Only meaningful for
    Hermitian generators, where a vanishing residual is equivalent to the
    triangularization condition; raises :class:`NonHermitianError` if
    ``H`` deviates from Hermiticity beyond 1e-12 on the grid.  A generator
    whose products overflow gives NaN.
    """
    return float(_residuals(H, (frame,), grid, von_neumann=True)[1])
