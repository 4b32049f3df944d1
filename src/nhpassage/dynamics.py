"""State propagation for the paired ket/bra Schrodinger equations.

A K-dimensional system driven by a time-dependent generator ``H(t)`` (not
necessarily Hermitian) obeys two coupled pictures: kets evolve under
``i dpsi/dt = H(t) psi`` and the dual (bra-space) solutions evolve under
``i dphi/dt = H(t)^dag phi``.  Norm is *not* conserved when ``H != H^dag``,
but the mutual overlaps of paired solutions are, which is what makes the
dual picture useful.

Everything here works on plain complex numpy arrays (states are shape
``(K,)`` vectors, operators ``(K, K)`` matrices) at small ``K``; units are
dimensionless with hbar = 1.  A generator is sampled only in batches: its
one callable maps a 1-D array of times to an ``(n, K, K)`` block, as a frame's
maps them to an ``(n, 2, K, K)`` one; one path checks both.
Propagation uses classical fixed-step RK4, which handles non-unitary
generators without any norm-restoring tricks.  Each sweep covers one
smooth stretch of ``H``; a run made of several stages (see
:mod:`nhpassage.scenarios`) sweeps each stage on its own grid and hands
the state across.

Two paths share the scheme.  The batched path serves the propagators
(:func:`propagator_ket`, :func:`biorthogonality_defect`) and the dt/2 re-run
(:func:`evolve_ket_halved`): each RK4 step becomes an increment ``D_n = P_n -
I``, and a blocked prefix scan chains them with the identity implicit, since
``I + D_n`` in float64 loses the low bits of a small ``D_n``; it feeds only
thresholded certificates.  The state sweeps (:func:`evolve_ket`,
:func:`evolve_bra`) keep every sum of an all-numpy step, in its order: the
growing modes of a non-Hermitian generator amplify regrouped rounding (step
matrices moved stage-end populations of a four-loop run by 1.7e-8) past the
1e-12 at which trajectories are compared with recorded references.  The step
runs in Python ``complex`` arithmetic on flat rows of ``-iH`` samples, in a
kernel unrolled for K = 2 and K = 3 and a generic one for other K.  Only the
rounding inside a complex product differs from numpy's fused multiply-add:
sweep states lie within 1.1e-16 of the numpy step's (relative to their
largest entry), and stage-end populations of all 240 benchmark reference
inputs within 5.5e-40 of the recorded ones.

The built-in generators and frames are closed forms (:class:`_Derived`)
over a sample set (:class:`_Samples`), which evaluates each callable of time
they read (a frame angle, a gain, an envelope) and each sine and cosine they
take of one once.  A callable that does not move is a :class:`_Constant`,
served as one element and broadcast; numpy's array loops round it as each
entry (its scalar arithmetic would not: ``**2`` calls ``pow``, a complex
product is not fused), so every number is the per-time one.  Every pass but
the series oracle, which samples its short horizon at once, reads a chunk of
steps at a time (:data:`_CHUNK_BYTES`), and each chunk is a set of its own
on its grid points and midpoints, edges included: a chunk after the first
samples its predecessor's last time again.  A sample is elementwise in time,
so that costs one sample a chunk and moves no number.  The dt/2 re-run
samples ``grid.halved()``'s times, not the midpoints of the sweep's: those
differ by an ulp at 2532 of 16 001 times of a 4000-step stage, which moved
re-run populations 1.3e-10.

The certificate algebra (step increments, ``V^dag U``, the series oracle and
the frame residuals) runs on time-last ``(K, K, n)`` blocks, so numpy's inner
loops run along time: a sampled block is copied once (a built-in frame's is
time-last already), and a sample that feeds the RK4 steps is multiplied by
``-1j`` in that copy, split into contiguous grid and midpoint blocks.  Each
chunk's increments go straight into the prefix scan's blocks, held
block-major, and the scan closes on a contiguous carry a range of block
steps at a time: numpy's einsum runs about twice as fast on contiguous
operands, with the same sums in the same order.  So no pass but
:func:`propagator_ket` holds a whole ``U``, ``V`` or ``V^dag U``; the bra
propagators are ``propagator_ket(H.adjoint(), grid)``.  A chunk's edges
leave every sum and its order, so every number is bitwise the one-block one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add, mul
from typing import Callable, Iterable, Iterator

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    GridError,
    InvalidArgumentError,
    NonFiniteSampleError,
)

__all__ = [
    "TimeGrid",
    "TimeDependentOperator",
    "StateTrajectory",
    "constant_operator",
    "evolve_ket",
    "evolve_bra",
    "evolve_ket_halved",
    "propagator_ket",
    "biorthogonality_defect",
    "dyson_truncation",
]

#: Relative slack when deciding whether a time is an integer number of steps.
_GRID_RTOL = 1e-9

#: Most steps a grid may hold: numpy cannot index an array of more points.
_MAX_STEPS = int(np.iinfo(np.intp).max) - 1


def _as_state(psi, dim: int) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (dim,):
        raise DimensionMismatchError(
            f"state has shape {psi.shape}, expected ({dim},)"
        )
    if not np.all(np.isfinite(psi)):
        raise NonFiniteSampleError("initial state contains NaN or Inf")
    return psi


def _real(name: str, value) -> float:
    """``value`` as a float; :class:`InvalidArgumentError` naming ``name`` if it is
    not a real number, or is NaN or infinite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise InvalidArgumentError(f"{name} must be finite, got {float(value)}")
    return float(value)


#: What a sample block of each rank holds; a frame's stacks matrices and derivatives.
_SAMPLE_KINDS = {3: "generator", 4: "frame"}


def _check_finite_block(block: np.ndarray, times: np.ndarray) -> None:
    """Raise naming the first time whose sample holds a NaN or Inf; one flat
    scan decides, and only a failing block is reduced per time."""
    if np.isfinite(block).all():
        return
    bad = int(np.argmin(np.isfinite(block).reshape(len(times), -1).all(axis=1)))
    raise NonFiniteSampleError(
        f"{_SAMPLE_KINDS[block.ndim]} sample at t = {float(times[bad])!r} contains NaN or Inf"
    )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid with optional declared stage boundaries.

    ``dt`` must divide ``tf - t0`` and every stage-boundary offset.  The
    boundaries mark where the stages of a joined multi-stage trajectory
    meet; a sweep never crosses one, since each stage runs on its own grid.
    """

    t0: float
    tf: float
    dt: float
    stage_boundaries: tuple[float, ...] = ()

    def __post_init__(self):
        if not all(isinstance(x, numbers.Real) for x in (self.t0, self.tf, self.dt)):
            raise GridError(f"tf = {self.tf!r} is not a finite number of steps of {self.dt!r} "
                            f"from t0 = {self.t0!r}: all three must be real numbers")
        if not (self.tf > self.t0):
            raise GridError(f"tf = {self.tf} must exceed t0 = {self.t0}")
        if not (self.dt > 0):
            raise GridError(f"dt = {self.dt} must be positive")
        if self._steps_or_raise(self.tf, "tf") < 1:
            raise GridError("grid must contain at least one step")
        if not isinstance(self.stage_boundaries, Iterable):
            raise GridError(f"stage_boundaries = {self.stage_boundaries!r} is not a finite "
                            f"number of steps of {self.dt} from t0 = {self.t0}: "
                            "it must be a sequence of times")
        bounds = tuple(sorted(self._real_or_raise(b, "stage boundary")
                              for b in self.stage_boundaries))
        for b in bounds:
            if not (self.t0 <= b <= self.tf):
                raise GridError(f"stage boundary {b} outside [{self.t0}, {self.tf}]")
            self._steps_or_raise(b, "stage boundary")
        object.__setattr__(self, "stage_boundaries", bounds)

    def _real_or_raise(self, t, what: str):
        if not isinstance(t, numbers.Real):
            raise GridError(f"{what} = {t!r} is not a finite number of steps of {self.dt} "
                            f"from t0 = {self.t0}: it must be a real number")
        return t

    def _steps_or_raise(self, t: float, what: str) -> int:
        self._real_or_raise(t, what)
        raw = (t - self.t0) / self.dt
        if not math.isfinite(raw):  # a non-finite bound or time, or a step count past float range
            raise GridError(f"{what} = {t} is not a finite number of steps of {self.dt} "
                            f"from t0 = {self.t0}")
        n = round(raw)
        if abs(n) > _MAX_STEPS:
            raise GridError(f"{what} = {t} is {raw:.3g} steps of {self.dt} from t0 = {self.t0}, "
                            f"more than numpy can index ({_MAX_STEPS})")
        if abs(raw - n) > _GRID_RTOL * max(1.0, abs(raw)):
            raise GridError(f"{what} = {t} is not an integer number of steps from t0")
        return n

    @property
    def n_steps(self) -> int:
        return self._steps_or_raise(self.tf, "tf")

    def times(self) -> np.ndarray:
        """All grid points, including both endpoints."""
        return np.linspace(self.t0, self.tf, self.n_steps + 1)

    def index_of(self, t: float) -> int:
        """Grid index of a time that lies on the grid."""
        return self._steps_or_raise(t, "time")

    def halved(self) -> "TimeGrid":
        """Same span and boundaries at half the step; used by convergence checks."""
        return TimeGrid(self.t0, self.tf, self.dt / 2, self.stage_boundaries)


class _Derived:
    """A callable of time given as a closed form ``form(samples)`` over a sample set
    (:class:`_Samples`): called on a time array it builds a set there, and read
    from a set it takes that set's values of the callables it is a form of."""

    __slots__ = ("form",)

    def __init__(self, form: Callable[["_Samples"], np.ndarray]):
        self.form = form

    def __call__(self, ts) -> np.ndarray:
        samples = _Samples(np.asarray(ts, dtype=float))
        return samples.spread(self.form(samples))


class _Constant(_Derived):
    """A callable of time that does not depend on it, ``value`` at every time;
    a sample set serves it as one element (see the module docstring)."""

    def __init__(self, value: float):
        super().__init__(lambda s: np.full((1,) * s.times.ndim, value, dtype=float))


class _Samples:
    """Callables of time evaluated once each on ``times``, however many closed
    forms read them.

    ``samples(f)`` is ``f(times)``: a :class:`_Derived` ``f`` by its form on this
    set (a :class:`_Constant` as one element), any other called once; so are
    the sines and cosines of ``f`` and of ``2 f`` (``sin2``, ``cos2``).  Values
    leave through :meth:`spread`.  A set keeps every value it served, so it
    should die with the work that reads it."""

    def __init__(self, times: np.ndarray):
        self.times = times
        self._memo: dict = {}

    def __len__(self) -> int:
        return self.times.size

    def _get(self, key, f, compute: Callable) -> np.ndarray:
        # keys hold id(f), so any callable may be one; the entry keeps f alive
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = (f, compute(self))
        return entry[1]

    def __call__(self, f: Callable) -> np.ndarray:
        if isinstance(f, _Derived):
            return self._get(id(f), f, f.form)
        return self._get(id(f), f, lambda s: np.asarray(f(s.times)))

    def spread(self, value) -> np.ndarray:
        """``value``, read from this set, given the times' shape if it is one element."""
        shape = self.times.shape
        return np.full(shape, value) if np.shape(value) == (1,) * len(shape) != shape else value

    def sin(self, f: Callable) -> np.ndarray:
        return self._get(("sin", id(f)), f, lambda s: np.sin(s(f)))

    def cos(self, f: Callable) -> np.ndarray:
        return self._get(("cos", id(f)), f, lambda s: np.cos(s(f)))

    def sin2(self, f: Callable) -> np.ndarray:
        return self._get(("sin2", id(f)), f, lambda s: np.sin(2.0 * s(f)))

    def cos2(self, f: Callable) -> np.ndarray:
        return self._get(("cos2", id(f)), f, lambda s: np.cos(2.0 * s(f)))


def _checked_block(values_at: Callable, times, shape: tuple) -> np.ndarray:
    """``values_at`` on ``times``, a time array or a sample set, as one complex block
    of ``shape`` per time, its shape and NaN/Inf checked, and
    :class:`NonFiniteSampleError` naming its first bad time."""
    samples = times if isinstance(times, _Samples) else _Samples(np.asarray(times, dtype=float))
    times = samples.times
    block = np.asarray(samples(values_at), dtype=complex)
    expected = (times.size,) + shape
    if block.shape != expected:
        raise DimensionMismatchError(
            f"{_SAMPLE_KINDS[len(expected)]} samples have shape {block.shape}, "
            f"expected {expected}"
        )
    _check_finite_block(block, times)
    return block


@dataclass(frozen=True)
class TimeDependentOperator:
    """A K x K complex-matrix-valued function of time.

    ``values_at`` evaluates a whole 1-D array of times at once and returns
    ``(n, dim, dim)``; propagation and residual scans sample through it.
    """

    dim: int
    values_at: Callable[[np.ndarray], np.ndarray]

    def sample(self, times) -> np.ndarray:
        """Evaluate at a time array or a sample set (:class:`_Samples`) within one
        smooth stretch: the one checked read of a generator.  A block is checked for
        shape and NaN/Inf, and :class:`NonFiniteSampleError` names its first bad time.
        """
        return _checked_block(self.values_at, times, (self.dim, self.dim))

    def adjoint(self) -> "TimeDependentOperator":
        """The Hermitian conjugate generator t -> H(t)^dag."""
        batch = self.values_at
        return TimeDependentOperator(
            self.dim, _Derived(lambda s: np.conj(np.asarray(s(batch))).transpose(0, 2, 1)))


def constant_operator(matrix) -> TimeDependentOperator:
    """Wrap a fixed matrix as a time-independent generator."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteSampleError("constant operator contains NaN or Inf")
    dim = m.shape[0]
    return TimeDependentOperator(
        dim=dim,
        values_at=lambda ts: np.broadcast_to(m, (np.asarray(ts).size, dim, dim)),
    )


@dataclass(frozen=True)
class StateTrajectory:
    """A propagated state sampled on every grid point.

    ``populations[i, n]`` is ``|states[i, n]|**2`` and ``total_norm[i]`` is
    their sum over levels (the squared 2-norm); both are derived from
    ``states`` on construction, which raises :class:`NonFiniteSampleError`
    at the first time whose squared norm overflows or is not finite.  Treat
    instances as immutable.
    """

    grid: TimeGrid
    times: np.ndarray
    states: np.ndarray
    populations: np.ndarray = field(init=False)
    total_norm: np.ndarray = field(init=False)

    def __post_init__(self):
        with np.errstate(over="ignore", invalid="ignore"):
            pops = np.abs(self.states) ** 2
            total = pops.sum(axis=1)
        finite = np.isfinite(total)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise NonFiniteSampleError(
                f"state at t = {float(self.times[bad])!r} overflows or is not finite"
            )
        object.__setattr__(self, "populations", pops)
        object.__setattr__(self, "total_norm", total)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def vector_norm(self) -> np.ndarray:
        """2-norm of the state at each grid point, sqrt of ``total_norm``."""
        return np.sqrt(self.total_norm)


def _sample_times(times: np.ndarray) -> np.ndarray:
    """Interleave grid points and RK4 midpoints."""
    out = np.empty(2 * times.size - 1)
    out[0::2] = times
    out[1::2] = 0.5 * (times[:-1] + times[1:])
    return out


#: Samples a sweep reads into Python rows at a time, 55 kB (K = 2) to 0.1 MB (K = 3)
#: of Python objects; 1024 raised the benchmark's peak RSS on ``verify_export`` 0.3 MB.
_ROW_CHUNK = 256


def _rk4_steps_2(rows: Iterator[list], h: complex, h2: complex, h6: complex, y: list) -> list:
    """RK4 steps for K = 2 on Python ``complex`` locals, states flattened."""
    y0, y1 = y
    out = []
    s = next(rows)
    for (m00, m01, m10, m11), e in zip(rows, rows):
        s00, s01, s10, s11 = s
        a0 = s00 * y0 + s01 * y1; a1 = s10 * y0 + s11 * y1
        u0 = y0 + h2 * a0; u1 = y1 + h2 * a1
        b0 = m00 * u0 + m01 * u1; b1 = m10 * u0 + m11 * u1
        u0 = y0 + h2 * b0; u1 = y1 + h2 * b1
        c0 = m00 * u0 + m01 * u1; c1 = m10 * u0 + m11 * u1
        u0 = y0 + h * c0; u1 = y1 + h * c1
        e00, e01, e10, e11 = s = e
        d0 = e00 * u0 + e01 * u1; d1 = e10 * u0 + e11 * u1
        y0 = y0 + h6 * (a0 + 2.0 * (b0 + c0) + d0)
        y1 = y1 + h6 * (a1 + 2.0 * (b1 + c1) + d1)
        out += (y0, y1)
    return out


def _rk4_steps_3(rows: Iterator[list], h: complex, h2: complex, h6: complex, y: list) -> list:
    """RK4 steps for K = 3 on Python ``complex`` locals, states flattened."""
    y0, y1, y2 = y
    out = []
    s = next(rows)
    for (m00, m01, m02, m10, m11, m12, m20, m21, m22), e in zip(rows, rows):
        s00, s01, s02, s10, s11, s12, s20, s21, s22 = s
        a0 = s00 * y0 + s01 * y1 + s02 * y2
        a1 = s10 * y0 + s11 * y1 + s12 * y2
        a2 = s20 * y0 + s21 * y1 + s22 * y2
        u0 = y0 + h2 * a0; u1 = y1 + h2 * a1; u2 = y2 + h2 * a2
        b0 = m00 * u0 + m01 * u1 + m02 * u2
        b1 = m10 * u0 + m11 * u1 + m12 * u2
        b2 = m20 * u0 + m21 * u1 + m22 * u2
        u0 = y0 + h2 * b0; u1 = y1 + h2 * b1; u2 = y2 + h2 * b2
        c0 = m00 * u0 + m01 * u1 + m02 * u2
        c1 = m10 * u0 + m11 * u1 + m12 * u2
        c2 = m20 * u0 + m21 * u1 + m22 * u2
        u0 = y0 + h * c0; u1 = y1 + h * c1; u2 = y2 + h * c2
        e00, e01, e02, e10, e11, e12, e20, e21, e22 = s = e
        d0 = e00 * u0 + e01 * u1 + e02 * u2
        d1 = e10 * u0 + e11 * u1 + e12 * u2
        d2 = e20 * u0 + e21 * u1 + e22 * u2
        y0 = y0 + h6 * (a0 + 2.0 * (b0 + c0) + d0)
        y1 = y1 + h6 * (a1 + 2.0 * (b1 + c1) + d1)
        y2 = y2 + h6 * (a2 + 2.0 * (b2 + c2) + d2)
        out += (y0, y1, y2)
    return out


def _rk4_steps_any(rows: Iterator[list], h: complex, h2: complex, h6: complex, y: list) -> list:
    """RK4 steps for any K on lists of Python ``complex``, states flattened; the
    K = 2 and K = 3 kernels unroll exactly these operations."""
    K = len(y)

    def matvec(g: list, v: list) -> list:  # each entry summed from the left
        return [reduce(add, map(mul, g[i:i + K], v)) for i in range(0, K * K, K)]

    out = []
    s = next(rows)
    for m, e in zip(rows, rows):
        a = matvec(s, y)
        b = matvec(m, [yi + h2 * ai for yi, ai in zip(y, a)])
        c = matvec(m, [yi + h2 * bi for yi, bi in zip(y, b)])
        d = matvec(e, [yi + h * ci for yi, ci in zip(y, c)])
        y = [yi + h6 * (ai + 2.0 * (bi + ci) + di) for yi, ai, bi, ci, di in zip(y, a, b, c, d)]
        out += y
        s = e
    return out


def _rk4_sweep(H: TimeDependentOperator, grid: TimeGrid, y0: np.ndarray,
               bra: bool = False) -> np.ndarray:
    """Integrate dy/dt = -i H(t) y, or for ``bra`` dy/dt = -i H(t)^dag y, for a
    state vector, one RK4 step at a time in Python ``complex`` arithmetic, in a
    kernel chosen by ``K = y0.size`` (unrolled for K = 2 and K = 3,
    bit-identical to the generic one).

    Each matvec entry sums ``(g_i0 y_0 + g_i1 y_1) + g_i2 y_2`` from the left
    and the update is ``y + h/6 (k1 + 2 (k2 + k3) + k4)``: the sums of an
    all-numpy step in its order, which the growing modes make matter (see the
    module docstring); only the rounding inside a complex product differs,
    numpy's ``re = fl(ar*br - fl(ai*bi))`` against Python's two rounded
    products.  Each step's end sample is the next step's start.

    It samples ``H`` a chunk of steps at a time (:func:`_chunks`), each chunk
    on its own grid points and midpoints, first point included, and runs the
    kernel from the state the previous chunk wrote; a bra sweep reads each
    chunk conjugate-transposed as it converts it, so no adjoint copy is made.
    """
    times, K = grid.times(), y0.size
    # Python complex operands skip float.__mul__'s NotImplemented; the same bits
    h, h2, h6 = complex(grid.dt), complex(0.5 * grid.dt), complex(grid.dt / 6.0)
    steps = {2: _rk4_steps_2, 3: _rk4_steps_3}.get(K, _rk4_steps_any)
    out = np.empty((times.size, K), dtype=complex)
    out[0] = y0
    for s0, s1 in _chunks(grid.n_steps, 2 * K * K * 16):
        gs = H.sample(_sample_times(times[s0:s1 + 1]))
        # -iH, or -iH^dag, as flat rows of Python complex, a piece at a time
        rows = chain.from_iterable(
            (-1j * (np.conj(p).transpose(0, 2, 1) if bra else p)).reshape(-1, K * K).tolist()
            for p in (gs[i:i + _ROW_CHUNK] for i in range(0, len(gs), _ROW_CHUNK)))
        # an overflowing run is reported once, by StateTrajectory, at its first bad time
        out[s0 + 1:s1 + 1] = np.reshape(steps(rows, h, h2, h6, out[s0].tolist()), (s1 - s0, K))
    return out


def _time_last(block: np.ndarray) -> np.ndarray:
    """An ``(n, K, K)`` sample block as a contiguous ``(K, K, n)`` one; a frame's
    ``(n, 2, K, K)`` block becomes the matrices' and the derivatives' stacked."""
    return np.ascontiguousarray(np.moveaxis(block, 0, -1))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the leading two axes of time-last blocks."""
    return np.einsum("ij...,jk...->ik...", a, b)


#: Bytes of samples a sweep or certificate reads at a time, about 512 KiB: a
#: chunk of steps is sized by it, so no pass holds a whole stage's samples,
#: increments or propagators, and a two-level chunk stays long.
_CHUNK_BYTES = 1 << 19


def _chunks(n_steps: int, bytes_per_step: int) -> Iterator[tuple[int, int]]:
    """Contiguous step ranges ``[s0, s1)`` covering ``n_steps`` steps, each of
    at most :data:`_CHUNK_BYTES` at ``bytes_per_step``, and at least one step."""
    size = max(1, _CHUNK_BYTES // bytes_per_step)
    for s0 in range(0, n_steps, size):
        yield s0, min(n_steps, s0 + size)


def _scan_blocks(n: int, K: int) -> np.ndarray:
    """Zeroed scan blocks of an ``n``-point grid: ``nb`` blocks of ``m =
    int(sqrt(n))`` points, block-major, ``F[j]`` the contiguous ``(K, K, nb)``
    stack of point ``j`` of every block; point 0 and the padding past the
    grid's end stay zero.  Another ``m`` would regroup the rounding."""
    m = max(1, int(np.sqrt(n)))
    return np.zeros((m, K, K, -(-n // m)), dtype=complex)


def _put(F: np.ndarray, i: int, inc: np.ndarray) -> None:
    """Write the time-last ``(K, K, c)`` increments ``inc`` of steps ``i`` to
    ``i + c - 1`` into the scan blocks ``F``: increment ``i`` goes to point
    ``i + 1``, and point ``p`` is point ``p % m`` of block ``p // m``."""
    p = np.arange(i + 1, i + 1 + inc.shape[-1])
    F[p % len(F), :, :, p // len(F)] = np.moveaxis(inc, -1, 0)


def _scan(F: np.ndarray) -> np.ndarray:
    """Advance the scan blocks ``F`` (:func:`_scan_blocks`), every increment
    written, all at once and in place by ``F_j = E_j + F_{j-1} + E_j F_{j-1}``;
    returns ``F``."""
    for j in range(1, len(F)):
        step = _mul(F[j], F[j - 1])
        np.add(F[j], np.add(F[j - 1], step, out=step), out=F[j])
    return F


def _carry(F: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """Each block's start ``c_i`` from a ``(K,)`` state or ``(K, K)`` matrix
    ``u0``, by the short chain ``c_{i+1} = c_i + F_end c_i`` over the block
    ends, as a contiguous ``(K, X, nb)`` block (``X`` 1 for a state)."""
    K, nb = F.shape[1], F.shape[-1]
    ends = np.moveaxis(F[-1], -1, 0)
    carry = np.empty((nb,) + u0.shape, dtype=complex)
    carry[0] = u0
    for i in range(1, nb):
        carry[i] = carry[i - 1] + ends[i - 1] @ carry[i - 1]
    return np.ascontiguousarray(np.moveaxis(carry.reshape(nb, K, -1), 0, -1))


def _close(F: np.ndarray, c: np.ndarray, j0: int, j1: int) -> np.ndarray:
    """The products at steps ``j0 <= j < j1`` of every block, ``c + F[j] c``, as
    an ``(j1 - j0, K, X, nb)`` block; the step range is contiguous in ``F``."""
    out = np.einsum("milb,lkb->mikb", F[j0:j1], c)
    return np.add(c, out, out=out)


def _products(F: np.ndarray, u0: np.ndarray, n: int) -> np.ndarray:
    """``out[..., i] = (I + E_{i-1}) ... (I + E_0) u0`` on every point of the
    ``n``-point grid whose scan blocks :func:`_scan` advanced, for a ``(K,)``
    state or ``(K, K)`` matrix ``u0``; returns ``u0.shape + (n,)``.

    The identity stays implicit: a short carry chains the block ends from
    ``u0`` (:func:`_carry`), and batched products give every output as ``c +
    F c`` (:func:`_close`), a contiguous range of block steps at a time,
    written into one array (see the module docstring for the layout).
    """
    m, K, _, nb = F.shape
    c = _carry(F, u0)
    out = np.empty(c.shape + (m,), dtype=complex)
    for j0, j1 in _chunks(m, c.size * 16):
        out[..., j0:j1] = _close(F, c, j0, j1).transpose(1, 2, 3, 0)
    return out.reshape(K, -1, nb * m)[..., :n].reshape(u0.shape + (n,))


def _increments(hs: np.ndarray, dt: float, bra: bool = False) -> np.ndarray:
    """RK4 step increments ``D_n = P_n - I = dt/6 (K1 + 2 K2 + 2 K3 + K4)`` of ``c``
    steps, as one time-last ``(K, K, c)`` block, from the ``(2 c + 1, K, K)``
    samples ``hs`` of ``H`` at their points and midpoints: under ``-iH``, or, for
    ``bra``, under ``-iH^dag = -(-iH)^dag``.

    ``-1j * hs`` (exact) is written in one pass into contiguous time-last blocks
    of each step's start, midpoint and end, ``g1``, ``g2``, ``g3``; one RK4 step
    of a linear equation maps ``y`` to ``y + D_n y``.  ``K2 = g2 + dt/2 g2 g1``,
    ``K3 = g2 + dt/2 g2 K2``, ``K4 = g3 + dt g3 K3`` and ``D_n`` are built in
    place, operands in that order.
    """
    g, g2 = (np.multiply(-1j, p, out=np.empty(p.shape, dtype=complex))
             for p in (np.moveaxis(hs[r::2], 0, -1) for r in (0, 1)))
    if bra:  # negated and conjugated in place, then transposed
        g, g2 = (np.negative(np.conj(x, out=x), out=x).transpose(1, 0, 2) for x in (g, g2))
    g1, g3 = g[..., :-1], g[..., 1:]
    k2 = _mul(g2, g1)
    np.add(g2, np.multiply(0.5 * dt, k2, out=k2), out=k2)
    k3 = _mul(g2, k2)
    np.add(g2, np.multiply(0.5 * dt, k3, out=k3), out=k3)
    k4 = _mul(g3, k3)
    np.add(g3, np.multiply(dt, k4, out=k4), out=k4)
    d = np.multiply(2.0, np.add(k2, k3, out=k2), out=k2)
    np.add(np.add(g1, d, out=d), k4, out=d)
    return np.multiply(dt / 6.0, d, out=d)


def evolve_ket(H: TimeDependentOperator, psi0, grid: TimeGrid) -> StateTrajectory:
    """Solve ``i dpsi/dt = H(t) psi`` with fixed-step RK4.

    The trajectory starts exactly at ``psi0``; its accuracy is the
    integrator's fourth order in ``grid.dt``.  Norm is free to drift when
    ``H`` is non-Hermitian.
    """
    psi0 = _as_state(psi0, H.dim)
    states = _rk4_sweep(H, grid, psi0)
    return StateTrajectory(grid=grid, times=grid.times(), states=states)


def evolve_bra(H: TimeDependentOperator, phi0, grid: TimeGrid) -> StateTrajectory:
    """Solve the dual equation ``i dphi/dt = H(t)^dag phi``.

    The returned vectors are ket-space representations of the bra-space
    solutions: gain and loss swap roles relative to :func:`evolve_ket`.
    ``H`` is sampled as for :func:`evolve_ket` and read conjugate-transposed.
    """
    states = _rk4_sweep(H, grid, _as_state(phi0, H.dim), bra=True)
    return StateTrajectory(grid=grid, times=grid.times(), states=states)


def evolve_ket_halved(H: TimeDependentOperator, psi0, grid: TimeGrid) -> StateTrajectory:
    """The RK4 run of :func:`evolve_ket` at step ``grid.dt / 2``, on the points of ``grid``.

    It samples ``H`` on the times of ``grid.halved()`` a chunk of steps at a
    time, each chunk on its own half-grid points and midpoints, first point
    included.  Each step of ``grid`` is two half steps, whose increments pair
    into ``E = D_0 + D_1 + D_1 D_0``, so ``I + E = (I + D_1)(I + D_0)`` with no
    ``I + small`` formed, and the blocked scan of :func:`_scan` and
    :func:`_products` chains the pairs; no whole stage of samples or
    increments is held.  Raises :class:`NonFiniteSampleError` at the first
    grid time whose state overflows, as :class:`StateTrajectory` does.
    """
    psi0 = _as_state(psi0, H.dim)
    n, times = grid.n_steps + 1, grid.halved().times()
    F = _scan_blocks(n, H.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for s0, s1 in _chunks(grid.n_steps, 4 * H.dim * H.dim * 16):
            d = _increments(H.sample(_sample_times(times[2 * s0:2 * s1 + 1])), grid.dt / 2)
            d0, d1 = d[..., 0::2], d[..., 1::2]
            pairs = _mul(d1, d0)
            _put(F, s0, np.add(np.add(d0, d1, out=d0), pairs, out=pairs))
        states = _products(_scan(F), psi0, n).T
    return StateTrajectory(grid=grid, times=grid.times(), states=states)


def propagator_ket(H: TimeDependentOperator, grid: TimeGrid) -> np.ndarray:
    """Time-evolution operators U0(t) on every grid point, U0(t0) = identity.

    Columns evolve like :func:`evolve_ket` runs from the corresponding
    basis vectors (to rounding); shape ``(n_steps + 1, K, K)``.  The dual-space
    propagators ``V0(t)`` are ``propagator_ket(H.adjoint(), grid)``.
    """
    n, times = grid.n_steps + 1, grid.times()
    F = _scan_blocks(n, H.dim)
    for s0, s1 in _chunks(grid.n_steps, 2 * H.dim * H.dim * 16):
        _put(F, s0, _increments(H.sample(_sample_times(times[s0:s1 + 1])), grid.dt))
    U = _products(_scan(F), np.eye(H.dim, dtype=complex), n)
    return np.moveaxis(U, -1, 0)


def biorthogonality_defect(H: TimeDependentOperator, grid: TimeGrid) -> float:
    """Max-entry deviation of ``V0(t)^dag U0(t)`` from the identity over the grid.

    Paired ket/bra evolutions keep mutual overlaps frozen, so this defect
    isolates integrator error; it should sit at the integrator's accuracy
    regardless of how non-Hermitian ``H`` is.  ``H`` is sampled a chunk of
    steps at a time, and the bra steps read each chunk conjugate-transposed.
    """
    K, n, times = H.dim, grid.n_steps + 1, grid.times()
    FU, FV = _scan_blocks(n, K), _scan_blocks(n, K)
    for s0, s1 in _chunks(grid.n_steps, 2 * K * K * 16):
        hs = H.sample(_sample_times(times[s0:s1 + 1]))
        for F, bra in ((FU, False), (FV, True)):
            _put(F, s0, _increments(hs, grid.dt, bra))
    return _defect(FU, FV, n)


def _defect(FU: np.ndarray, FV: np.ndarray, n: int) -> float:
    """:func:`biorthogonality_defect` from the scan blocks of an ``n``-point
    grid's ket and bra increments, every increment written.

    Both scans are closed together over a contiguous range of steps of every
    block at a time, and only the running maximum is kept, so no whole ``U``,
    ``V`` or ``V^dag U`` is formed.
    """
    K = FU.shape[1]
    eye = np.eye(K, dtype=complex)
    cU, cV = _carry(_scan(FU), eye), _carry(_scan(FV), eye)
    m, nb = FU.shape[0], FU.shape[-1]
    last = n - (nb - 1) * m  # steps of the last block that lie on the grid
    diag = np.arange(K)
    worst = np.float64(0.0)
    for j0, j1 in _chunks(m, K * K * 16 * nb):
        V = _close(FV, cV, j0, j1)
        prod = np.einsum("mjib,mjkb->mikb", np.conj(V, out=V), _close(FU, cU, j0, j1))
        del V
        prod[:, diag, diag] -= 1.0
        dev = np.abs(prod)
        dev[max(0, last - j0):, ..., -1] = 0.0  # the padding past the grid's end
        worst = np.maximum(worst, np.max(dev))  # NaN propagates, as one max over the grid
    return float(worst)


def dyson_truncation(
    H: TimeDependentOperator,
    t: float,
    order: int,
    quadrature_steps: int,
    t0: float = 0.0,
) -> np.ndarray:
    """Partial sum of the time-ordered series for the ket propagator.

    Terms 0..``order`` of the expansion of ``U0(t)`` are nested integrals
    ``S_k(s) = int_t0^s (-i H) S_{k-1}``, ``S_0 = I``, each evaluated on
    ``quadrature_steps + 1`` equally spaced nodes (an even count of steps)
    by a cumulative composite Simpson rule: ``h/3 (f0 + 4 f1 + f2)`` per
    panel up to the even nodes, and the three-point rule
    ``h/12 (5 f0 + 8 f1 - f2)`` from each even node to the next odd one.
    For a constant generator every integrand up to order 4 is a cubic,
    which both rules integrate exactly, so the sum is the Taylor polynomial
    of ``exp(-i H (t - t0))`` up to rounding at any node count; for a
    time-dependent ``H`` the quadrature error is O(h^4).  Useful as an
    independent short-horizon oracle: against an accurate propagator the
    residual shrinks as O((t - t0)^(order + 1)).
    """
    for name, value in (("order", order), ("quadrature_steps", quadrature_steps)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    t, t0 = _real("t", t), _real("t0", t0)
    if order < 0:
        raise InvalidArgumentError(f"order must be >= 0, got {order}")
    if quadrature_steps < 2 or quadrature_steps % 2:
        raise InvalidArgumentError(
            f"quadrature_steps must be even and >= 2, got {quadrature_steps}")
    if t < t0:
        raise InvalidArgumentError(f"t = {t} precedes t0 = {t0}")
    K = H.dim
    total = np.eye(K, dtype=complex)
    if order == 0 or t == t0:
        return total
    n = int(quadrature_steps)
    h = (t - t0) / n
    gs = _time_last((-1j * h) * H.sample(t0 + h * np.arange(n + 1)))
    # s[..., j] approximates the k-fold nested integral up to node j
    s = np.broadcast_to(np.eye(K, dtype=complex)[..., None], (K, K, n + 1))
    for _ in range(order):
        f = _mul(gs, s)
        f0, f1, f2 = f[..., 0:-1:2], f[..., 1::2], f[..., 2::2]
        s = np.empty((K, K, n + 1), dtype=complex)
        s[..., 0] = 0.0
        np.cumsum((f0 + 4.0 * f1 + f2) / 3.0, axis=-1, out=s[..., 2::2])
        s[..., 1::2] = s[..., 0:-1:2] + (5.0 * f0 + 8.0 * f1 - f2) / 12.0
        total = total + s[..., n]
    return total
