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
one callable maps a 1-D array of times to an ``(n, K, K)`` block.
Propagation uses classical fixed-step RK4, which handles non-unitary
generators without any norm-restoring tricks.  Each sweep covers one
smooth stretch of ``H``; a run made of several stages (see
:mod:`nhpassage.scenarios`) sweeps each stage on its own grid and hands
the state across.

Two paths share the scheme.  The batched path serves the propagators
(:func:`propagator_ket`, :func:`propagator_bra`, :func:`biorthogonality_defect`)
and the dt/2 re-run of a run's step check (:func:`evolve_ket_halved`): each
RK4 step becomes an increment ``D_n = P_n - I`` in one numpy expression, and a
blocked prefix scan chains them with the identity implicit, since ``I + D_n``
rounded in float64 loses the low bits of the small ``D_n``.  It feeds only
thresholded certificates and lands closer to exact RK4 arithmetic than a
sweep.  The state sweeps (:func:`evolve_ket`, :func:`evolve_bra`) keep the
exact operations and order of an all-numpy step: the growing modes of a
non-Hermitian generator amplify any regrouped rounding (to ~1e-8 in
stage-end populations over multi-loop runs), and trajectories are compared
against recorded reference populations at 1e-12.  For K = 2 and K = 3 an
unrolled kernel keeps the state in Python ``complex`` locals and sends only
the matvecs, whose FMA rounding Python's complex multiply does not match, to
numpy through two length-K buffers made once per sweep; other K run the
plain all-numpy step.

A run's sweep and certificates read one table per stage of the generator on
the grid and RK4 midpoints (:meth:`TimeDependentOperator.tabulated`).  The
dt/2 re-run keeps its own samples: the table's times halved again differ
from ``grid.halved()``'s by an ulp at 2532 of 16 001 times of a 4000-step
stage, and serving them moved re-run populations by 1.3e-10.

The certificate algebra (step increments, ``V^dag U``, the series oracle and
the frame residuals) copies each sampled ``(n, K, K)`` block once into a
time-last ``(K, K, n)`` one, so numpy's inner loops run along time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

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
    "propagator_bra",
    "biorthogonality_defect",
    "dyson_truncation",
]

#: Relative slack when deciding whether a time is an integer number of steps.
_GRID_RTOL = 1e-9


def _as_state(psi, dim: int) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (dim,):
        raise DimensionMismatchError(
            f"state has shape {psi.shape}, expected ({dim},)"
        )
    if not np.all(np.isfinite(psi)):
        raise NonFiniteSampleError("initial state contains NaN or Inf")
    return psi


def _check_finite_block(block: np.ndarray, times: np.ndarray) -> None:
    finite = np.isfinite(block).all(axis=(1, 2))
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NonFiniteSampleError(
            f"generator sample at t = {float(times[bad])!r} contains NaN or Inf"
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
        if not (self.tf > self.t0):
            raise GridError(f"tf = {self.tf} must exceed t0 = {self.t0}")
        if not (self.dt > 0):
            raise GridError(f"dt = {self.dt} must be positive")
        if self._steps_or_raise(self.tf, "tf") < 1:
            raise GridError("grid must contain at least one step")
        bounds = tuple(sorted(self.stage_boundaries))
        for b in bounds:
            if not (self.t0 <= b <= self.tf):
                raise GridError(f"stage boundary {b} outside [{self.t0}, {self.tf}]")
            self._steps_or_raise(b, "stage boundary")
        object.__setattr__(self, "stage_boundaries", bounds)

    def _steps_or_raise(self, t: float, what: str) -> int:
        raw = (t - self.t0) / self.dt
        n = round(raw)
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


def _tabulated(batch: Callable[[np.ndarray], np.ndarray], times: np.ndarray) -> Callable:
    """``batch`` evaluated once on ``times``: a request for exactly those times, or a
    subset matched by exact float equality, is served read-only from the table, and
    any other request evaluates ``batch``, so every caller gets the same floats."""
    times = np.asarray(times, dtype=float)
    table = np.asarray(batch(times)).view()
    table.flags.writeable = False

    def lookup(ts):
        ts = np.asarray(ts, dtype=float)
        if np.array_equal(ts, times):
            return table
        rows = np.minimum(np.searchsorted(times, ts), times.size - 1)
        if not np.array_equal(times[rows], ts):
            return batch(ts)
        block = table[rows]
        block.flags.writeable = False
        return block

    return lookup


@dataclass(frozen=True)
class TimeDependentOperator:
    """A K x K complex-matrix-valued function of time.

    ``values_at`` evaluates a whole 1-D array of times at once and returns
    ``(n, dim, dim)``; propagation and residual scans sample through it.
    """

    dim: int
    values_at: Callable[[np.ndarray], np.ndarray]

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Evaluate at an array of times lying within one smooth stretch."""
        times = np.asarray(times, dtype=float)
        block = np.asarray(self.values_at(times), dtype=complex)
        if block.shape != (times.size, self.dim, self.dim):
            raise DimensionMismatchError(
                f"operator samples have shape {block.shape}, expected "
                f"({times.size}, {self.dim}, {self.dim})"
            )
        _check_finite_block(block, times)
        return block

    def tabulated(self, times: np.ndarray) -> "TimeDependentOperator":
        """This generator evaluated once on ``times``; see :func:`_tabulated`."""
        return TimeDependentOperator(self.dim, _tabulated(self.values_at, times))

    def adjoint(self) -> "TimeDependentOperator":
        """The Hermitian conjugate generator t -> H(t)^dag."""
        batch = self.values_at
        return TimeDependentOperator(
            dim=self.dim,
            values_at=lambda ts: np.conj(np.asarray(batch(ts))).transpose(0, 2, 1),
        )


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


def _rk4_steps_2(gs, h: float, h2: float, h6: float, y: list) -> list:
    """RK4 steps for K = 2 on Python ``complex`` locals, states flattened."""
    y0, y1 = y
    v, w = np.array(y, dtype=complex), np.empty(2, dtype=complex)
    rows = []
    for g1, g2, g3 in zip(gs[0:-1:2], gs[1::2], gs[2::2]):
        a0, a1 = g1.dot(v, w).tolist()
        v[0] = y0 + h2 * a0; v[1] = y1 + h2 * a1
        b0, b1 = g2.dot(v, w).tolist()
        v[0] = y0 + h2 * b0; v[1] = y1 + h2 * b1
        c0, c1 = g2.dot(v, w).tolist()
        v[0] = y0 + h * c0; v[1] = y1 + h * c1
        d0, d1 = g3.dot(v, w).tolist()
        y0 = v[0] = y0 + h6 * (a0 + 2.0 * (b0 + c0) + d0)
        y1 = v[1] = y1 + h6 * (a1 + 2.0 * (b1 + c1) + d1)
        rows += (y0, y1)
    return rows


def _rk4_steps_3(gs, h: float, h2: float, h6: float, y: list) -> list:
    """RK4 steps for K = 3 on Python ``complex`` locals, states flattened."""
    y0, y1, y2 = y
    v, w = np.array(y, dtype=complex), np.empty(3, dtype=complex)
    rows = []
    for g1, g2, g3 in zip(gs[0:-1:2], gs[1::2], gs[2::2]):
        a0, a1, a2 = g1.dot(v, w).tolist()
        v[0] = y0 + h2 * a0; v[1] = y1 + h2 * a1; v[2] = y2 + h2 * a2
        b0, b1, b2 = g2.dot(v, w).tolist()
        v[0] = y0 + h2 * b0; v[1] = y1 + h2 * b1; v[2] = y2 + h2 * b2
        c0, c1, c2 = g2.dot(v, w).tolist()
        v[0] = y0 + h * c0; v[1] = y1 + h * c1; v[2] = y2 + h * c2
        d0, d1, d2 = g3.dot(v, w).tolist()
        y0 = v[0] = y0 + h6 * (a0 + 2.0 * (b0 + c0) + d0)
        y1 = v[1] = y1 + h6 * (a1 + 2.0 * (b1 + c1) + d1)
        y2 = v[2] = y2 + h6 * (a2 + 2.0 * (b2 + c2) + d2)
        rows += (y0, y1, y2)
    return rows


def _rk4_steps_any(gs, h: float, h2: float, h6: float, y: list) -> list:
    """RK4 steps for any K by the plain all-numpy step, one state per step."""
    y = np.array(y, dtype=complex)
    rows = []
    for g1, g2, g3 in zip(gs[0:-1:2], gs[1::2], gs[2::2]):
        k1 = g1.dot(y)
        k2 = g2.dot(y + h2 * k1)
        k3 = g2.dot(y + h2 * k2)
        k4 = g3.dot(y + h * k3)
        y = y + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        rows.append(y)
    return rows


def _rk4_sweep(H: TimeDependentOperator, grid: TimeGrid, y0: np.ndarray) -> np.ndarray:
    """Integrate dy/dt = -i H(t) y for a state vector, one RK4 step at a time.

    The steps run in a kernel chosen by ``K = y0.size``: for K = 2
    and K = 3 the state is Python ``complex`` locals and only the four
    ``(K, K) . (K,)`` matvecs of a step go through numpy (``g.dot(v, w)``
    on two buffers), since numpy's
    complex multiply rounds each part by a fused multiply-add,
    ``re = fl(ar*br - fl(ai*bi))``, and Python's (without ``math.fma``
    before 3.13) does not.  The rest rounds as in numpy, so the unrolled
    steps are bit-identical to the all-numpy step that every other K runs.
    """
    times = grid.times()
    h, h2, h6 = grid.dt, 0.5 * grid.dt, grid.dt / 6.0
    steps = {2: _rk4_steps_2, 3: _rk4_steps_3}.get(y0.size, _rk4_steps_any)
    gs = -1j * H.sample(_sample_times(times))
    out = np.empty((times.size, y0.size), dtype=complex)
    out[0] = y0
    # an overflowing run is reported once, by StateTrajectory, at its first bad time
    with np.errstate(over="ignore", invalid="ignore"):
        out[1:] = np.reshape(steps(gs, h, h2, h6, y0.tolist()), (times.size - 1, y0.size))
    return out


def _time_last(block: np.ndarray) -> np.ndarray:
    """An ``(n, K, K)`` sample block as a contiguous ``(K, K, n)`` one."""
    return np.ascontiguousarray(np.moveaxis(block, 0, -1))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the leading two axes of time-last blocks."""
    return np.einsum("ij...,jk...->ik...", a, b)


def _step_increments(gs: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step increments ``D_n = P_n - I = dt/6 (K1 + 2 K2 + 2 K3 + K4)`` of one grid.

    ``gs`` is the time-last ``(K, K, 2n+1)`` block of ``-iH`` on the
    interleaved grid/midpoint times of :func:`_sample_times`; one RK4 step
    of a linear equation maps ``y`` to ``y + D_n y``.  Returns ``(K, K, n)``.
    """
    g1, g2, g3 = gs[..., 0:-1:2], gs[..., 1::2], gs[..., 2::2]
    k2 = g2 + (0.5 * dt) * _mul(g2, g1)
    k3 = g2 + (0.5 * dt) * _mul(g2, k2)
    k4 = g3 + dt * _mul(g3, k3)
    return (dt / 6.0) * (g1 + 2.0 * (k2 + k3) + k4)


def _prefix_products(incs: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """``out[..., i] = (I + E_{i-1}) ... (I + E_0) u0`` by a blocked scan on increments.

    ``incs`` holds the time-last ``(K, K, n)`` increments and ``u0`` is a
    ``(K,)`` state or a ``(K, K)`` matrix; returns ``u0.shape + (n+1,)``.
    The identity stays implicit.  Zero-padded blocks of about sqrt(n) steps
    advance at once by ``F_j = E_j + F_{j-1} + E_j F_{j-1}``, a short carry
    ``c_{i+1} = c_i + F_i c_i`` chains the block ends from ``u0``, and one
    batched product gives every output as ``c + F c``.
    """
    K, n = incs.shape[0], incs.shape[-1] + 1
    m = max(1, int(np.sqrt(n)))
    nb = -(-n // m)
    padded = np.zeros((K, K, nb * m), dtype=complex)
    padded[..., 1:n] = incs
    F = np.ascontiguousarray(padded.reshape(K, K, nb, m).transpose(0, 1, 3, 2))
    for j in range(1, m):
        F[:, :, j] += F[:, :, j - 1] + _mul(F[:, :, j], F[:, :, j - 1])
    ends = np.moveaxis(F[:, :, -1], -1, 0)
    carry = np.empty((nb,) + u0.shape, dtype=complex)
    carry[0] = u0
    for i in range(1, nb):
        carry[i] = carry[i - 1] + ends[i - 1] @ carry[i - 1]
    c = np.moveaxis(carry.reshape(nb, K, -1), 0, -1)[:, :, None]
    out = (c + _mul(F, c)).transpose(0, 1, 3, 2).reshape(K, -1, nb * m)
    return out[..., :n].reshape(u0.shape + (n,))


def _propagators(
    H: TimeDependentOperator, grid: TimeGrid, with_bra: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Ket propagators of ``H`` on every grid point and, if asked, the bra ones.

    ``H`` is sampled once; the bra steps reuse that block
    conjugate-transposed, since ``-i H^dag = -(-i H)^dag``.
    """
    eye = np.eye(H.dim, dtype=complex)
    gs = _time_last(-1j * H.sample(_sample_times(grid.times())))
    U = np.moveaxis(_prefix_products(_step_increments(gs, grid.dt), eye), -1, 0)
    if not with_bra:
        return U, None
    gs_bra = -gs.conj().transpose(1, 0, 2)
    return U, np.moveaxis(_prefix_products(_step_increments(gs_bra, grid.dt), eye), -1, 0)


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
    """
    return evolve_ket(H.adjoint(), phi0, grid)


def evolve_ket_halved(H: TimeDependentOperator, psi0, grid: TimeGrid) -> StateTrajectory:
    """The RK4 run of :func:`evolve_ket` at step ``grid.dt / 2``, on the points of ``grid``.

    It samples what ``evolve_ket(H, psi0, grid.halved())`` samples, pairs
    each two half-step increments into one, ``E = D_0 + D_1 + D_1 D_0``
    (so ``I + E = (I + D_1)(I + D_0)`` with no ``I + small`` formed), and
    chains them by the blocked scan of :func:`_prefix_products`.  Raises
    :class:`NonFiniteSampleError` at the first grid time whose state
    overflows, as :class:`StateTrajectory` does.
    """
    psi0 = _as_state(psi0, H.dim)
    half = grid.halved()
    gs = _time_last(-1j * H.sample(_sample_times(half.times())))
    with np.errstate(over="ignore", invalid="ignore"):
        d = _step_increments(gs, half.dt)
        pairs = d[..., 0::2] + d[..., 1::2] + _mul(d[..., 1::2], d[..., 0::2])
        states = _prefix_products(pairs, psi0).T
    return StateTrajectory(grid=grid, times=grid.times(), states=states)


def propagator_ket(H: TimeDependentOperator, grid: TimeGrid) -> np.ndarray:
    """Time-evolution operators U0(t) on every grid point, U0(t0) = identity.

    Columns evolve like :func:`evolve_ket` runs from the corresponding
    basis vectors (to rounding); shape ``(n_steps + 1, K, K)``.
    """
    return _propagators(H, grid)[0]


def propagator_bra(H: TimeDependentOperator, grid: TimeGrid) -> np.ndarray:
    """Dual-space propagators V0(t) generated by ``H(t)^dag``."""
    return _propagators(H.adjoint(), grid)[0]


def biorthogonality_defect(H: TimeDependentOperator, grid: TimeGrid) -> float:
    """Max-entry deviation of ``V0(t)^dag U0(t)`` from the identity over the grid.

    Paired ket/bra evolutions keep mutual overlaps frozen, so this defect
    isolates integrator error; it should sit at the integrator's accuracy
    regardless of how non-Hermitian ``H`` is.
    """
    U, V = _propagators(H, grid, with_bra=True)
    prod = np.einsum("jin,jkn->ikn", _time_last(V).conj(), _time_last(U))
    prod[np.diag_indices(H.dim)] -= 1.0
    return float(np.max(np.abs(prod)))


def dyson_truncation(
    H: TimeDependentOperator,
    t: float,
    order: int,
    quadrature_steps: int,
    t0: float = 0.0,
) -> np.ndarray:
    """Partial sum of the time-ordered series for the ket propagator.

    Terms 0..``order`` of the expansion of ``U0(t)`` are evaluated by
    nested left-endpoint Riemann sums with ``quadrature_steps`` nodes per
    axis (computed recursively as cumulative sums, which is algebraically
    identical to the naive nested sum).  The zeroth-order term is the
    identity.  Useful as an independent short-horizon oracle: against an
    accurate propagator the residual shrinks as O((t - t0)^(order + 1))
    once the quadrature is resolved.
    """
    for name, value in (("order", order), ("quadrature_steps", quadrature_steps)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if order < 0:
        raise InvalidArgumentError(f"order must be >= 0, got {order}")
    if quadrature_steps < 1:
        raise InvalidArgumentError(f"quadrature_steps must be >= 1, got {quadrature_steps}")
    if t < t0:
        raise InvalidArgumentError(f"t = {t} precedes t0 = {t0}")
    K = H.dim
    total = np.eye(K, dtype=complex)
    if order == 0 or t == t0:
        return total
    n = int(quadrature_steps)
    h = (t - t0) / n
    gs = _time_last((-1j * h) * H.sample(t0 + h * np.arange(n)))
    # S_k[..., j] approximates the k-fold nested integral up to node j.
    s_prev = np.broadcast_to(np.eye(K, dtype=complex)[..., None], (K, K, n + 1))
    for _ in range(order):
        s = np.zeros((K, K, n + 1), dtype=complex)
        np.cumsum(np.einsum("ijn,jkn->ikn", gs, s_prev[..., :n]), axis=-1, out=s[..., 1:])
        total = total + s[..., n]
        s_prev = s
    return total
