"""State propagation for the paired ket/bra Schrodinger equations.

A K-dimensional system driven by a time-dependent generator ``H(t)`` (not
necessarily Hermitian) obeys two coupled pictures: kets evolve under
``i dpsi/dt = H(t) psi`` and the dual (bra-space) solutions evolve under
``i dphi/dt = H(t)^dag phi``.  Norm is *not* conserved when ``H != H^dag``,
but the mutual overlaps of paired solutions are, which is what makes the
dual picture useful.

Everything here works on plain complex numpy arrays (states are shape
``(K,)`` vectors, operators ``(K, K)`` matrices) at small ``K``; units are
dimensionless with hbar = 1.  Propagation uses classical fixed-step RK4,
which handles non-unitary generators without any norm-restoring tricks and
keeps declared stage boundaries exactly on grid points.

Two paths share the scheme and the samples.  The propagators
(:func:`propagator_ket`, :func:`propagator_bra`,
:func:`biorthogonality_defect`) are batched: every RK4 step of a segment
becomes a matrix ``P_n`` built in one numpy expression, and a blocked
prefix product turns them into ``U_n = P_n ... P_1``; the bra steps reuse
the ket samples conjugate-transposed.  The state sweeps
(:func:`evolve_ket`, :func:`evolve_bra`) step one vector at a time, with
exactly the operations, in the order, of an all-numpy step.  Regrouping
the products changes rounding only, but the growing modes of a
non-Hermitian generator amplify it over long multi-loop runs (to ~1e-8 in
stage-end populations), and trajectories are compared against recorded
reference populations at 1e-12.  So for K = 2 and K = 3 an unrolled step
kernel keeps the state in Python ``complex`` locals and sends only the
matvecs to numpy, whose FMA-rounded complex multiply Python's does not
match; the rest of a step rounds as numpy does and skips numpy's per-call
cost on length-K vectors.  Other K run the plain all-numpy step.  The propagators only feed
thresholded certificates, where the ~1e-14 regrouping error is invisible.

The certificate algebra (step matrices, ``V^dag U``, the series oracle and
the frame residuals) copies each sampled ``(n, K, K)`` block once into a
time-last ``(K, K, n)`` one, so numpy's inner loops run along time.
"""

from __future__ import annotations

import bisect
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    "piecewise_operator",
    "evolve_ket",
    "evolve_bra",
    "propagator_ket",
    "propagator_bra",
    "biorthogonality_defect",
    "dyson_truncation",
    "matrix_exponential",
    "is_pt_symmetric_two_level",
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
            f"generator sample at t = {times[bad]!r} contains NaN or Inf"
        )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid with optional declared stage boundaries.

    ``dt`` must divide ``tf - t0`` and every stage-boundary offset, so that
    discontinuities of a piecewise generator always coincide with grid
    points and no RK4 step straddles one.
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

    def segment_indices(self) -> list[tuple[int, int]]:
        """(start, stop) index pairs of the smooth segments between boundaries."""
        cuts = sorted({0, self.n_steps, *(self.index_of(b) for b in self.stage_boundaries)})
        return [(a, b) for a, b in zip(cuts[:-1], cuts[1:])]

    def halved(self) -> "TimeGrid":
        """Same span and boundaries at half the step; used by convergence checks."""
        return TimeGrid(self.t0, self.tf, self.dt / 2, self.stage_boundaries)


@dataclass(frozen=True)
class TimeDependentOperator:
    """A K x K complex-matrix-valued function of time.

    ``value_at`` must return a ``(dim, dim)`` array for a scalar time.
    ``values_at``, when provided, evaluates a whole 1-D array of times at
    once and returns ``(n, dim, dim)``; propagation and residual scans use
    it for speed.  ``derivative_at`` is an optional analytic time
    derivative.  ``pieces`` marks a generator assembled from smooth pieces
    (see :func:`piecewise_operator`); samplers use it to stay one-sided at
    stage boundaries.
    """

    dim: int
    value_at: Callable[[float], np.ndarray]
    derivative_at: Callable[[float], np.ndarray] | None = None
    values_at: Callable[[np.ndarray], np.ndarray] | None = None
    pieces: tuple[tuple[float, float, "TimeDependentOperator"], ...] | None = None

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Evaluate at an array of times lying within one smooth piece."""
        times = np.asarray(times, dtype=float)
        if self.values_at is not None:
            block = np.asarray(self.values_at(times), dtype=complex)
        else:
            block = np.array([self.value_at(float(t)) for t in times], dtype=complex)
        if block.shape != (times.size, self.dim, self.dim):
            raise DimensionMismatchError(
                f"operator samples have shape {block.shape}, expected "
                f"({times.size}, {self.dim}, {self.dim})"
            )
        _check_finite_block(block, times)
        return block

    def adjoint(self) -> "TimeDependentOperator":
        """The Hermitian conjugate generator t -> H(t)^dag."""
        value = self.value_at
        batch = self.values_at
        pieces = None
        if self.pieces is not None:
            pieces = tuple((a, b, op.adjoint()) for a, b, op in self.pieces)
        return TimeDependentOperator(
            dim=self.dim,
            value_at=lambda t: np.conj(value(t)).T,
            values_at=None if batch is None else (
                lambda ts: np.conj(np.asarray(batch(ts))).transpose(0, 2, 1)
            ),
            pieces=pieces,
        )


def constant_operator(matrix) -> TimeDependentOperator:
    """Wrap a fixed matrix as a time-independent generator."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteSampleError("constant operator contains NaN or Inf")
    dim = m.shape[0]
    zero = np.zeros_like(m)
    return TimeDependentOperator(
        dim=dim,
        value_at=lambda t: m,
        derivative_at=lambda t: zero,
        values_at=lambda ts: np.broadcast_to(m, (np.asarray(ts).size, dim, dim)),
    )


def piecewise_operator(
    pieces: Sequence[tuple[float, float, TimeDependentOperator]],
) -> TimeDependentOperator:
    """Join smooth generators defined on contiguous intervals.

    Point evaluation is right-continuous at the internal joints (the final
    endpoint belongs to the last piece); integrators instead resolve whole
    segments against a single piece, so each stage sees its own one-sided
    limits at the joints.
    """
    if not pieces:
        raise GridError("piecewise operator needs at least one piece")
    pieces = tuple((float(a), float(b), op) for a, b, op in pieces)
    dim = pieces[0][2].dim
    for (a, b, op) in pieces:
        if not b > a:
            raise GridError(f"piece [{a}, {b}] is empty or reversed")
        if op.dim != dim:
            raise DimensionMismatchError("pieces have mismatched dimensions")
    for (_, b, _), (a2, _, _) in zip(pieces[:-1], pieces[1:]):
        if abs(b - a2) > 1e-12 * max(1.0, abs(b)):
            raise GridError(f"pieces are not contiguous at t = {b}")
    starts = [a for a, _, _ in pieces]

    def locate(t: float) -> TimeDependentOperator:
        i = bisect.bisect_right(starts, t) - 1
        i = min(max(i, 0), len(pieces) - 1)
        a, b, op = pieces[i]
        if t < a - 1e-12 or t > b + 1e-12:
            raise GridError(f"time {t} outside piecewise domain [{starts[0]}, {pieces[-1][1]}]")
        return op

    return TimeDependentOperator(
        dim=dim,
        value_at=lambda t: locate(t).value_at(t),
        pieces=pieces,
    )


def _piece_for_segment(H: TimeDependentOperator, ta: float, tb: float) -> TimeDependentOperator:
    """The smooth operator to sample on [ta, tb]."""
    if H.pieces is None:
        return H
    mid = 0.5 * (ta + tb)
    for a, b, op in H.pieces:
        if a - 1e-12 <= mid <= b + 1e-12:
            if ta < a - 1e-12 or tb > b + 1e-12:
                raise GridError(
                    f"grid segment [{ta}, {tb}] straddles a generator joint; "
                    "declare the joint as a stage boundary of the TimeGrid"
                )
            return op
    raise GridError(f"no generator piece covers t = {mid}")


@dataclass(frozen=True)
class StateTrajectory:
    """A propagated state sampled on every grid point.

    ``populations[i, n]`` is ``|states[i, n]|**2`` and ``total_norm[i]`` is
    their sum over levels (the squared 2-norm); both are derived from
    ``states`` on construction.  Treat instances as immutable.
    """

    grid: TimeGrid
    times: np.ndarray
    states: np.ndarray
    populations: np.ndarray = field(init=False)
    total_norm: np.ndarray = field(init=False)

    def __post_init__(self):
        pops = np.abs(self.states) ** 2
        object.__setattr__(self, "populations", pops)
        object.__setattr__(self, "total_norm", pops.sum(axis=1))

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def vector_norm(self) -> np.ndarray:
        """2-norm of the state at each grid point, sqrt of ``total_norm``."""
        return np.sqrt(self.total_norm)


def _segment_sample_times(times: np.ndarray, a: int, b: int) -> np.ndarray:
    """Interleave grid points and RK4 midpoints for steps a..b-1."""
    seg = times[a : b + 1]
    out = np.empty(2 * (b - a) + 1)
    out[0::2] = seg
    out[1::2] = 0.5 * (seg[:-1] + seg[1:])
    return out


def _rk4_steps_2(gs, h: float, h2: float, h6: float, y: list) -> list:
    """RK4 steps of a K = 2 segment on Python ``complex`` locals, states flattened."""
    y0, y1 = y
    rows = []
    for g1, g2, g3 in zip(gs[0:-1:2], gs[1::2], gs[2::2]):
        a0, a1 = g1.dot([y0, y1]).tolist()
        b0, b1 = g2.dot([y0 + h2 * a0, y1 + h2 * a1]).tolist()
        c0, c1 = g2.dot([y0 + h2 * b0, y1 + h2 * b1]).tolist()
        d0, d1 = g3.dot([y0 + h * c0, y1 + h * c1]).tolist()
        y0 = y0 + h6 * (a0 + 2.0 * (b0 + c0) + d0)
        y1 = y1 + h6 * (a1 + 2.0 * (b1 + c1) + d1)
        rows += (y0, y1)
    return rows


def _rk4_steps_3(gs, h: float, h2: float, h6: float, y: list) -> list:
    """RK4 steps of a K = 3 segment on Python ``complex`` locals, states flattened."""
    y0, y1, y2 = y
    rows = []
    for g1, g2, g3 in zip(gs[0:-1:2], gs[1::2], gs[2::2]):
        a0, a1, a2 = g1.dot([y0, y1, y2]).tolist()
        b0, b1, b2 = g2.dot([y0 + h2 * a0, y1 + h2 * a1, y2 + h2 * a2]).tolist()
        c0, c1, c2 = g2.dot([y0 + h2 * b0, y1 + h2 * b1, y2 + h2 * b2]).tolist()
        d0, d1, d2 = g3.dot([y0 + h * c0, y1 + h * c1, y2 + h * c2]).tolist()
        y0 = y0 + h6 * (a0 + 2.0 * (b0 + c0) + d0)
        y1 = y1 + h6 * (a1 + 2.0 * (b1 + c1) + d1)
        y2 = y2 + h6 * (a2 + 2.0 * (b2 + c2) + d2)
        rows += (y0, y1, y2)
    return rows


def _rk4_steps_any(gs, h: float, h2: float, h6: float, y: list) -> list:
    """RK4 steps of a segment of any K by the plain all-numpy step, one state per step."""
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

    Each segment runs a step kernel chosen by ``K = y0.size``: for K = 2
    and K = 3 the state is Python ``complex`` locals and only the four
    ``(K, K) . (K,)`` matvecs of a step go through numpy, since numpy's
    complex multiply rounds each part by a fused multiply-add,
    ``re = fl(ar*br - fl(ai*bi))``, and Python's (without ``math.fma``
    before 3.13) does not.  The rest rounds as in numpy, so the unrolled
    steps are bit-identical to the all-numpy step that every other K runs.
    """
    times = grid.times()
    h, h2, h6 = grid.dt, 0.5 * grid.dt, grid.dt / 6.0
    steps = {2: _rk4_steps_2, 3: _rk4_steps_3}.get(y0.size, _rk4_steps_any)
    out = np.empty((times.size, y0.size), dtype=complex)
    out[0] = y0
    for a, b in grid.segment_indices():
        op = _piece_for_segment(H, times[a], times[b])
        gs = -1j * op.sample(_segment_sample_times(times, a, b))
        out[a + 1 : b + 1] = np.reshape(steps(gs, h, h2, h6, out[a].tolist()), (b - a, y0.size))
    return out


def _time_last(block: np.ndarray) -> np.ndarray:
    """An ``(n, K, K)`` sample block as a contiguous ``(K, K, n)`` one."""
    return np.ascontiguousarray(np.moveaxis(block, 0, -1))


def _step_matrices(gs: np.ndarray, dt: float) -> np.ndarray:
    """RK4 step matrices ``P_n = I + dt/6 (K1 + 2 K2 + 2 K3 + K4)`` of one segment.

    ``gs`` is the time-last ``(K, K, 2n+1)`` block of ``-iH`` on the
    interleaved grid/midpoint times of :func:`_segment_sample_times`; one
    RK4 step of a linear equation maps ``y`` to ``P_n y``.  Returns
    ``(n, K, K)``.
    """
    g1, g2, g3 = gs[..., 0:-1:2], gs[..., 1::2], gs[..., 2::2]
    k2 = g2 + (0.5 * dt) * np.einsum("ijn,jkn->ikn", g2, g1)
    k3 = g2 + (0.5 * dt) * np.einsum("ijn,jkn->ikn", g2, k2)
    k4 = g3 + dt * np.einsum("ijn,jkn->ikn", g3, k3)
    steps = (dt / 6.0) * (g1 + 2.0 * (k2 + k3) + k4)
    steps[np.diag_indices(gs.shape[0])] += 1.0
    return np.moveaxis(steps, -1, 0)


def _prefix_products(steps: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """``out[i] = steps[i] ... steps[0] u0`` by a blocked scan.

    The steps are cut into about sqrt(n) blocks (the last padded with
    identities).  Running products inside the blocks advance all blocks at
    once, a short sequential carry chains the block ends from ``u0``, and
    one batched multiply applies each block's incoming carry.
    """
    n, K = steps.shape[0], steps.shape[-1]
    m = max(1, int(np.sqrt(n)))
    nb = -(-n // m)
    blocks = np.empty((nb * m, K, K), dtype=complex)
    blocks[:n] = steps
    blocks[n:] = np.eye(K)
    blocks = blocks.reshape(nb, m, K, K)
    for j in range(1, m):
        blocks[:, j] = blocks[:, j] @ blocks[:, j - 1]
    carry = np.empty((nb, K, K), dtype=complex)
    carry[0] = u0
    for i in range(1, nb):
        carry[i] = blocks[i - 1, -1] @ carry[i - 1]
    return (blocks @ carry[:, None]).reshape(nb * m, K, K)[:n]


def _propagators(
    H: TimeDependentOperator, grid: TimeGrid, with_bra: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Ket propagators of ``H`` on every grid point and, if asked, the bra ones.

    Each smooth segment is sampled once; the bra steps reuse that block
    conjugate-transposed, since ``-i H^dag = -(-i H)^dag``.
    """
    times = grid.times()
    U = np.empty((times.size, H.dim, H.dim), dtype=complex)
    U[0] = np.eye(H.dim)
    V = U.copy() if with_bra else None
    for a, b in grid.segment_indices():
        op = _piece_for_segment(H, times[a], times[b])
        gs = _time_last(-1j * op.sample(_segment_sample_times(times, a, b)))
        U[a + 1 : b + 1] = _prefix_products(_step_matrices(gs, grid.dt), U[a])
        if with_bra:
            gs_bra = -gs.conj().transpose(1, 0, 2)
            V[a + 1 : b + 1] = _prefix_products(_step_matrices(gs_bra, grid.dt), V[a])
    return U, V


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


#: Scaled norm below which the degree-6 Taylor core of expm is accurate to
#: near machine precision for the dims used here.
_EXPM_THETA = 2.0 ** -6


def matrix_exponential(a) -> np.ndarray:
    """exp(a) by scaling-and-squaring around a degree-6 Taylor core.

    Meant for the small (K <= 3) well-conditioned matrices this library
    works with, where it is accurate to ~1e-13; used as the closed-form
    oracle for constant generators.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteSampleError("matrix_exponential input contains NaN or Inf")
    norm = np.linalg.norm(a, 1)
    squarings = 0
    if norm > _EXPM_THETA:
        squarings = int(np.ceil(np.log2(norm / _EXPM_THETA)))
        a = a / (2.0 ** squarings)
    eye = np.eye(a.shape[0], dtype=complex)
    # Horner form of I + a + a^2/2! + ... + a^6/6!
    result = eye + a / 6.0
    for k in (5, 4, 3, 2, 1):
        result = eye + (a / k) @ result
    for _ in range(squarings):
        result = result @ result
    return result


def is_pt_symmetric_two_level(
    xi0: float,
    xi1: float,
    delta: Callable[[np.ndarray], np.ndarray] | float,
    times: np.ndarray,
    tol: float = 1e-12,
) -> bool:
    """Whether a two-level gain/loss assignment is parity-time symmetric.

    True iff the gain/loss phases have equal magnitude, ``|xi0| == |xi1|``,
    and the detuning vanishes identically on the sampled times.
    """
    if abs(abs(xi0) - abs(xi1)) > tol:
        return False
    times = np.asarray(times, dtype=float)
    d = delta(times) if callable(delta) else delta
    return bool(np.max(np.abs(np.asarray(d))) <= tol)
