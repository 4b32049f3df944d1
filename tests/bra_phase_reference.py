"""The linear relation tying a bra passage's phase rate to the ket one.

A test-side identity of synthesized controls: it holds identically when the
gain/loss assignment satisfies ``gamma0 e^{-i xi0} + gamma1 e^{-i xi1} = 0``.
"""

import numpy as np

from nhpassage.dynamics import _Samples
from nhpassage.frames import _grid_times
from nhpassage.synthesis import _cis, _inner_pair, _pair_rate


def bra_phase_relation_check(controls, frame, grid) -> float:
    """Residual of the linear relation tying the bra-passage phase to the ket one.

    ``conj(fdot_11) = Delta0 cos^2 theta + Delta1 - conj(fdot_22_inner)`` on the
    ``|0>, |1>`` pair (the whole system for two levels, with ``Delta0 = 0``,
    ``Delta1 = Delta``): ``fdot_11`` is its bra rate and ``fdot_22_inner`` its
    ket rate without ``Delta0``.  Returns the max magnitude over grid points.
    """
    s = _Samples(_grid_times(grid))
    d0, d1, *rest = _inner_pair(controls, frame, s, _cis)
    # the detunings alone: the same diagonal entries with the gains weighted by zero
    delta0, delta1, *_ = _inner_pair(controls, frame, s, lambda xi: 0.0)
    # raw diagonal entries of the rotated generator (no bra conjugation here)
    raw11 = _pair_rate("bra", s, d0, d1, *rest)
    raw22 = _pair_rate("ket", s, d0 - delta0, d1, *rest)
    target = delta0 * s.cos(frame.theta) ** 2 + delta1
    return float(np.max(np.abs(np.conj(raw11) - target + np.conj(raw22))))
