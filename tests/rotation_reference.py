"""The whole rotated generator ``Hf - A`` as a time-last ``(K, K, n)`` block.

``triangularization_residual`` forms only the entries above the diagonal;
these full-block forms are the reference it is held to, bit for bit, and
the oracle the synthesis tests read the rotated generator from.
"""

import numpy as np

from nhpassage.dynamics import _time_last


def gauge_block(frames, dframes):
    """Gauge potentials of time-last ``(K, K, n)`` frame and derivative blocks."""
    return 1j * np.einsum("ikn,imn->kmn", frames.conj(), dframes)


def rotated_block(H, frame, times):
    """``Hf - A`` on every time, as a time-last ``(K, K, n)`` block."""
    hs = _time_last(H.sample(times))
    ms = _time_last(frame.sample(times))
    dms = _time_last(frame.sample_derivative(times))
    hf = np.einsum("ikn,imn->kmn", ms.conj(), np.einsum("ijn,jmn->imn", hs, ms))
    return hf - gauge_block(ms, dms)


def above_diagonal_max(H, frame, times):
    """The largest above-diagonal magnitude of :func:`rotated_block`."""
    iu = np.triu_indices(frame.dim, k=1)
    return float(np.max(np.abs(rotated_block(H, frame, times)[iu])))
