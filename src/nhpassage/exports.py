"""Deterministic CSV and SVG export of run reports.

Both writers are pure functions of the report's arrays: identical reports
produce byte-identical files.  The SVG is a self-contained line chart with
no external references.

Every CSV float reads as numpy's ``format_float_positional(x,
precision=12, unique=False, fractional=False)`` writes it (:func:`_fmt`):
the correctly rounded 12 significant digits (ties to even), without the
zeros that an upward rounding's carry leaves or that follow the end of an
exact expansion, but with the zeros of a value rounded down; then padded
with zeros to ``12 - whole_digits`` fraction digits, where a value below 1
counts one whole digit.  :func:`export_csv` renders the table in blocks of
rows with array operations instead of one call per float.  It decides each
rounding exactly from the error-free product ``|x| * 10**(11 - e)``
(Dekker, Numer. Math. 18, 224 (1971)) and places every character by one
gather per column from a 16-byte source per value.  The few values it
cannot decide for certain go to :func:`_fmt`: zeros, non-finite values,
magnitudes below ``1e-280`` or from ``1e11`` up, and products within the
error bound of a rounding boundary.
"""

from __future__ import annotations

import functools

import numpy as np

from .exceptions import InvalidArgumentError
from .scenarios import RunReport

__all__ = ["export_csv", "export_svg"]

_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c")
_TOTAL_COLOR = "#555555"
#: Most points per SVG series; longer trajectories are decimated.
_SVG_MAX_POINTS = 1600

#: Rows per rendered CSV block; bounds the renderer's temporaries.
_BLOCK_ROWS = 2048
#: Magnitudes the array renderer decides; the rest go to :func:`_fmt`.
_MIN_ABS, _MAX_ABS = 1e-280, 1e11
#: Largest ``k`` of ``10**k`` needed: ``11 - e`` for ``e >= -282``.
_MAX_POW = 293
#: Distance from a rounding boundary below which an inexact product is left
#: to :func:`_fmt`.  For ``e < -11`` the power ``10**(11 - e)`` is a
#: double-double ``hi + lo`` and the computed product (below ``1e12``) misses
#: the exact one by less than ``1e-19``; for ``e >= -11`` it is exact.
_INEXACT_MARGIN = 1e-17
# A value's source bytes: its 12 digit characters, then "0", ".", "-", NUL.
_ZERO, _POINT, _MINUS, _NUL = 12, 13, 14, 15
#: Layout keys per sign: ``e`` for ``0 <= e <= 11``, ``12 + 12 z + n - 1``
#: for ``z`` zeros after ``0.`` followed by ``n`` digits; one more key
#: past both signs lays out nothing.
_KEYS = 12 + 12 * 280


def _fmt(x: float) -> str:
    return np.format_float_positional(
        float(x), precision=12, unique=False, fractional=False
    )


def _split(a):
    """Veltkamp split: ``a = hi + lo`` with each half on at most 26 bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _digit_tables():
    """``10**k = hi + lo`` with ``hi``'s Veltkamp halves, for k <= _MAX_POW;
    the four characters (as one uint32) and trailing zeros of 0..9999."""
    hi = np.array([float(10**k) for k in range(_MAX_POW + 1)])
    lo = np.array([float(10**k - int(h)) for k, h in enumerate(hi.tolist())])
    digits = np.indices((10,) * 4).reshape(4, -1).T  # row i: the digits of i
    chars = np.ascontiguousarray(digits + ord("0"), np.uint8).view(np.uint32)[:, 0]
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    tables = (hi, lo, *_split(hi), chars, trailing)
    for t in tables:
        t.flags.writeable = False  # shared by every call
    return tables


def _round12(a):
    """Dragon4's 12-digit rounding of each ``a`` in ``[1e-280, 1e11)``.

    Returns ``(m, e, strip, sure)``: ``a`` rounds to ``m * 10**(e - 11)``
    with ``10**11 <= m < 10**12``; ``strip`` where Dragon4 drops ``m``'s
    trailing zeros (the rounding went up or was exact), not where it
    rounded down; ``sure`` where the decision is certain.
    """
    hi, lo, hi_h, hi_l, _, _ = _digit_tables()
    # decimal exponent e with 1e11 <= a * 10**(11 - e) < 1e12
    e = np.floor(np.log10(a)).astype(np.int64)
    p = a * hi[11 - e]
    e += (p >= 1e12).astype(np.int64) - (p < 1e11)
    k = 11 - e
    p = a * hi[k]
    # a * 10**k = p + c: Dekker's exact product with hi, plus a * lo
    ah, al = _split(a)
    c = (((ah * hi_h[k] - p) + ah * hi_l[k]) + al * hi_h[k]) + al * hi_l[k] + a * lo[k]
    whole = np.floor(p)
    frac = p - whole
    rest = frac + c  # what follows the 12th digit; below 0 it borrows one
    half = (frac - 0.5) + c  # the same, less one half
    sure = (p >= 1e11) & (p < 1e12) & (
        (k <= 22) | ((np.abs(rest) > _INEXACT_MARGIN) & (np.abs(half) > _INEXACT_MARGIN)))
    m = whole.astype(np.int64)
    up = (half > 0) | ((half == 0) & (m % 2 == 1))
    m += up
    carry = m == 10**12
    m[carry] = 10**11
    return m, e + carry, up | (rest <= 0), sure


def _layouts(keys, width):
    """Source byte of each output byte, NUL-padded to ``width``, and the
    length of each layout key."""
    neg = keys // _KEYS
    r = keys % _KEYS
    small = r >= 12
    zeros = np.where(small, (r - 12) // 12 + 1, 0)  # with the whole-part 0
    digits = np.where(small, (r - 12) % 12 + 1, 12)
    point = np.where(small, 1, r + 1)
    length = np.where(neg > 1, 0, neg + 1 + zeros + digits)
    pos = np.arange(width)
    q = pos - neg[:, None]
    j = q - (q > point[:, None]) - zeros[:, None]
    pat = np.where(j < 0, _ZERO, j)
    pat[q == point[:, None]] = _POINT
    pat[pos < neg[:, None]] = _MINUS
    pat[pos >= length[:, None]] = _NUL
    return pat, length


def _render_block(values, seps):
    """CSV bytes of a ``(columns, rows)`` block: each value as :func:`_fmt`
    writes it, ``seps[i]`` after column ``i``."""
    *_, chars, trailing = _digit_tables()
    a = np.abs(values)
    ok = (a >= _MIN_ABS) & (a < _MAX_ABS)
    m, e, strip, sure = _round12(np.where(ok, a, 1.0))
    ok &= sure
    g0 = m // 10**8
    g2 = m - g0 * 10**8
    g1 = g2 // 10**4
    g2 -= g1 * 10**4
    src = np.empty(values.shape + (4,), np.uint32)
    for i, g in enumerate((g0, g1, g2)):
        src[..., i] = chars[g]
    src[..., 3] = np.frombuffer(b"0.-\0", np.uint32)[0]
    zeros = trailing[g2] + (g2 == 0) * (trailing[g1] + (g1 == 0) * trailing[g0])
    lead = -e - 1  # zeros between "0." and the digits, for e < 0
    digits = np.maximum(np.where(strip, 12 - zeros, 12), 11 - lead)
    key = np.where(e >= 0, e, 12 + 12 * lead + digits - 1) + _KEYS * (values < 0)
    key[~ok] = 2 * _KEYS
    present = np.zeros(2 * _KEYS + 1, bool)
    present[key] = True
    keys = np.flatnonzero(present)
    slot = np.empty(present.size, np.intp)
    slot[keys] = np.arange(keys.size)
    layout = slot[key]
    cell_len = _layouts(keys, 0)[1][layout]
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        bits, text_of = np.unique(values.reshape(-1)[fallback].view(np.uint64),
                                  return_inverse=True)
        texts = [_fmt(v).encode("ascii") for v in bits.view(np.float64)]
        cell_len.reshape(-1)[fallback] = np.array([len(t) for t in texts])[text_of]
    widths = cell_len.max(axis=1)
    pat = _layouts(keys, int(widths.max()))[0]
    if fallback.size:
        tab = np.zeros((len(texts), pat.shape[1]), np.uint8)
        for i, t in enumerate(texts):
            tab[i, :len(t)] = np.frombuffer(t, np.uint8)
        col_of, row_of = np.divmod(fallback, values.shape[1])
    ends = np.cumsum(widths + 1)
    out = np.empty((values.shape[1], int(ends[-1])), np.uint8)
    base = np.arange(values.shape[1])[:, None] * 16  # source bytes per value
    for col, (w, end) in enumerate(zip(widths.tolist(), ends.tolist())):
        idx = np.ascontiguousarray(pat[:, :w])[layout[col]]
        idx += base
        dest = out[:, end - 1 - w:end - 1]
        dest[...] = src[col].view(np.uint8).reshape(-1)[idx]
        if fallback.size:
            here = col_of == col
            dest[row_of[here]] = tab[text_of[here], :w]
        out[:, end - 1] = seps[col]
    flat = out.reshape(-1)
    return flat[flat != 0]


def export_csv(report: RunReport, path) -> None:
    """Write one row per grid point: ``t,P0,P1[,Pe],total,f_real,f_imag,norm``.

    ``total`` is the summed level population (squared 2-norm) and ``norm``
    its square root; ``f_real``/``f_imag`` are the accumulated passage
    phase, restarting at each stage boundary for cyclic runs.
    """
    traj = report.trajectory
    phase = report.phase
    dim = traj.dim
    header = ["t", "P0", "P1"] + (["Pe"] if dim == 3 else []) + [
        "total", "f_real", "f_imag", "norm"]
    columns = [traj.times] + [traj.populations[:, i] for i in range(dim)] + [
        traj.total_norm, phase.f_real, phase.f_imag, traj.vector_norm()]
    if any(len(col) != len(traj.times) for col in columns):
        raise InvalidArgumentError("trajectory and phase arrays disagree in length")
    seps = np.full(len(columns), ord(","), np.uint8)
    seps[-1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for start in range(0, len(traj.times), _BLOCK_ROWS):
            block = np.array([col[start:start + _BLOCK_ROWS] for col in columns],
                             dtype=np.float64)
            fh.write(_render_block(block, seps))


def _ticks(lo: float, hi: float, step: float) -> list[float]:
    first = np.ceil(lo / step) * step
    return [float(v) for v in np.arange(first, hi + step / 2, step)]


def export_svg(report: RunReport, path) -> None:
    """Write a self-contained SVG chart of populations and total norm vs ``t/T``.

    Trajectories longer than 1600 points are decimated with a fixed stride
    (endpoint kept) so the file stays light; the underlying CSV keeps full resolution.
    """
    traj = report.trajectory
    dim = traj.dim
    T = report.config.T
    x = traj.times / T
    series = [(f"P{i}" if i < 2 else "Pe", traj.populations[:, i], _SERIES_COLORS[i], None)
              for i in range(dim)]
    series.append(("total", traj.total_norm, _TOTAL_COLOR, "6 4"))

    stride = max(1, int(np.ceil(x.size / _SVG_MAX_POINTS)))
    keep = np.arange(0, x.size, stride)
    if keep[-1] != x.size - 1:
        keep = np.append(keep, x.size - 1)

    width, height = 720.0, 480.0
    ml, mr, mt, mb = 64.0, 18.0, 40.0, 48.0
    pw, ph = width - ml - mr, height - mt - mb
    x_lo, x_hi = float(x[0]), float(x[-1])
    y_lo = 0.0
    y_hi = max(1.05, float(max(np.max(vals) for _, vals, _, _ in series)) * 1.05)

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return mt + (y_hi - v) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{report.config.scenario}</text>',
    ]
    # axes and ticks
    parts.append(
        f'<g stroke="#222" stroke-width="1" fill="none">'
        f'<path d="M{ml:.1f},{mt:.1f} L{ml:.1f},{mt + ph:.1f} L{ml + pw:.1f},{mt + ph:.1f}"/></g>'
    )
    x_step = 1.0 if x_hi - x_lo <= 16 else 2.0
    for tx in _ticks(x_lo, x_hi, x_step):
        parts.append(
            f'<line x1="{px(tx):.1f}" y1="{mt + ph:.1f}" x2="{px(tx):.1f}" '
            f'y2="{mt + ph + 5:.1f}" stroke="#222"/>'
            f'<text x="{px(tx):.1f}" y="{mt + ph + 20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:g}</text>'
        )
    for ty in _ticks(y_lo, y_hi, 0.25):
        parts.append(
            f'<line x1="{ml - 5:.1f}" y1="{py(ty):.1f}" x2="{ml:.1f}" '
            f'y2="{py(ty):.1f}" stroke="#222"/>'
            f'<text x="{ml - 9:.1f}" y="{py(ty) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:g}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 10:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">t/T</text>'
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">population</text>'
    )
    # px/py on the kept arrays: the same IEEE operations as on each float
    xs = px(x[keep]).tolist()
    for name, vals, color, dash in series:
        pts = " ".join(map("{:.4f},{:.4f}".format, xs, py(vals[keep]).tolist()))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6"{dash_attr} '
            f'points="{pts}"/>'
        )
    # legend
    lx = ml + pw - 90.0
    for i, (name, _, color, dash) in enumerate(series):
        ly = mt + 14.0 + 16.0 * i
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{lx:.1f}" y1="{ly:.1f}" x2="{lx + 24:.1f}" y2="{ly:.1f}" '
            f'stroke="{color}" stroke-width="1.6"{dash_attr}/>'
            f'<text x="{lx + 30:.1f}" y="{ly + 4:.1f}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
