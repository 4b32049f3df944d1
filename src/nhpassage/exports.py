"""Deterministic CSV and SVG export of run reports.

Both writers are pure functions of the report's arrays: identical reports
produce byte-identical files.  Floats are rendered positionally with 12
significant digits in the CSV; the SVG is a self-contained line chart
with no external references.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidArgumentError
from .scenarios import RunReport

__all__ = ["export_csv", "export_svg"]

_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c")
_TOTAL_COLOR = "#555555"
#: Most points per SVG series; longer trajectories are decimated.
_SVG_MAX_POINTS = 1600


def _fmt(x: float) -> str:
    return np.format_float_positional(
        float(x), precision=12, unique=False, fractional=False
    )


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
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    for name, vals, color, dash in series:
        pts = " ".join(
            f"{px(float(x[i])):.4f},{py(float(vals[i])):.4f}" for i in keep
        )
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
