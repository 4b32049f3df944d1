"""CSV and SVG export against the per-value writers they replaced.

``export_csv`` renders its floats with array operations, block by block.
``_fmt`` (numpy's Dragon4 at 12 significant digits, one call per float) is
the oracle: value for value on drawn and edge doubles, and byte for byte on
whole reports.  ``export_svg`` maps each series' kept points to plot
coordinates as arrays; the per-point writer is its byte-for-byte oracle.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nhpassage import ScenarioConfig, export_csv, export_svg, run_cyclic, verify
from nhpassage.exports import (
    _SERIES_COLORS, _SVG_MAX_POINTS, _TOTAL_COLOR, _fmt, _render_block, _ticks)
from nhpassage.scenarios import CYCLIC_IDS


def per_value_csv(report) -> bytes:
    """The CSV as the per-value writer wrote it: one ``_fmt`` call per float."""
    traj, phase = report.trajectory, report.phase
    header = ["t", "P0", "P1"] + (["Pe"] if traj.dim == 3 else []) + [
        "total", "f_real", "f_imag", "norm"]
    columns = [traj.times] + [traj.populations[:, i] for i in range(traj.dim)] + [
        traj.total_norm, phase.f_real, phase.f_imag, traj.vector_norm()]
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def rendered(block) -> str:
    """A ``(columns, rows)`` block as ``export_csv`` writes its rows."""
    block = np.asarray(block, dtype=np.float64)
    seps = np.full(block.shape[0], ord(","), np.uint8)
    seps[-1] = ord("\n")
    return _render_block(block, seps).tobytes().decode("ascii")


def oracle(block) -> str:
    return "".join(",".join(_fmt(v) for v in row) + "\n" for row in np.asarray(block).T)


def assert_matches_oracle(values):
    values = np.asarray(values, dtype=np.float64)
    got = rendered(values[None, :]).split("\n")[:-1]
    want = [_fmt(v) for v in values]
    bad = [(float(v), g, w) for v, g, w in zip(values, got, want) if g != w]
    assert not bad, bad[:5]
    assert len(got) == len(want)


def _near(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest double steps up to inf
        return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


EDGES = [
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308,
    # carries: every digit rounds up into the next power of ten
    9.99999999999951, 0.0049999999999996, 0.9999999999999, 99999999999.95,
    # rounded up (stripped), rounded down (zeros kept), exact (stripped)
    2.5e-7, 0.0005, 0.5, 48.0, 1.0, 0.125, 0.375, 1.5, 12.75, 123456789012345.0,
    # exact ties at the 13th digit, to even both ways
    12345678901.25, 12345678901.75, 1234567890.125, 1234567890.375,
    # the renderer's range ends and the exact/inexact power boundary
    1e11, 1e12, 1e-280, 1e-11, 1e-12, 1.5e-12,
]
POWERS = [10.0**k for k in range(-300, 300)] + [float(f"1e{k}") for k in range(-300, 300)]


def test_edges_match_the_oracle():
    edges = _near(EDGES + POWERS)
    assert_matches_oracle(np.concatenate([edges, -edges]))


@pytest.mark.parametrize("dt", [0.00025, 0.0005, 0.001])
def test_grid_times_match_the_oracle(dt):
    n = 48_001
    assert_matches_oracle(np.concatenate([np.arange(n) * dt, np.linspace(0.0, (n - 1) * dt, n)]))


_doubles = st.one_of(
    st.floats(),  # NaN, infinities and subnormals included
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.sampled_from(EDGES + POWERS),
    st.builds(lambda k, dt: k * dt, st.integers(0, 200_000),
              st.sampled_from([0.00025, 0.0005, 0.001])),
    # 12 significant digits and a 13th that decides the rounding
    st.builds(lambda m, e: m * 10.0**e, st.integers(10**12, 10**13 - 1), st.integers(-40, -2)),
    # exact ties: odd / 2**j with 13 significant digits, the last a 5
    st.integers(1, 11).flatmap(lambda j: st.integers(
        10**12 // 5**j // 2, (10**13 // 5**j - 1) // 2).map(lambda h: (2 * h + 1) / 2.0**j)),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_doubles, min_size=1, max_size=80), columns=st.integers(1, 4))
def test_rendered_values_match_the_oracle(values, columns):
    assume(len(values) >= columns)
    block = np.array(values[:len(values) // columns * columns]).reshape(columns, -1)
    assert rendered(block) == oracle(block)


# ---------------------------------------------------------------------------
# whole files


@pytest.fixture(scope="module")
def cyclic_reports():
    return {sid: run_cyclic(ScenarioConfig(sid, loops=2, gamma_scale=1.15)) for sid in CYCLIC_IDS}


@pytest.mark.parametrize("sid", ["two_level_a", "two_level_b", "two_level_c", "two_level_d"])
def test_two_level_csv_is_the_per_value_writers(tmp_path, two_level_reports, sid):
    path = tmp_path / f"{sid}.csv"
    export_csv(two_level_reports[sid], path)
    assert path.read_bytes() == per_value_csv(two_level_reports[sid])


@pytest.mark.parametrize("sid", CYCLIC_IDS)
def test_cyclic_csv_is_the_per_value_writers(tmp_path, cyclic_reports, sid):
    path = tmp_path / f"{sid}.csv"
    export_csv(cyclic_reports[sid], path)
    assert path.read_bytes() == per_value_csv(cyclic_reports[sid])


def test_failed_run_placeholder_csv_is_the_per_value_writers(tmp_path):
    report = verify(ScenarioConfig(scenario="cyclic_cw", loops=2, dt=0.1))
    assert not report.passed
    path = tmp_path / "failed.csv"
    export_csv(report, path)
    assert path.read_bytes() == per_value_csv(report)


def test_csv_export_memory_stays_blocked(tmp_path):
    # 48 001 rows; a writer holding the whole table's temporaries at once
    # peaks at many times the file, the blocked one below it
    report = run_cyclic(ScenarioConfig("cyclic_ccw", loops=4))
    assert report.trajectory.times.size == 48_001
    path = tmp_path / "ccw4.csv"
    tracemalloc.start()
    try:
        export_csv(report, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size


# ---------------------------------------------------------------------------
# SVG


def per_point_svg(report, path) -> None:
    """The SVG as the per-point writer wrote it: ``px``/``py`` and an f-string
    per kept point and series."""
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


def assert_svg_is_the_per_point_writers(tmp_path, report):
    got, want = tmp_path / "got.svg", tmp_path / "want.svg"
    export_svg(report, got)
    per_point_svg(report, want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("sid", ["two_level_a", "two_level_b", "two_level_c", "two_level_d"])
def test_two_level_svg_is_the_per_point_writers(tmp_path, two_level_reports, sid):
    assert_svg_is_the_per_point_writers(tmp_path, two_level_reports[sid])


@pytest.mark.parametrize("loops", [1, 2])
@pytest.mark.parametrize("sid", CYCLIC_IDS)
def test_cyclic_svg_is_the_per_point_writers(tmp_path, cyclic_cw_report, cyclic_ccw_report,
                                             sid, loops):
    if loops == 2:
        report = cyclic_cw_report if sid == "cyclic_cw" else cyclic_ccw_report
    else:
        report = run_cyclic(ScenarioConfig(sid))
    assert report.config.loops == loops
    assert_svg_is_the_per_point_writers(tmp_path, report)


def test_failed_run_placeholder_svg_is_the_per_point_writers(tmp_path):
    report = verify(ScenarioConfig(scenario="cyclic_cw", loops=2, dt=0.1))
    assert not report.passed
    assert_svg_is_the_per_point_writers(tmp_path, report)
