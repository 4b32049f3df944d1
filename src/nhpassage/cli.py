"""Command-line front end: run, export, and verify the built-in scenarios.

Subcommands::

    nhpassage two-level --scenario a|b|c|d [options]
    nhpassage cyclic --direction cw|ccw --loops N [options]
    nhpassage verify --scenario <id> [options]

Options may also come from a ``--config`` key=value file; explicit flags
win over file values.  Exit status is 0 iff every recorded check passed.
"""

from __future__ import annotations

import argparse
import sys

from .config import read_config
from .exceptions import ConfigError, PassageError
from .exports import export_csv, export_svg
from .scenarios import (
    CYCLIC_IDS,
    SCENARIO_IDS,
    TWO_LEVEL_IDS,
    ScenarioConfig,
    run_scenario,
    verify,
)

_SHORT_IDS = {
    "a": "two_level_a", "b": "two_level_b", "c": "two_level_c", "d": "two_level_d",
    "cw": "cyclic_cw", "ccw": "cyclic_ccw",
}
#: Per subcommand, the key that names its scenario and the ids it runs.
_SUBCOMMAND_IDS = {
    "two-level": ("scenario", TWO_LEVEL_IDS),
    "cyclic": ("direction", CYCLIC_IDS),
    "verify": ("scenario", SCENARIO_IDS),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--T", type=float, default=None, help="stage half-duration (default 1.0)")
    parser.add_argument("--dt", type=float, default=None, help="integration step (default T/2000)")
    parser.add_argument("--gamma-scale", type=float, default=None,
                        help="scale factor on the gain/loss-to-frame-rate ratio")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="pass/fail tolerance on end-point populations")
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--csv", default=None, help="write the trajectory as CSV")
    parser.add_argument("--svg", default=None, help="write a population chart as SVG")
    parser.add_argument("--quiet", action="store_true", help="suppress per-check lines")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhpassage",
        description="Nonadiabatic passage scenarios for non-Hermitian generators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p2 = sub.add_parser("two-level", help="run a two-level transfer (a-d)")
    p2.add_argument("--scenario", choices=("a", "b", "c", "d"), default=None)
    _add_common(p2)

    p3 = sub.add_parser("cyclic", help="run cyclic three-level transfer loops")
    p3.add_argument("--direction", choices=("cw", "ccw"), default=None)
    p3.add_argument("--loops", type=int, default=None)
    _add_common(p3)

    pv = sub.add_parser("verify", help="run the full residual suite for a scenario")
    pv.add_argument("--scenario", default=None,
                    help="scenario id (two_level_a..d, cyclic_cw/ccw, or a|b|c|d|cw|ccw)")
    pv.add_argument("--loops", type=int, default=None)
    _add_common(pv)

    return parser


#: Run options a flag or the config file may set; ``ScenarioConfig`` defaults the rest.
_RUN_OPTIONS = {"T": float, "dt": float, "loops": int, "gamma_scale": float, "tolerance": float}


def _merged(args: argparse.Namespace, key: str, file_values: dict, cast):
    """The flag's value, else the config file's cast by ``cast``, else None."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_values:
        try:
            return cast(file_values[key])
        except ValueError:
            raise ConfigError(
                f"config value {key} = {file_values[key]!r} is not a valid {cast.__name__}"
            ) from None
    return None


def _scenario_id(args: argparse.Namespace, file_values: dict) -> str:
    """The subcommand's scenario id, from its key's flag or config value: a short
    id or a full one, among the ids the subcommand runs."""
    key, ids = _SUBCOMMAND_IDS[args.command]
    shorts = "|".join(short for short, sid in _SHORT_IDS.items() if sid in ids)
    raw = _merged(args, key, file_values, str)
    if raw is None:
        raise PassageError(f"{args.command} needs --{key} {shorts} (or a config entry)")
    sid = _SHORT_IDS.get(raw, raw)
    if sid not in ids:  # a config file value passes no argparse choices
        raise PassageError(f"{args.command} {key} {raw!r} is not one of {shorts} or {ids}")
    return sid


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values = read_config(args.config) if args.config else {}
        scenario = _scenario_id(args, file_values)
        given = {key: _merged(args, key, file_values, cast) for key, cast in _RUN_OPTIONS.items()}
        config = ScenarioConfig(scenario, **{k: v for k, v in given.items() if v is not None})
        csv_path = _merged(args, "csv", file_values, str)
        svg_path = _merged(args, "svg", file_values, str)
        report = verify(config) if args.command == "verify" else run_scenario(config)
        if csv_path:
            export_csv(report, csv_path)
        if svg_path:
            export_svg(report, svg_path)
    except (PassageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        for line in report.summary_lines():
            print(line)
    n_pass = sum(c.passed for c in report.checks)
    verdict = "OK" if report.passed else "FAILED"
    print(f"{verdict}: {n_pass}/{len(report.checks)} checks passed "
          f"({config.scenario}, T={config.T:g}, dt={config.resolved_dt():g})")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
