"""Command-line front end: run, export, and verify the built-in scenarios.

Subcommands::

    nhpassage two-level --scenario a|b|c|d [options]
    nhpassage cyclic --direction cw|ccw --loops N [options]
    nhpassage verify --scenario <id> [options]

Options may also come from a ``--config`` key=value file; explicit flags
win over file values.  ``OPTIONS`` lists every option once: its flags, each
subcommand's file keys and the one cast that flag and file values share come
from it.  A flag that names another subcommand's option is refused as a file
key the subcommand does not read is: one ``error:`` line, exit status 1.
Exit status is 0 iff every recorded check passed.
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
_COMMANDS = {
    "two-level": "run a two-level transfer (a-d)",
    "cyclic": "run cyclic three-level transfer loops",
    "verify": "run the full residual suite for a scenario",
}
_ALL = tuple(_COMMANDS)

#: key, cast (for the key naming the run's scenario: the ids it may name), help,
#: and the subcommands that read it, as the flag ``--key`` (``_`` as ``-``) or a
#: config file key.
OPTIONS = (
    ("scenario", TWO_LEVEL_IDS, "scenario id", ("two-level",)),
    ("direction", CYCLIC_IDS, "loop direction", ("cyclic",)),
    ("scenario", SCENARIO_IDS, "scenario id", ("verify",)),
    ("loops", int, "number of cyclic loops (default 1)", ("cyclic", "verify")),
    ("T", float, "stage half-duration (default 1.0)", _ALL),
    ("dt", float, "integration step (default T/2000)", _ALL),
    ("gamma_scale", float, "scale factor on the gain/loss-to-frame-rate ratio", _ALL),
    ("tolerance", float, "pass/fail tolerance on end-point populations", _ALL),
    ("csv", str, "write the trajectory as CSV", _ALL),
    ("svg", str, "write a population chart as SVG", _ALL),
)


#: Every option's flag as registered: ``--`` and the key, ``_`` as ``-``.
_FLAGS = {f"--{row[0].replace('_', '-')}" for row in OPTIONS}


def _rows(command: str) -> list[tuple]:
    return [row for row in OPTIONS if command in row[3]]


def _shorts(ids: tuple) -> str:
    return "|".join(short for short, sid in _SHORT_IDS.items() if sid in ids)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhpassage",
        description="Nonadiabatic passage scenarios for non-Hermitian generators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for key, cast, text, _ in _rows(command):
            if isinstance(cast, tuple):
                text = f"{text}: {_shorts(cast)} or one of {', '.join(cast)}"
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, help=text)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    return parser


def _cast(command: str, key: str, cast, raw: str):
    """``raw``, from a flag or a config file, as the option's value: a short or
    full id among those the subcommand runs, a number, or a path."""
    if isinstance(cast, tuple):
        sid = _SHORT_IDS.get(raw, raw)
        if sid not in cast:
            raise ConfigError(f"{command} {key} {raw!r} is not one of {_shorts(cast)} or {cast}")
        return sid
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"config value {key} = {raw!r} is not a valid {cast.__name__}") from None


def _options(args: argparse.Namespace, others=()) -> dict:
    """Each option the subcommand reads, from its flag, else the config file, cast;
    ``others`` are flags of other subcommands' options, refused as a file's keys are."""
    rows = _rows(args.command)
    keys = [row[0] for row in rows]
    if others:
        raise ConfigError(f"{others[0]}: unknown key {_flag_key(others[0])!r} for "
                          f"{args.command} (it reads {', '.join(keys)})")
    file_values = read_config(args.config, keys, args.command) if args.config else {}
    values = {}
    for key, cast, _, _ in rows:
        raw = getattr(args, key)
        raw = file_values.get(key) if raw is None else raw
        if raw is not None:
            values[key] = _cast(args.command, key, cast, raw)
        elif isinstance(cast, tuple):
            raise ConfigError(f"{args.command} needs --{key} {_shorts(cast)} (or a config entry)")
    return values


def _flag_key(flag: str) -> str:
    """The option key a ``--flag`` names."""
    return flag[2:].replace("-", "_")


def main(argv=None) -> int:
    parser = _build_parser()
    words = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(words) - 1, 0, -1):  # argparse reads -1e-3, -inf or -nan as a flag
        if words[i - 1] in _FLAGS and words[i].startswith("-"):
            try:
                float(words[i])
            except ValueError:
                continue
            words[i - 1:i + 1] = [f"{words[i - 1]}={words[i]}"]
    args, extras = parser.parse_known_args(words)
    # a flag of another subcommand's option, as registered, is a ConfigError
    # below; any other word the subcommand does not take is argparse's usage error
    flags = [word.split("=", 1)[0] for word in extras if word.startswith("--")]
    if extras and (not flags or any(f not in _FLAGS for f in flags)):
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        values = _options(args, flags)
        csv_path, svg_path = values.pop("csv", None), values.pop("svg", None)
        config = ScenarioConfig(values.pop("scenario", None) or values.pop("direction"), **values)
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
