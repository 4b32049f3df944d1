"""Plain key=value config files for scenario runs.

One ``key = value`` pair per line; ``#`` starts a comment; blank lines are
ignored.  Recognized keys mirror the CLI flags: ``scenario``,
``direction``, ``loops``, ``T``, ``dt``, ``gamma_scale``, ``tolerance``,
``csv``, ``svg``.  Values stay strings here; the CLI casts them.
"""

from __future__ import annotations

from .exceptions import ConfigError

__all__ = ["KNOWN_KEYS", "read_config"]

KNOWN_KEYS = (
    "scenario", "direction", "loops", "T", "dt",
    "gamma_scale", "tolerance", "csv", "svg",
)


def read_config(path) -> dict[str, str]:
    """Parse a key=value file; unknown or repeated keys, malformed lines and
    text that is not UTF-8 are errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    seen: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} "
                              f"(first set on line {seen[key][0]})")
        seen[key] = lineno, value
    return {key: value for key, (_, value) in seen.items()}
