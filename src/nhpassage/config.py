"""Plain key=value config files for scenario runs.

One ``key = value`` pair per line; ``#`` starts a comment; blank lines are
ignored.  A subcommand reads only its own keys, the options it also takes
as flags (``cli.OPTIONS`` lists them); any other key is an error.  Short and
full scenario ids both work.  Values stay strings here; the CLI casts them
as it casts flag values.
"""

from __future__ import annotations

from .exceptions import ConfigError

__all__ = ["read_config"]


def read_config(path, keys, command: str) -> dict[str, str]:
    """Parse a key=value file for ``command``, which reads ``keys``; other or
    repeated keys, malformed lines and text that is not UTF-8 are errors."""
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
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {command} "
                              f"(it reads {', '.join(keys)})")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} "
                              f"(first set on line {seen[key][0]})")
        seen[key] = lineno, value
    return {key: value for key, (_, value) in seen.items()}
