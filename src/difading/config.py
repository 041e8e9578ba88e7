"""Flat `key = value` text against a schema: command configs and codebook headers.

Values are typed by the schema; unknown keys are errors so misspellings never
silently fall back to defaults.  Lists are comma separated.  Float values must
be finite: nan and inf are refused.  The schema is the one judge of a value on
its own: a field may carry an interval, written as its error prints it
("[2, inf)", "(0, 1]"), and a tuple of choices.  `resolve` checks every value,
and each item of a list, against them, and a required list must not be empty.
`codec` reads the header of a codebook file here and re-raises a `ConfigError`
as a plain `ValueError`: a malformed codebook is no config mistake.
"""

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Malformed configuration: unknown key, bad type, or missing requirement."""


_MISSING = object()


@dataclass(frozen=True)
class Field:
    """One config key: its type tag, default (required when no default) and allowed values."""

    type: str  # "int" | "float" | "str" | "bool" | "ints" | "floats" | "strs"
    default: object = _MISSING
    interval: str | None = None  # the numbers allowed, e.g. "[0, 1)"
    choices: tuple = ()  # the strings allowed, when not empty


def _inside(interval: str, x) -> bool:
    """Whether x lies in an interval written like "[2, inf)" or "(0, 1]"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo <= x if interval[0] == "[" else lo < x
    return above and (x <= hi if interval[-1] == "]" else x < hi)


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _convert(key: str, raw: str, type_tag: str):
    try:
        if type_tag == "int":
            return int(raw)
        if type_tag == "float":
            return _finite_float(raw)
        if type_tag == "str":
            return raw
        if type_tag == "bool":
            lowered = raw.lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        items = [part.strip() for part in raw.split(",") if part.strip()]
        if type_tag == "ints":
            return [int(item) for item in items]
        if type_tag == "floats":
            return [_finite_float(item) for item in items]
        if type_tag == "strs":
            return items
    except ValueError as exc:
        raise ConfigError(f"parameter {key!r}: {exc}") from None
    raise ConfigError(f"parameter {key!r} has unknown type tag {type_tag!r}")


def parse_config_text(text: str, schema: dict, source: str = "<config>") -> dict:
    """Parse `key = value` lines against the schema; returns a plain dict."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.split("#", 1)[0].strip()
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigError(f"{source}:{lineno}: unknown parameter {key!r} (known: {known})")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate parameter {key!r}")
        values[key] = _convert(key, raw, schema[key].type)
    return values


def resolve(schema: dict, file_values: dict, overrides: dict) -> dict:
    """Apply defaults, then file values, then overrides; check required keys and allowed values."""
    given = {key: value for key, value in overrides.items() if value is not None}
    for key in given:
        if key not in schema:
            raise ConfigError(f"unknown override parameter {key!r}")
    values = {**file_values, **given}
    resolved = {}
    for key, field in schema.items():
        value = values.get(key, field.default)
        if value is _MISSING or (value == [] and field.default is _MISSING):
            raise ConfigError(f"missing required parameter {key!r}")
        for item in value if isinstance(value, list) else [value]:
            if field.choices and item not in field.choices:
                raise ConfigError(f"parameter {key!r}: {item!r} is not one of {field.choices}")
            if field.interval and item is not None and not _inside(field.interval, item):
                raise ConfigError(f"parameter {key!r}: {item!r} is outside {field.interval}")
        resolved[key] = value
    return resolved


def load_config(path, schema: dict) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, schema, source=str(path))
