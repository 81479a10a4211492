"""Flat key-value run configuration.

Format (documented in docs/config.md): lines of ``key = value``; ``#``
starts a comment.  Values stay strings until a subcommand coerces them
against its declared defaults, so an effective config can be echoed back
out and reread identically.
"""

import math

from .errors import ConfigError


def parse_config_text(text):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path):
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def dump_config(values):
    lines = [f"{k} = {values[k]}" for k in sorted(values)]
    return "\n".join(lines) + "\n"


def coerce(value, kind, key):
    """Coerce a string config value against a declared type."""
    try:
        if kind is bool:
            if str(value).lower() in ("1", "true", "yes", "on"):
                return True
            if str(value).lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        if kind is float:
            if str(value).lower() in ("inf", "infinity"):
                return math.inf
            return float(value)
        if kind is int:
            return int(str(value), 0)
        if kind is str:
            return str(value)
        if kind == "float_list":
            return [math.inf if tok.strip().lower() == "inf" else float(tok)
                    for tok in str(value).split(",") if tok.strip()]
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r}: cannot parse {value!r} as "
                          f"{getattr(kind, '__name__', kind)}") from None
    raise ConfigError(f"config key {key!r}: unsupported type {kind!r}")


def resolve(defaults, file_values, overrides):
    """defaults < config file < command-line overrides; values typed per defaults.

    ``defaults`` maps key -> (default_value, kind); the file and the
    overrides map keys to strings.  Unknown keys in either are rejected so
    typos cannot silently pass.
    """
    merged = {}
    for key, (default, _) in defaults.items():
        merged[key] = default
    for source in (file_values, overrides):
        for key, value in source.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = coerce(value, defaults[key][1], key)
    return merged


def effective_text(merged):
    """Echo of the resolved config, reread-identical."""
    out = {}
    for key, value in merged.items():
        if isinstance(value, list):
            out[key] = ",".join(repr(v) if isinstance(v, float) else str(v)
                                for v in value)
        elif isinstance(value, float):
            out[key] = "inf" if math.isinf(value) else repr(value)
        else:
            out[key] = str(value)
    return dump_config(out)
