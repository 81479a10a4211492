"""Flat key-value run configuration.

Format (documented in docs/config.md): lines of ``key = value``; ``#``
starts a comment.  Values stay strings until ``resolve`` coerces them and
checks them against a subcommand's option table, so an effective config
can be echoed back out and reread identically.
"""

import functools

from .errors import BudgetError, ConfigError

REQUIRED = "required"   # the domain of a key that needs a nonempty value


class Range:
    """The admissible values of a key: an interval such as "[2, inf)", only
    its powers of two with ``pow2``.  A value outside is a config error
    worded by ``message``; one past ``cap``, a work bound, a budget error."""

    def __init__(self, text, message="{key} = {value!r} is outside {text}",
                 pow2=False, cap=None):
        self.text, self.message, self.pow2, self.cap = text, message, pow2, cap
        self.lo, self.hi = (float(end) for end in text[1:-1].split(","))

    def check(self, key, value):
        low = value >= self.lo if self.text[0] == "[" else value > self.lo
        high = value <= self.hi if self.text[-1] == "]" else value < self.hi
        if not (low and high):
            raise ConfigError(self.message.format(key=key, value=value,
                                                  text=self.text))
        if self.pow2 and value & (value - 1):
            raise ConfigError(f"{key} = {value} is not a power of two")
        if self.cap is not None and value > self.cap:
            raise BudgetError(f"{key} = {value} exceeds the cap {self.cap}")


class Spec:
    """The admissible values of a named spec: ``forms`` maps each form as
    written (``tent``, ``br:LAM``) to the domain of its argument (a
    ``Range`` of floats, ``REQUIRED`` for nonempty text such as a path, or
    None for no argument) and its builder, which takes the argument, then
    the context its caller passes."""

    def __init__(self, forms):
        self.forms = forms

    def parse(self, key, text):
        """``text`` as a ``Named`` of its form, or a config error."""
        name, colon, arg = text.partition(":")
        form = next((f for f in self.forms if f.split(":")[0] == name), "")
        domain, builder = self.forms.get(form, (None, None))
        if builder is None or (domain is None) == bool(colon) or \
                (colon and not arg):
            raise ConfigError(f"{key} = {text!r} is not one of "
                              f"{', '.join(self.forms)}")
        if isinstance(domain, Range):
            what = f"{key} = {text!r}: {form.split(':')[1]}"
            try:
                arg = float(arg)
            except ValueError:
                raise ConfigError(f"{what} = {arg!r} is not a float") from None
            domain.check(what, arg)
        named = Named(text)
        named.build = functools.partial(
            builder, *(() if domain is None else (arg,)))
        return named


class Named(str):
    """A spec value as written, whose ``build(*context)`` is its form's
    builder given its argument; ``built``, the object built without
    context, is made once, so a file that a check reads is not read again."""

    @functools.cached_property
    def built(self):
        return self.build()


class Options(dict):
    """A subcommand's keys, name -> (default, kind, domain), the domain a
    ``Range``, a tuple of choices, a ``Spec``, ``REQUIRED`` or None, and
    its checks across keys, name -> a function of the options raising its
    error."""

    def __init__(self, keys, checks):
        super().__init__(keys)
        self.checks = checks


def require(holds, message, code=2):
    """The check that ``holds(opts)``, else ``message`` formatted with the
    opts is a config error (``code`` 2) or a budget error (3)."""
    def check(opts):
        if not holds(opts):
            raise (BudgetError if code == 3 else ConfigError)(
                message.format(**opts))
    return check


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
            return float(value)
        if kind is int:
            return int(str(value), 0)
        if kind is str:
            return str(value)
        if kind == "float_list":
            return [float(tok) for tok in str(value).split(",")
                    if tok.strip()]
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r}: cannot parse {value!r} as "
                          f"{getattr(kind, '__name__', kind)}") from None
    raise ConfigError(f"config key {key!r}: unsupported type {kind!r}")


def resolve(table, file_values, overrides):
    """defaults < config file < command-line overrides, typed per the
    ``Options`` table; unknown keys are rejected so typos cannot silently
    pass.  Then each key is checked against its domain (a list entry by
    entry; a spec is kept as its ``Named``), in table order, and last the
    checks across keys."""
    merged = {key: default for key, (default, _, _) in table.items()}
    for source in (file_values, overrides):
        for key, value in source.items():
            if key not in table:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = coerce(value, table[key][1], key)
    for key, (_, _, domain) in table.items():
        value = merged[key]
        if value == [] or (domain == REQUIRED and not value):
            raise ConfigError(f"{key} is empty: it needs a value")
        if isinstance(domain, Range):
            for entry in value if isinstance(value, list) else [value]:
                domain.check(key, entry)
        elif isinstance(domain, tuple) and value not in domain:
            raise ConfigError(f"{key} = {value!r} is not one of "
                              f"{', '.join(domain)}")
        elif isinstance(domain, Spec):
            merged[key] = domain.parse(key, value)
    for check in table.checks.values():
        check(merged)
    return merged


def effective_text(merged):
    """Echo of the resolved config, reread-identical: floats as their repr
    (``inf`` included), lists comma-separated."""
    return "".join(
        f"{key} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
        for key, v in sorted(merged.items()))
