"""The option table: every key's domain and every check across keys is
enforced before a runner starts, and docs/config.md states each default
and each bound of it."""

import contextlib
import io
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemult import cli
from conemult.config import REQUIRED, Range, effective_text

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                    "config.md")

# overrides a bound needs to pass the checks across keys (or, for
# lorentz-norm, the required input), by subcommand and by (subcommand, key)
_ALWAYS = {"lorentz-norm": ["--input=samples.csv"]}
_COMPANIONS = {
    ("wave-check", "n_lo"): ["--n-hi=12"],
    ("wave-check", "n_hi"): ["--n-lo=1"],
    # 64^4 cells reach the witness-work cap at the default budget
    ("opnorm", "ndim"): ["--resolution=16"],
}


class _Reached(Exception):
    """Raised by the stand-in runner: the value passed every check."""


def _reached(opts, outdir, seed):
    raise _Reached


def _run(command, key, value):
    """(exit code, stderr) of the command line with ``key`` set, or
    (None, stderr) when it reached the runner."""
    # the key's own value comes last, so it wins over the companions
    argv = [command, *_ALWAYS.get(command, []),
            *_COMPANIONS.get((command, key), []),
            f"--{key.replace('_', '-')}={value}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main([*argv, "--out", os.path.join(tmp, "out")])
        except _Reached:
            code = None
    return code, err.getvalue()


@pytest.fixture()
def no_runner(monkeypatch):
    monkeypatch.setattr(cli, "RUNNERS",
                        {command: _reached for command in cli.DEFAULTS})


def _text(value, kind):
    return repr(float(value)) if kind in (float, "float_list") \
        else str(int(value))


def _next(value, kind, direction):
    if kind is int:
        return value + direction
    return math.nextafter(value, direction * math.inf)


def _range_cases(rng, kind):
    """(value, code) of each bound of ``rng`` and of the value just past
    it; code None for a value that lies in the range."""
    for end, closed, outward in ((rng.lo, rng.text[0] == "[", -1),
                                 (rng.hi, rng.text[-1] == "]", 1)):
        if math.isinf(end) and kind is int:
            continue
        if closed:
            yield end, None
            if not math.isinf(end):
                yield _next(end, kind, outward), 2
        else:
            yield end, 2
    if kind is not int:
        yield math.nan, 2
    if rng.pow2:
        yield rng.lo + 1, 2   # not a power of two
    if rng.cap is not None:
        yield rng.cap, None
        yield 2 * rng.cap if rng.pow2 else _next(rng.cap, kind, 1), 3


def _bound_cases():
    for command, table in cli.DEFAULTS.items():
        for key, (default, kind, domain) in table.items():
            if isinstance(domain, Range):
                for value, code in _range_cases(domain, kind):
                    yield command, key, _text(value, kind), code
            elif isinstance(domain, tuple):
                yield from ((command, key, choice, None) for choice in domain)
                yield command, key, "none-of-these", 2
            elif domain == REQUIRED:
                yield command, key, "", 2
                yield command, key, "samples.csv", None


_CASES = list(_bound_cases())


def test_every_key_of_the_table_declares_a_domain_or_is_a_spec():
    # keys without a domain take any value of their kind: named specs,
    # parsed (and rejected with exit 2) by the runner's building blocks,
    # and the one bool
    free = {(command, key) for command, table in cli.DEFAULTS.items()
            for key, (_, kind, domain) in table.items() if domain is None}
    assert free == {("characterize", "profile"), ("characterize", "symbol"),
                    ("br-scan", "decay_fit"), ("opnorm", "multiplier"),
                    ("apply", "multiplier"), ("apply", "input")}
    assert len(_CASES) > 100


@pytest.mark.parametrize("command", sorted(cli.DEFAULTS))
def test_bounds_reach_the_runner_and_values_past_them_do_not(no_runner,
                                                             command):
    for _, key, value, code in [c for c in _CASES if c[0] == command]:
        got, err = _run(command, key, value)
        assert got == code, (key, value, err)
        if code is not None:
            assert err.count("\n") == 1 and "Traceback" not in err, err


def _outside(domain, kind):
    """(text, code) strategies of values outside ``domain``, at any
    distance from its bounds."""
    floats = kind in (float, "float_list")
    parts = []
    if isinstance(domain, tuple):
        return st.text(min_size=1, max_size=8).filter(
            lambda s: s not in domain and "\x00" not in s).map(
                lambda s: (s, 2))
    if not math.isinf(domain.lo):
        closed = domain.text[0] == "["
        parts.append(st.floats(max_value=domain.lo, exclude_max=closed,
                               allow_nan=False) if floats else
                     st.integers(max_value=int(domain.lo) - closed))
    if not math.isinf(domain.hi):
        closed = domain.text[-1] == "]"
        parts.append(st.floats(min_value=domain.hi, exclude_min=closed,
                               allow_nan=False) if floats else
                     st.integers(min_value=int(domain.hi) + closed))
    elif domain.text[-1] == ")" and floats:
        parts.append(st.just(math.inf))
    outside = st.one_of(parts).map(lambda v: (_text(v, kind), 2))
    if domain.cap is not None:
        over = st.integers(int(domain.cap) + 1, 2 ** 62)
        if domain.pow2:
            over = st.integers(domain.cap.bit_length(), 62).map(
                lambda k: 2 ** k)
        outside |= over.map(lambda v: (_text(v, kind), 3))
    if domain.pow2:
        outside |= st.integers(3, 2 ** 40).filter(
            lambda v: v & (v - 1)).map(lambda v: (str(v), 2))
    return outside


_RANGED = [(command, key, kind, domain)
           for command, table in cli.DEFAULTS.items()
           for key, (_, kind, domain) in table.items()
           if isinstance(domain, (Range, tuple))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_value_outside_a_domain_exits_with_its_code(data):
    command, key, kind, domain = data.draw(st.sampled_from(_RANGED))
    value, code = data.draw(_outside(domain, kind))
    saved = cli.RUNNERS
    cli.RUNNERS = {name: _reached for name in cli.DEFAULTS}
    try:
        got, err = _run(command, key, value)
    finally:
        cli.RUNNERS = saved
    assert got == code, (command, key, value, err)
    assert err.count("\n") == 1 and "Traceback" not in err, err


@pytest.mark.parametrize("threshold", ["nan", "-1"])
def test_apply_wrap_threshold_is_a_mass_fraction(tmp_path, capsys,
                                                 threshold):
    out = tmp_path / "a"
    assert cli.main(["apply", "--out", str(out), "--resolution", "8",
                     "--wrap-threshold", threshold]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "wrap_threshold" in err
    assert not out.exists()


# -- docs/config.md ------------------------------------------------------------


def _doc_rows():
    """command -> [(keys, defaults, meaning)] of docs/config.md's key tables."""
    with open(DOCS) as fh:
        text = fh.read().split("## Keys per subcommand", 1)[1]
    rows = {}
    for section in text.split("\n### ")[1:]:
        command = section.split("\n", 1)[0].strip()
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split(" | ")]
            if line.startswith("|") and len(cells) == 3 and \
                    cells[0] not in ("key", "-----"):
                keys, defaults = cells[0].split(", "), cells[1].split(", ")
                rows.setdefault(command, []).append((keys, defaults,
                                                     cells[2]))
    return rows


def _echo(key, default):
    return effective_text({key: default}).split(" = ", 1)[1].rstrip("\n")


def test_docs_state_every_default_and_every_bound_of_the_table():
    rows = _doc_rows()
    assert set(rows) == set(cli.DEFAULTS)
    for command, table in cli.DEFAULTS.items():
        documented = [key for keys, _, _ in rows[command] for key in keys]
        assert sorted(documented) == sorted(table), command
        for keys, defaults, meaning in rows[command]:
            assert len(defaults) == len(keys), (command, keys)
            for key, shown in zip(keys, defaults):
                default, _, domain = table[key]
                want = "(required)" if domain == REQUIRED \
                    else _echo(key, default)
                assert shown == want, (command, key)
                if isinstance(domain, tuple):
                    assert all(f"`{c}`" in meaning for c in domain), key
                elif isinstance(domain, Range):
                    assert domain.text in meaning, (command, key)
                    if domain.pow2:
                        assert "power of two" in meaning, (command, key)
                    if domain.cap is not None:
                        assert re.search(rf"at most {domain.cap}\b.*exit 3",
                                         meaning), (command, key)
