"""The option table: every key's domain, named specs included, and every
check across keys is enforced before a runner starts, and docs/config.md
states each default, each bound and each spec form of it."""

import contextlib
import io
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemult import cli
from conemult.config import REQUIRED, Range, Spec, effective_text
from conemult.multipliers import Axis, GridField, save_field

# the header of a Python traceback; a drawn value may be the bare word,
# which an error message echoes
TRACEBACK = "Traceback (most recent call last)"

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
    # in sweep mode the 13 dilations take the step cap past the work cap
    ("opnorm", "budget"): ["--mode=estimate"],
}


class _Reached(Exception):
    """Raised by the stand-in runner: the value passed every check."""


def _reached(opts, outdir, seed):
    raise _Reached


# a line profile inside the support of the named ones
_PROFILE_CSV = "u,value\n-0.25,0\n0,1\n0.25,0\n"


def _run(command, key, value, extra=()):
    """(exit code, stderr) of the command line with ``key`` set, or
    (None, stderr) when it reached the runner.  ``{csv}`` in ``value``
    names a CSV of ``_PROFILE_CSV``."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        csv = os.path.join(tmp, "profile.csv")
        with open(csv, "w") as fh:
            fh.write(_PROFILE_CSV)
        # the key's own value comes last, so it wins over the companions
        argv = [command, *_ALWAYS.get(command, []),
                *_COMPANIONS.get((command, key), []), *extra,
                f"--{key.replace('_', '-')}={value.replace('{csv}', csv)}"]
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


def _spec_cases(spec):
    """(text, code) of each form of ``spec``: its argument at each bound
    and just past it, NaN, unparsable and missing, an argument given to a
    form without one, and names of no form; code None for a spec text."""
    for form, (arg, _) in spec.forms.items():
        name = form.split(":")[0]
        if arg is None:
            yield form, None
            yield form + ":1", 2
            continue
        yield name, 2
        yield name + ":", 2
        if arg == REQUIRED:
            yield name + ":{csv}", None
            continue
        yield name + ":abc", 2
        for end, closed, outward in ((arg.lo, arg.text[0] == "[", -1),
                                     (arg.hi, arg.text[-1] == "]", 1)):
            inside = end if closed else math.nextafter(end, -outward
                                                       * math.inf)
            yield f"{name}:{inside!r}", None
            yield f"{name}:{math.nextafter(inside, outward * math.inf)!r}", 2
        yield name + ":nan", 2
    yield "nosuchform", 2
    yield "onefoo", 2     # a form name's prefix is no form


def _bound_cases():
    for command, table in cli.DEFAULTS.items():
        for key, (default, kind, domain) in table.items():
            if isinstance(domain, Spec):
                for value, code in _spec_cases(domain):
                    yield command, key, value, code
            elif isinstance(domain, Range):
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
    # a key without a domain takes any value of its kind: the one bool
    free = {(command, key) for command, table in cli.DEFAULTS.items()
            for key, (_, kind, domain) in table.items() if domain is None}
    assert free == {("br-scan", "decay_fit")}
    assert len(_CASES) > 200


@pytest.mark.parametrize("command", sorted(cli.DEFAULTS))
def test_bounds_reach_the_runner_and_values_past_them_do_not(no_runner,
                                                             command):
    for _, key, value, code in [c for c in _CASES if c[0] == command]:
        got, err = _run(command, key, value)
        assert got == code, (key, value, err)
        if code is not None:
            assert err.count("\n") == 1 and TRACEBACK not in err, err


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
    assert err.count("\n") == 1 and TRACEBACK not in err, err


_SPECS = [(command, key, domain) for command, table in cli.DEFAULTS.items()
          for key, (_, _, domain) in table.items() if isinstance(domain, Spec)]


def _form_texts(spec, args):
    """Texts of the forms of ``spec``, each argument drawn from ``args``
    (a strategy of the form's argument domain)."""
    return st.sampled_from(sorted(spec.forms)).flatmap(
        lambda form: st.just(form) if spec.forms[form][0] is None else
        args(spec.forms[form][0]).map(
            lambda arg: f"{form.split(':')[0]}:{arg}"))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_text_of_a_spec_key_is_a_form_or_exits_2(data):
    command, key, spec = data.draw(st.sampled_from(_SPECS))
    text = st.text(max_size=12).filter(lambda s: "\x00" not in s)
    value = data.draw(text | _form_texts(spec, lambda _: text))
    saved = cli.RUNNERS
    cli.RUNNERS = {name: _reached for name in cli.DEFAULTS}
    try:
        got, err = _run(command, key, value)
    finally:
        cli.RUNNERS = saved
    assert got in (None, 2), (command, key, value, err)
    if got == 2:
        assert err.count("\n") == 1 and TRACEBACK not in err, err


def _inside(arg):
    """Floats of the argument domain ``arg`` (a ``Range``), its ends half
    the time, or for ``REQUIRED`` the placeholder of a file the run
    writes."""
    if arg == REQUIRED:
        return st.just("{file}")
    lo = arg.lo if arg.text[0] == "[" else math.nextafter(arg.lo, math.inf)
    hi = arg.hi if arg.text[-1] == "]" else math.nextafter(arg.hi, -math.inf)
    return (st.sampled_from([lo, hi]) | st.floats(lo, hi)).map(repr)


# tiny lines and grids, by spec key
_TINY = {
    ("characterize", "profile"): ["--resolution=1024", "--truncation=16",
                                  "--kernel-rho-max=1",
                                  "--spatial-truncation=2"],
    ("characterize", "symbol"): ["--mode=symbol", "--resolution=256",
                                 "--truncation=16", "--spatial-truncation=2",
                                 "--t-lo=0.5", "--t-hi=2",
                                 "--t-per-octave=1"],
    ("opnorm", "multiplier"): ["--resolution=16", "--budget=2"],
    ("apply", "multiplier"): ["--resolution=8", "--ndim=2"],
    ("apply", "input"): ["--resolution=8", "--ndim=2"],
}


@pytest.mark.parametrize("command, key", sorted(_TINY))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_in_domain_spec_arguments_run_to_exit_0_2_or_3(command, key, data):
    value = data.draw(_form_texts(cli.DEFAULTS[command][key][2], _inside))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        if key == "profile":      # knots on [-a, a], a drawn
            a = data.draw(st.floats(0.01, 1.0))
            u = np.linspace(-a, a, data.draw(st.integers(3, 9)))
            with open(path, "w") as fh:
                fh.write("u,value\n" + "".join(
                    f"{x!r},{1.0 - (x / a) ** 2!r}\n" for x in u.tolist()))
        else:                     # a field on the run's grid
            scale = data.draw(st.floats(1e-30, 1e30))
            values = np.random.default_rng(0).standard_normal((8, 8))
            save_field(GridField((Axis(16.0, 8),) * 2, scale * values), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, err = _run(command, key, value.replace("{file}", path),
                            _TINY[command, key])
    assert got in (0, 2, 3), (command, key, value, err)
    assert TRACEBACK not in err
    assert err.count("\n") == (got != 0) or err.startswith("warning:"), err


@pytest.mark.parametrize("text", [text for text, code
                                  in _spec_cases(cli.SYMBOL) if code is None])
def test_symbol_forms_run_at_the_largest_dilation(text):
    # t r reaches 2^511 on the window's support (1/2, 2), each argument at
    # either end of its range
    t_hi = cli.DILATION.hi
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, err = _run("characterize", "symbol", text,
                        [*_TINY["characterize", "symbol"],
                         f"--t-lo={t_hi / 2!r}", f"--t-hi={t_hi!r}"])
    assert got == 0, (text, err)


@pytest.mark.parametrize("argv, what", [
    (["characterize", "--profile", "br:abc"], "'br:abc': LAM = 'abc' is not"),
    (["characterize", "--profile", "br:"], "'br:' is not one of tent, bump"),
    (["characterize", "--mode", "symbol", "--symbol", "br:abc"],
     "symbol = 'br:abc': LAM = 'abc' is not a float"),
    (["characterize", "--mode", "symbol", "--symbol", "br:-1"],
     "LAM = -1.0 is outside (0, inf)"),
    (["opnorm", "--multiplier", "br:x"], "multiplier = 'br:x': LAM = 'x'"),
    (["opnorm", "--multiplier", "onefoo"], "'onefoo' is not one of one, "),
    (["apply", "--input", "gauss:abc"], "WIDTH = 'abc' is not a float"),
    (["apply", "--input", "gauss:0"], "WIDTH = 0.0 is outside [1.49"),
    (["apply", "--input", "gauss:nan"], "WIDTH = nan is outside"),
    (["apply", "--multiplier", "scalar:inf"], "C = inf is outside [-6.70"),
    # the sample line [-h, h) cuts the tent's support (-1/4, 1/4) ...
    (["characterize", "--spatial-truncation", "0.01"], "spatial_truncation"),
    (["characterize", "--spatial-truncation", "1e-300"], "spatial_truncation"),
    (["characterize", "--spatial-truncation",
      repr(math.nextafter(0.25, 0))], "the profile's support (-0.25, 0.25)"),
    # ... or, in mode symbol, the window's (1/2, 2)
    (["characterize", "--mode", "symbol", "--spatial-truncation", "1"],
     "spatial_truncation = 1.0"),
    (["characterize", "--mode", "symbol", "--spatial-truncation", "1e-300"],
     "spatial_truncation"),
    (["characterize", "--mode", "symbol", "--spatial-truncation",
      repr(math.nextafter(2.0, 0))], "cuts the window's support (0.5, 2)"),
    # a profile past the kernel side's radii (0, 0.3)
    (["characterize", "--profile", "csv:{wide}"], "past u = 0.3"),
    # t r past 2^511 on the window's support: br:1.0 would square it
    (["characterize", "--mode", "symbol", "--t-lo", "1e300", "--t-hi",
      "1e301", "--t-per-octave", "1"], "t_lo = 1e+300 is outside (0, 3.35"),
])
def test_named_bad_inputs_exit_2_before_the_output_directory(
        tmp_path, capsys, monkeypatch, argv, what):
    wide = tmp_path / "wide.csv"
    wide.write_text("u,value\n-0.5,0\n0,1\n0.5,0\n")

    def made(*args, **kwargs):
        raise AssertionError("the output directory was made")
    monkeypatch.setattr(os, "makedirs", made)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([a.replace("{wide}", str(wide)) for a in argv]
                        + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1 and what in err, err


@pytest.mark.parametrize("key, value, mode", [
    ("spatial_truncation", "0.25", "profile"),
    ("spatial_truncation", "2.0", "symbol"),
    ("profile", "csv:{csv}", "profile"),   # knots at -0.25 and 0.25
])
def test_a_line_at_the_support_reaches_the_runner(no_runner, key, value,
                                                  mode):
    extra = ["--mode=" + mode, "--spatial-truncation=0.25"]
    assert _run("characterize", key, value, extra) == (None, "")


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
                elif isinstance(domain, Spec):
                    for form, (arg, _) in domain.forms.items():
                        assert f"`{form}`" in meaning, (command, key, form)
                        if arg is not None:
                            assert f"{form.split(':')[1]} " + (
                                "nonempty" if arg == REQUIRED else
                                f"in {arg.text}") in meaning, (key, form)
                elif isinstance(domain, Range):
                    assert domain.text in meaning, (command, key)
                    if domain.pow2:
                        assert "power of two" in meaning, (command, key)
                    if domain.cap is not None:
                        assert re.search(rf"at most {domain.cap}\b.*exit 3",
                                         meaning), (command, key)
