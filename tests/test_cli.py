import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemult import cli
from conemult.cli import main
from conemult.config import (ConfigError, coerce, parse_config_text,
                             resolve)
from conemult.multipliers import freq_magnitude, load_field


def run_cli(args):
    return main(list(args))


def read_summary(outdir):
    with open(os.path.join(outdir, "summary.json")) as fh:
        return json.load(fh)


@pytest.fixture()
def sample_csv(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("value,weight\n1,1\n2,1\n")
    return str(path)


def test_lorentz_norm_prints_sqrt5(tmp_path, sample_csv, capsys):
    out = str(tmp_path / "run")
    assert run_cli(["lorentz-norm", "--out", out, "--input", sample_csv,
                    "--p", "2", "--nu", "2"]) == 0
    printed = capsys.readouterr().out.strip()
    assert math.isclose(float(printed), math.sqrt(5.0), rel_tol=1e-12)
    summary = read_summary(out)
    assert math.isclose(summary["quasinorm"], math.sqrt(5.0), rel_tol=1e-12)


def test_br_scan_summary_contains_prediction(tmp_path):
    out = str(tmp_path / "scan")
    assert run_cli(["br-scan", "--out", out, "--p-list", "1.142857142857143",
                    "--lam-lo", "0.5", "--lam-hi", "1.5", "--lam-step", "0.25",
                    "--truncation", "8192", "--resolution", "65536",
                    "--decay-fit", "false"]) == 0
    summary = read_summary(out)
    entry = summary["per_p"][0]
    assert math.isclose(entry["prediction"], 1.0, abs_tol=1e-9)
    assert entry["identity_gap"] == 0.0
    assert os.path.exists(os.path.join(out, "scan_p1.14286.csv"))


def test_wave_check_writes_per_scale_tables(tmp_path):
    out = str(tmp_path / "wave")
    assert run_cli(["wave-check", "--out", out, "--dim", "2",
                    "--n-lo", "2", "--n-hi", "3"]) == 0
    summary = read_summary(out)
    assert set(summary["omega_l1"]) == {"2", "3"}
    assert os.path.exists(os.path.join(out, "omega_n2.csv"))
    assert os.path.exists(os.path.join(out, "error_n3.csv"))


def test_apply_writes_loadable_field(tmp_path):
    out = str(tmp_path / "apply")
    assert run_cli(["apply", "--out", out, "--ndim", "2", "--extent", "8",
                    "--resolution", "16", "--input", "gauss:0.5",
                    "--multiplier", "scalar:0.5"]) == 0
    summary = read_summary(out)
    assert summary["energy_bound_ok"]
    assert math.isclose(summary["output_l2"], 0.5 * summary["input_l2"],
                        rel_tol=1e-6)
    field = load_field(os.path.join(out, "output_field.cmf"))
    assert field.rep == "space"
    assert field.axes[0].resolution == 16
    assert os.path.exists(os.path.join(out, "output_field.csv"))


def test_apply_roundtrip_through_field_input(tmp_path):
    out1 = str(tmp_path / "first")
    run_cli(["apply", "--out", out1, "--ndim", "2", "--extent", "8",
             "--resolution", "16", "--input", "gauss:0.5",
             "--multiplier", "one"])
    out2 = str(tmp_path / "second")
    field_path = os.path.join(out1, "output_field.cmf")
    assert run_cli(["apply", "--out", out2, "--ndim", "2", "--extent", "8",
                    "--resolution", "16",
                    "--input", f"field:{field_path}",
                    "--multiplier", "scalar:2.0"]) == 0
    s1, s2 = read_summary(out1), read_summary(out2)
    assert math.isclose(s2["output_l2"], 2.0 * s1["output_l2"], rel_tol=1e-5)


def test_sph_probe_summary(tmp_path):
    out = str(tmp_path / "sph")
    assert run_cli(["sph-probe", "--out", out, "--dim", "2", "--shells", "6",
                    "--r-hi", "3", "--budget", "9",
                    "--radius0", "0.125"]) == 0
    summary = read_summary(out)
    assert summary["estimate"]["lower_bound"] > 0
    assert os.path.exists(os.path.join(out, "shell_l1.csv"))


def test_opnorm_identity(tmp_path):
    out = str(tmp_path / "op")
    assert run_cli(["opnorm", "--out", out, "--mode", "estimate",
                    "--multiplier", "one", "--ndim", "2", "--extent", "8",
                    "--resolution", "16", "--budget", "9", "--p", "2",
                    "--nu", "2"]) == 0
    assert abs(read_summary(out)["lower_bound"] - 1.0) <= 1e-9


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(["no-such-command"]) == 2


def test_missing_input_exits_2(tmp_path, capsys):
    assert run_cli(["lorentz-norm", "--out", str(tmp_path / "x"),
                    "--input", "/definitely/not/there.csv"]) == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 3\n")
    assert run_cli(["wave-check", "--config", str(cfg),
                    "--out", str(tmp_path / "w")]) == 2


def test_budget_error_exits_3(tmp_path, capsys):
    assert run_cli(["sph-probe", "--out", str(tmp_path / "s"), "--dim", "2",
                    "--shells", "80", "--radius0", "0.125"]) == 3


def test_wave_scale_out_of_range_exits_2(tmp_path, capsys):
    assert run_cli(["wave-check", "--out", str(tmp_path / "w"), "--dim", "2",
                    "--n-lo", "12", "--n-hi", "13"]) == 2


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.count("\n") == 1 and "Traceback" not in err


def _one_line_error_text(err):
    return err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["--lam-step", "0"],
    ["--lam-step", "-0.1"],
    ["--lam-lo", "1.5", "--lam-hi", "0.5"],
    ["--lam-hi", "inf"],
])
def test_br_scan_bad_order_grid_exits_2(tmp_path, capsys, args):
    assert run_cli(["br-scan", "--out", str(tmp_path / "s"), *args]) == 2
    assert _one_line_error(capsys)


@pytest.mark.parametrize("args", [
    ["--t-lo", "4", "--t-hi", "1"],
    ["--t-lo", "0"],
    ["--t-hi", "inf"],
    ["--t-per-octave", "0"],
])
def test_characterize_symbol_bad_dilation_range_exits_2(tmp_path, capsys,
                                                        args):
    assert run_cli(["characterize", "--out", str(tmp_path / "c"),
                    "--mode", "symbol", *args]) == 2
    assert _one_line_error(capsys)


@pytest.mark.parametrize("args", [
    ["br-scan", "--lam-step", "1e-9"],
    ["characterize", "--mode", "symbol", "--t-per-octave", "1000000000"],
])
def test_oversized_scan_grid_exits_3(tmp_path, capsys, args):
    # both grids would take gigabytes; the cap is checked before they exist
    assert run_cli([*args, "--out", str(tmp_path / "s")]) == 3
    assert _one_line_error(capsys)


def test_wave_check_budget_checked_before_any_scale(tmp_path, capsys,
                                                    monkeypatch):
    # in even dim scale 11 is past the term budget; 9 and 10 take seconds
    computed = []
    monkeypatch.setattr(cli, "decompose",
                        lambda n, dim: computed.append(n))
    assert run_cli(["wave-check", "--out", str(tmp_path / "w"), "--dim", "2",
                    "--n-lo", "9", "--n-hi", "11"]) == 3
    assert computed == []
    assert _one_line_error(capsys)


@pytest.mark.parametrize("args", [
    ["--spreads", "0"],
    ["--spreads", "0.25,nan"],
    ["--spreads", ","],
    ["--r-hi", "inf"],
    ["--shells", "0"],
    ["--radius0", "0"],
    ["--vanishing-order", "-1"],
])
def test_sph_probe_bad_input_exits_2(tmp_path, capsys, args):
    assert run_cli(["sph-probe", "--out", str(tmp_path / "s"), *args]) == 2
    assert _one_line_error(capsys)


def test_sph_probe_oversized_radius_grid_exits_3(tmp_path, capsys):
    assert run_cli(["sph-probe", "--out", str(tmp_path / "s"),
                    "--r-hi", "100000"]) == 3
    assert _one_line_error(capsys)


def test_apply_truncated_field_input_exits_2(tmp_path, capsys):
    out1 = str(tmp_path / "first")
    assert run_cli(["apply", "--out", out1, "--ndim", "2", "--extent", "8",
                    "--resolution", "16", "--input", "gauss:0.5",
                    "--multiplier", "one"]) == 0
    capsys.readouterr()
    path = tmp_path / "cut.cmf"
    data = (tmp_path / "first" / "output_field.cmf").read_bytes()
    path.write_bytes(data[:-8])
    assert run_cli(["apply", "--out", str(tmp_path / "second"), "--ndim",
                    "2", "--extent", "8", "--resolution", "16",
                    "--input", f"field:{path}", "--multiplier", "one"]) == 2
    assert _one_line_error(capsys)


def test_opnorm_ndim_outside_grid_range_exits_2(tmp_path, capsys):
    # tiny resolution: a regression that allocated first would stay small
    assert run_cli(["opnorm", "--out", str(tmp_path / "o"), "--ndim", "5",
                    "--resolution", "4"]) == 2
    assert _one_line_error(capsys)


def test_br_scan_grid_short_of_truncation_exits_2(tmp_path, capsys):
    # 1024 points on [-4, 4) reach |s| = 401, far short of R/8 = 2048
    out = tmp_path / "s"
    assert run_cli(["br-scan", "--out", str(out), "--resolution", "1024"]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "raise the resolution" in err
    assert "|s| = 401 < R = 2048;" in err     # the smallest short rung
    assert not out.exists()


@pytest.mark.parametrize("args, what", [
    (["characterize", "--spatial-truncation", "inf"],
     "spatial truncation must be finite"),
    (["characterize", "--mode", "symbol", "--spatial-truncation", "inf"],
     "spatial truncation must be finite"),
    (["br-scan", "--truncation", "nan"], "R = nan must be finite"),
    (["characterize", "--truncation", "nan"], "R = nan must be finite"),
    (["characterize", "--mode", "symbol", "--truncation", "nan"],
     "R = nan must be finite"),
])
def test_non_finite_truncation_exits_2(tmp_path, capsys, args, what):
    assert run_cli([*args, "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and what in err


def test_opnorm_sweep_containment_holds_at_small_budget(tmp_path):
    # the budget reaches 2 of the 13 swept dilations; the rest are scored free
    out = str(tmp_path / "o")
    assert run_cli(["opnorm", "--out", out, "--multiplier", "oscillatory:3",
                    "--budget", "3"]) == 0
    summary = read_summary(out)
    assert summary["containment_ok"]
    assert summary["ratio_band"] >= 1.0 - 1e-12


def test_threads_flag_is_gone(tmp_path, capsys):
    assert run_cli(["wave-check", "--out", str(tmp_path / "w"),
                    "--threads", "2"]) == 2


@pytest.mark.parametrize("text, line", [
    ("value,weight\n1,1\n2\n", 3),           # short row
    ("value,weight\n1,1,5\n", 2),             # long row
    ("value,weight\n1,1\n\n2,abc\n", 4),     # not a number
    ("value,w\n1,1\n", 1),                    # missing column
    ("", None),                                # no header
])
def test_lorentz_norm_malformed_csv_exits_2(tmp_path, capsys, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert run_cli(["lorentz-norm", "--out", str(tmp_path / "run"),
                    "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err)
    where = str(path) if line is None else f"{path}:{line}:"
    assert where in err


def test_csv_line_profile_ragged_row_exits_2(tmp_path, capsys):
    path = tmp_path / "prof.csv"
    path.write_text("u,value\n-0.25,0\n0\n0.25,0\n")
    assert run_cli(["characterize", "--out", str(tmp_path / "c"),
                    "--profile", f"csv:{path}"]) == 2
    err = capsys.readouterr().err
    assert f"{path}:3:" in err and _one_line_error_text(err)


@pytest.mark.parametrize("args, code", [
    (["lorentz-norm", "--input", "/definitely/not/there.csv"], 2),
    (["br-scan", "--lam-step", "1e-9"], 3),
])
def test_failed_run_removes_only_the_empty_directory_it_made(
        tmp_path, capsys, args, code):
    made = tmp_path / "made"
    assert run_cli([*args, "--out", str(made)]) == code
    assert not made.exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    assert run_cli([*args, "--out", str(kept)]) == code
    assert kept.is_dir()


_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.text(alphabet="0123456789.-+eEnaif x,\"", max_size=6))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_CELLS, min_size=0, max_size=4), max_size=6),
       st.sampled_from(["value,weight", "weight,value", "value", ""]))
def test_lorentz_norm_any_samples_csv_exits_0_or_2(rows, header):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n" + "\n".join(",".join(r) for r in rows))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["lorentz-norm", "--input", path,
                         "--out", os.path.join(tmp, "run")])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("spec", ["br:2.0", "gauss", "one", "oscillatory:3"])
def test_radial_grid_multiplier_is_the_symbol_on_the_grid(spec):
    axes = cli.build_axes(8.0, 16, 2)
    mult = cli.grid_multiplier(spec, axes)
    assert mult.rep == "frequency"
    want = np.asarray(cli.radial_symbol(spec)(freq_magnitude(axes)),
                      dtype=complex)
    assert np.array_equal(mult.values, want)


def test_config_file_resolution_and_echo(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ndim = 2\nn_lo = 2\nn_hi = 3\n")
    out1 = str(tmp_path / "a")
    assert run_cli(["wave-check", "--config", str(cfg), "--out", out1]) == 0
    # rerun from the echoed effective config: identical summary bytes
    out2 = str(tmp_path / "b")
    echo = os.path.join(out1, "config_echo.cfg")
    assert run_cli(["wave-check", "--config", echo, "--out", out2]) == 0
    with open(os.path.join(out1, "summary.json"), "rb") as fh:
        b1 = fh.read()
    with open(os.path.join(out2, "summary.json"), "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


def test_cli_override_beats_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 2\nn_lo = 2\nn_hi = 2\n")
    out = str(tmp_path / "o")
    assert run_cli(["wave-check", "--config", str(cfg), "--out", out,
                    "--n-hi", "3"]) == 0
    assert set(read_summary(out)["omega_l1"]) == {"2", "3"}


def test_entrypoint_subprocess_smoke(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    res = subprocess.run([sys.executable, "-m", "conemult", "wave-check",
                          "--out", str(tmp_path / "w"), "--dim", "2",
                          "--n-lo", "2", "--n-hi", "2"],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0
    assert os.path.exists(tmp_path / "w" / "summary.json")
    assert os.path.exists(tmp_path / "w" / "run_meta.json")


# -- config machinery ----------------------------------------------------------


def test_parse_config_sections_and_comments():
    text = "a = 1 # trailing\n[sec]\nb = two\n"
    assert parse_config_text(text) == {"a": "1", "sec.b": "two"}


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")


def test_coerce_types():
    assert coerce("inf", float, "k") == math.inf
    assert coerce("0x10", int, "k") == 16
    assert coerce("true", bool, "k") is True
    assert coerce("1.0,2.5", "float_list", "k") == [1.0, 2.5]
    with pytest.raises(ConfigError):
        coerce("abc", float, "k")


def test_resolve_precedence():
    defaults = {"a": (1.0, float), "b": ("x", str)}
    merged = resolve(defaults, {"a": "2.0"}, {"b": "y"})
    assert merged == {"a": 2.0, "b": "y"}
    with pytest.raises(ConfigError):
        resolve(defaults, {"zzz": "1"}, {})
