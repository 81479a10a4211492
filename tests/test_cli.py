import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemult import bochner, characterize, cli, wave
from conemult.cli import main
from conemult.config import (ConfigError, Options, coerce,
                             parse_config_text, resolve)
from conemult.errors import DomainError
from conemult.multipliers import MAX_GRID_CELLS, freq_magnitude, load_field
from conemult.opnorm import MAX_SEARCH_STEPS


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


@pytest.mark.parametrize("args", [
    # every ratio was NaN, so the search reported lower_bound 0.0
    ["opnorm", "--mode", "estimate", "--nu", "1e300"],
    # total ** (1 / nu) raised OverflowError
    ["lorentz-norm", "--p", "1e-300", "--nu", "1e-300"],
    # an L^p norm's root, or the sweep's weight t^(d/p), raised OverflowError
    ["opnorm", "--p", "1e-3"],
    ["opnorm", "--mode", "estimate", "--p", "1e-3"],
    ["opnorm", "--ndim", "3", "--resolution", "16", "--p", "0.01"],
    ["opnorm", "--extent", "0.5", "--p", "0.01"],
])
def test_quasinorm_out_of_the_float_range_exits_2(tmp_path, capsys,
                                                  sample_csv, args):
    import warnings
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy warning fails the run
        assert run_cli([*args, "--input", sample_csv, "--out", str(out)]
                       if args[0] == "lorentz-norm" else
                       [*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "float range" in err
    # a quasi-norm names both exponents, an L^p norm's power p alone
    assert "p = " in err and ("nu = " in err) == ("--nu" in args)
    assert not out.exists()


def test_br_scan_summary_contains_prediction(tmp_path):
    out = str(tmp_path / "scan")
    assert run_cli(["br-scan", "--out", out, "--p-list", "1.142857142857143",
                    "--lam-lo", "0.5", "--lam-hi", "1.5", "--lam-step", "0.25",
                    "--truncation", "8192", "--resolution", "65536",
                    "--decay-fit", "false"]) == 0
    summary = read_summary(out)
    entry = summary["per_p"][0]
    assert math.isclose(entry["prediction"], 1.0, abs_tol=1e-9)
    assert os.path.exists(os.path.join(out, "scan_p1.14286.csv"))


def test_wave_check_writes_per_scale_tables(tmp_path):
    out = str(tmp_path / "wave")
    assert run_cli(["wave-check", "--out", out, "--dim", "2",
                    "--n-lo", "2", "--n-hi", "3"]) == 0
    summary = read_summary(out)
    assert set(summary["omega_l1"]) == {"2", "3"}
    assert os.path.exists(os.path.join(out, "omega_n2.csv"))
    assert os.path.exists(os.path.join(out, "error_n3.csv"))


def test_wave_check_tables_hold_each_value_as_written_per_row(tmp_path):
    # the columns give the text of the per-row cells, float(abs(v)) too
    out = tmp_path / "wave"
    assert run_cli(["wave-check", "--out", str(out), "--dim", "4",
                    "--n-lo", "2", "--n-hi", "3"]) == 0
    for dec in wave.decompose_range([2, 3], 4)[0]:
        omega = [f"{float(r)!r},{float(v.real)!r},{float(v.imag)!r}\n"
                 for r, v in zip(dec.annulus_rho, dec.omega)]
        error = [f"{float(r)!r},{float(abs(v))!r}\n"
                 for r, v in zip(dec.error_rho, dec.error_values)]
        assert (out / f"omega_n{dec.n}.csv").read_text() \
            == "".join(["rho,re,im\n", *omega])
        assert (out / f"error_n{dec.n}.csv").read_text() \
            == "".join(["rho,abs\n", *error])


@pytest.mark.parametrize("extra", [[], ["--dim", "4", "--n-lo", "7",
                                         "--n-hi", "8"], ["--dim", "6"]])
def test_wave_check_error_sup_is_the_largest_value_of_its_table(tmp_path,
                                                                 extra):
    # the summary's sup is read off the magnitudes the table holds, so it
    # is one of them; np.abs of the complex array differed in the last
    # bit at n = 5 (d = 3), n = 8 (d = 4) and n = 4 (d = 6)
    out = tmp_path / "wave"
    assert run_cli(["wave-check", "--out", str(out), *extra]) == 0
    summary = read_summary(str(out))
    assert summary["error_sup"]
    for n, sup in summary["error_sup"].items():
        rows = (out / f"error_n{n}.csv").read_text().splitlines()[1:]
        assert sup == max(float(row.split(",")[1]) for row in rows)


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
    monkeypatch.setattr(wave, "decompose",
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
    # radius0 ** 32 overflowed in the kernel's polynomial (OverflowError)
    ["--radius0", "1e30"],
    ["--radius0", "1e300"],
    ["--radius0", str(2.0 * wave.MAX_RADIUS0)],
    ["--vanishing-order", "-1"],
    ["--dim", "1"],
    ["--dim", "6"],
])
def test_sph_probe_bad_input_exits_2(tmp_path, capsys, args):
    assert run_cli(["sph-probe", "--out", str(tmp_path / "s"), *args]) == 2
    assert _one_line_error(capsys)


@pytest.mark.parametrize("args, what", [
    (["--p", "0"], "p must be a positive real"),
    (["--p", "-1"], "p must be a positive real"),
    (["--budget", "0"], "budget must be at least 1"),
    (["--budget", "-3"], "budget must be at least 1"),
])
def test_sph_probe_exponent_and_budget_checked_first(tmp_path, capsys,
                                                     monkeypatch, args, what):
    built = []
    monkeypatch.setattr(wave, "_build_shell_basis",
                        lambda *a, **k: built.append(a))
    assert run_cli(["sph-probe", "--out", str(tmp_path / "s"), *args]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and what in err
    assert built == []


@pytest.mark.parametrize("args, what", [
    (["--p-list", "0"], "p must be a positive real"),
    (["--p-list", "1.2,-1"], "p must be a positive real"),
    (["--p-list", ""], "p_list is empty"),
])
def test_br_scan_exponents_checked_first(tmp_path, capsys, monkeypatch,
                                         args, what):
    transformed = []
    for module in (bochner, characterize):
        monkeypatch.setattr(module, "fourier_1d",
                            lambda *a: transformed.append(a))
    assert run_cli(["br-scan", "--out", str(tmp_path / "s"), *args]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and what in err
    assert transformed == []


def test_br_scan_line_measure_at_the_power_1_over_p_exits_2_first(
        tmp_path, capsys, monkeypatch):
    # p = 0.05 brackets its threshold 77.5 at dim 4, and the weak
    # quasi-norm raises the line measure to 1/p = 20: 20 * 4 ln(16385) is
    # past ln(max float)
    def no_transform(*a, **k):
        raise AssertionError("a transform ran before the line measure check")
    monkeypatch.setattr(characterize, "fourier_1d", no_transform)
    monkeypatch.setattr(bochner, "fourier_1d", no_transform)
    assert run_cli(["br-scan", "--out", str(tmp_path / "s"), "--p-list",
                    "0.05", "--lam-lo", "77", "--lam-hi", "78",
                    "--lam-step", "0.5", "--decay-fit", "0"]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "dim = 4: the line measure" in err
    assert "raised to the power 20," in err


@pytest.mark.parametrize("args", [
    ["characterize", "--dim", "0"],
    ["characterize", "--dim", "1"],
    ["characterize", "--mode", "symbol", "--dim", "0"],
    ["characterize", "--mode", "symbol", "--dim", "1"],
    ["br-scan", "--dim", "0"],
    ["br-scan", "--dim", "1"],
])
def test_scan_dimension_below_two_exits_2(tmp_path, capsys, args):
    assert run_cli([*args, "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "dim = " in err


@pytest.mark.parametrize("args", [
    ["--dim", "120"],
    ["--mode", "symbol", "--dim", "400"],
])
def test_characterize_dim_overflowing_the_line_measure_exits_2(tmp_path,
                                                               capsys, args):
    # checked in log space before any line weight is formed, so no
    # overflow warning comes first
    assert run_cli(["characterize", "--out", str(tmp_path / "c"),
                    *args]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "dim = " in err
    assert "Warning" not in err


@pytest.mark.parametrize("args", [
    # Gamma(dim/2) of the kernel side's Bessel order overflows
    ["--dim", "400", "--truncation", "1", "--resolution", "1024"],
    # the kernel side's polar weights overflow
    ["--dim", "80", "--kernel-rho-max", "65536"],
    # the line measure to the power nu/p overflows, on either side
    ["--dim", "85", "--nu", "2"],
    ["--mode", "symbol", "--dim", "85", "--nu", "2"],
    ["--dim", "60", "--p", "0.5"],
    # the largest polar weight of the smallest kernel truncation underflows
    ["--dim", "342", "--truncation", "1", "--resolution", "1024",
     "--kernel-rho-max", "0.5"],
    ["--dim", "300", "--truncation", "1", "--resolution", "1024",
     "--kernel-rho-max", "1"],
])
def test_characterize_dim_past_the_float_range_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, args):
    def no_work(*a, **k):
        raise AssertionError("a transform ran before the dim check")
    monkeypatch.setattr(characterize, "fourier_1d", no_work)
    monkeypatch.setattr(characterize, "radial_transform", no_work)
    assert run_cli(["characterize", "--out", str(tmp_path / "c"),
                    *args]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "dim = " in err
    assert "Warning" not in err


@pytest.mark.parametrize("rho_max", ["0", "-1", "inf", "nan"])
def test_characterize_bad_kernel_rho_max_exits_2(tmp_path, capsys, rho_max):
    assert run_cli(["characterize", "--out", str(tmp_path / "c"),
                    "--kernel-rho-max", rho_max]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "kernel_rho_max" in err


@pytest.mark.parametrize("args", [
    ["characterize", "--resolution", "1125899906842624"],
    ["br-scan", "--resolution", "1125899906842624"],
    ["characterize", "--resolution", str(2 * cli.MAX_LINE_POINTS)],
    # symbol mode's diagnostic line has 4 x resolution points
    ["characterize", "--mode", "symbol", "--resolution",
     str(cli.MAX_LINE_POINTS // 2)],
])
def test_line_past_the_point_cap_exits_3_before_allocating(tmp_path, capsys,
                                                           monkeypatch, args):
    def no_line(*a, **k):
        raise AssertionError("a line was sampled past the cap")
    monkeypatch.setattr(characterize, "fourier_1d", no_line)
    monkeypatch.setattr(bochner, "fourier_1d", no_line)
    out = tmp_path / "c"
    assert run_cli([*args, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "exceeds the cap" in err
    assert "resolution" in err
    assert not out.exists()


@pytest.mark.parametrize("args, what", [
    (["br-scan", "--resolution", "32768"], "frequency grid reaches"),
    (["characterize", "--mode", "symbol", "--resolution", "16384"],
     "frequency grid reaches"),
    (["characterize", "--mode", "profile", "--resolution", "16384"],
     "frequency grid reaches"),
    # 1e-11 lies in lam_lo's range but rounds to the order 0.0 on the grid
    (["br-scan", "--lam-lo", "1e-11"],
     "order lambda must be positive, got 0.0"),
])
def test_scan_input_errors_exit_2_before_any_transform(
        tmp_path, capsys, monkeypatch, args, what):
    calls = []

    def counted(original):
        def transform(*a, **k):
            calls.append(a)
            return original(*a, **k)
        return transform
    monkeypatch.setattr(characterize, "fourier_1d",
                        counted(characterize.fourier_1d))
    monkeypatch.setattr(bochner, "fourier_1d", counted(bochner.fourier_1d))
    assert run_cli([*args, "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and what in err
    assert calls == []


def test_br_scan_worker_failure_exits_2_with_every_thread_stopped(
        tmp_path, capsys, monkeypatch):
    import threading
    from conemult import util
    monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(util, "PARALLEL_MIN_POINTS", 1)
    transform = characterize.fourier_1d
    workers = set()

    def failing_off_the_main_thread(*a, **k):
        workers.add(threading.get_ident())
        if threading.current_thread() is not threading.main_thread():
            raise DomainError("injected in a worker")
        return transform(*a, **k)
    monkeypatch.setattr(characterize, "fourier_1d",
                        failing_off_the_main_thread)
    threads = threading.active_count()
    out = tmp_path / "s"
    assert run_cli(["br-scan", "--out", str(out), "--truncation", "8192",
                    "--resolution", "32768", "--decay-fit", "false"]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "injected in a worker" in err
    assert workers - {threading.main_thread().ident}
    assert threading.active_count() == threads
    assert not out.exists()


def test_cli_import_loads_no_concurrency_framework():
    # the worker map is plain threading: a run starts without these
    code = ("import sys, conemult.cli; print(sorted(m for m in "
            "('concurrent.futures', 'multiprocessing', 'asyncio') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), os.pardir, "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_no_subcommand_imports_numpy_ma(tmp_path):
    # numpy.ma costs 10-16 ms to import; each subcommand at a small config
    # runs in one fresh interpreter, which names those after which it is
    # loaded
    samples = tmp_path / "samples.csv"
    samples.write_text("value,weight\n1,1\n2,1\n")
    grid = ["--ndim", "2", "--extent", "8", "--resolution", "16"]
    runs = [
        ["lorentz-norm", "--input", str(samples), "--p", "2", "--nu", "2"],
        ["br-scan", "--p-list", "1.142857142857143", "--lam-lo", "0.5",
         "--lam-hi", "1.0", "--lam-step", "0.5", "--truncation", "8192",
         "--resolution", "65536", "--decay-fit", "false"],
        ["characterize", "--kernel-rho-max", "0.08"],
        ["characterize", "--mode", "symbol", "--t-per-octave", "2"],
        ["wave-check", "--dim", "3", "--n-lo", "2", "--n-hi", "3"],
        ["wave-check", "--dim", "4", "--n-lo", "2", "--n-hi", "3"],
        ["sph-probe", "--dim", "2", "--shells", "6", "--r-hi", "3",
         "--budget", "9", "--radius0", "0.125"],
        ["opnorm", "--mode", "estimate", "--multiplier", "one", *grid,
         "--budget", "9", "--p", "2", "--nu", "2"],
        ["opnorm", "--mode", "sweep", "--multiplier", "br:2.0", *grid,
         "--budget", "9"],
        ["apply", *grid, "--input", "gauss:0.5", "--multiplier",
         "scalar:0.5"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from conemult.cli import main\n"
        "loaded = []\n"
        "for i, args in enumerate(json.loads(sys.argv[1])):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main([*args, '--out', f'{sys.argv[2]}/{i}'])\n"
        "    assert code == 0, (args, code)\n"
        "    if 'numpy.ma' in sys.modules:\n"
        "        loaded.append(' '.join(args[:3]))\n"
        "print(json.dumps(loaded))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), os.pardir, "src"))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs),
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout) == []


def test_default_lines_sit_under_the_point_cap():
    cli.LINE_POINTS.check("resolution", cli.MAX_LINE_POINTS)
    assert 4 * cli.DEFAULTS["characterize"]["resolution"][0] \
        <= cli.MAX_LINE_POINTS
    assert cli.DEFAULTS["br-scan"]["resolution"][0] <= cli.MAX_LINE_POINTS


def test_characterize_kernel_rho_max_past_the_cap_exits_3(tmp_path, capsys,
                                                          monkeypatch):
    computed = []
    monkeypatch.setattr(cli, "fourier_side_quantity",
                        lambda *a, **k: computed.append(a))
    assert run_cli(["characterize", "--out", str(tmp_path / "c"),
                    "--kernel-rho-max", "65537"]) == 3
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "exceeds the cap" in err
    assert computed == []


@pytest.mark.parametrize("rho_max", ["0.001", "0.05", "0.0799"])
def test_characterize_kernel_rho_max_below_its_floor_exits_2(
        tmp_path, capsys, monkeypatch, rho_max):
    # its smallest truncation, kernel_rho_max / 8, must reach the kernel
    # grid's first radius 0.01; rejected before either side is computed
    def unreachable(*args, **kwargs):
        raise AssertionError("a transform was computed")
    monkeypatch.setattr(characterize, "fourier_1d", unreachable)
    monkeypatch.setattr(characterize, "radial_transform", unreachable)
    out = tmp_path / "c"
    assert run_cli(["characterize", "--out", str(out), "--kernel-rho-max",
                    rho_max]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err)
    assert f"kernel_rho_max = {float(rho_max):g} is below 0.08" in err
    assert not out.exists()


def test_characterize_kernel_rho_max_at_its_floor_runs(tmp_path):
    out = str(tmp_path / "c")
    assert run_cli(["characterize", "--out", out, "--kernel-rho-max",
                    "0.08"]) == 0
    assert read_summary(out)["kernel_side"]["meta"]["rho_max"] == 0.08


def test_characterize_kernel_rho_max_at_the_cap_is_accepted(tmp_path):
    out = str(tmp_path / "c")
    assert run_cli(["characterize", "--out", out, "--kernel-rho-max",
                    str(cli.MAX_KERNEL_RHO), "--resolution", "8192",
                    "--truncation", "512"]) == 0
    assert read_summary(out)["kernel_side"]["meta"]["rho_max"] == 65536.0


@pytest.mark.parametrize("dim", ["2", "5"])
def test_sph_probe_dimension_range_ends_run(tmp_path, dim):
    # the documented dimensions 2..5, at both ends
    assert run_cli(["sph-probe", "--out", str(tmp_path / "s"), "--dim", dim,
                    "--shells", "2", "--r-hi", "2", "--budget", "3"]) == 0


@pytest.mark.parametrize("dim", ["2", "3", "4", "5"])
def test_sph_probe_shell_window_from_the_centre_runs(tmp_path, dim):
    # radius0 = 1/2: the L1 window of the shell r = 1 starts at rho = 0,
    # where the spherical means are not taken and the mass weight is 0
    assert run_cli(["sph-probe", "--out", str(tmp_path / "s"), "--dim", dim,
                    "--shells", "2", "--r-hi", "2", "--budget", "3",
                    "--radius0", "0.5"]) == 0


def test_sph_probe_oversized_radius_grid_exits_3(tmp_path, capsys):
    assert run_cli(["sph-probe", "--out", str(tmp_path / "s"),
                    "--r-hi", "100000"]) == 3
    assert _one_line_error(capsys)


@pytest.mark.parametrize("radius0, code", [
    # the kernel's polynomial underflowed (ZeroDivisionError), or warned
    # before the shell grid's cap was checked
    ("1e-30", 3), ("1e-10", 3),
    # about the smallest radius0 the default shell grid admits
    ("9e-4", 0),
])
def test_sph_probe_kernel_radius_meets_the_grid_cap_first(
        tmp_path, capsys, monkeypatch, radius0, code):
    import warnings
    if code == 3:
        def unbuilt(*args, **kwargs):
            raise AssertionError("the kernel was built before the check")
        monkeypatch.setattr(cli, "SmoothingKernel", unbuilt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy warning fails the run
        assert run_cli(["sph-probe", "--out", str(tmp_path / "s"),
                        "--radius0", radius0]) == code
    if code == 3:
        err = capsys.readouterr().err
        assert _one_line_error_text(err) and "exceed the cap" in err


def test_sph_probe_largest_radius0_exits_2(tmp_path, capsys):
    # the bump's transform has no margin on the band at this radius
    assert run_cli(["sph-probe", "--out", str(tmp_path / "s"),
                    "--radius0", str(wave.MAX_RADIUS0)]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "margin" in err


@pytest.mark.parametrize("args", [
    # smallest radius0 the profile radii admit at the default spreads, and
    # with a small spread
    ["--radius0", "0.000229", "--r-hi", "1", "--shells", "1"],
    ["--radius0", "0.00014", "--r-hi", "1", "--shells", "1",
     "--spreads", "0.01"],
    # largest spread they admit at the default radius0: past the line cap
    ["--spreads", "681", "--r-hi", "1", "--shells", "1"],
    ["--spreads", "0.25,600", "--shells", "64", "--r-hi", "16"],
])
def test_sph_probe_profile_radius_corners_exit_cleanly(tmp_path, capsys,
                                                        args):
    code = run_cli(["sph-probe", "--out", str(tmp_path / "s"), *args])
    assert code in (0, 3)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 3:
        assert _one_line_error_text(err)


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


@pytest.mark.parametrize("limit", ["-5", "65537", "1000000"])
def test_apply_csv_limit_outside_the_export_cap_exits_2(tmp_path, capsys,
                                                        limit):
    out = tmp_path / "a"
    assert run_cli(["apply", "--out", str(out), "--resolution", "8",
                    "--csv-limit", limit]) == 2
    assert _one_line_error(capsys)
    # checked before any work: nothing written, no directory left
    assert not out.exists()


@pytest.mark.parametrize("limit, written", [("0", False), ("65536", True)])
def test_apply_csv_limit_at_the_ends_of_its_range(tmp_path, limit, written):
    out = tmp_path / "a"
    assert run_cli(["apply", "--out", str(out), "--resolution", "8",
                    "--csv-limit", limit]) == 0
    assert (out / "output_field.csv").exists() == written
    assert (out / "summary.json").exists()


@pytest.mark.parametrize("args", [["--resolution", "8"],
                                  ["--extent", "12"]])
def test_apply_field_input_on_another_grid_exits_2(tmp_path, capsys, args):
    first = tmp_path / "first"
    assert run_cli(["apply", "--out", str(first), "--ndim", "2",
                    "--resolution", "16", "--multiplier", "one"]) == 0
    capsys.readouterr()
    field = first / "output_field.cmf"
    assert run_cli(["apply", "--out", str(tmp_path / "second"), "--ndim",
                    "2", "--resolution", "16", "--multiplier", "one",
                    "--input", f"field:{field}", *args]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err)
    assert "input field grid does not match requested axes" in err


def test_opnorm_ndim_outside_grid_range_exits_2(tmp_path, capsys):
    # tiny resolution: a regression that allocated first would stay small
    assert run_cli(["opnorm", "--out", str(tmp_path / "o"), "--ndim", "5",
                    "--resolution", "4"]) == 2
    assert _one_line_error(capsys)


@pytest.mark.parametrize("extent", ["inf", "nan"])
def test_non_finite_grid_extent_exits_2(tmp_path, capsys, extent):
    out = tmp_path / "a"
    assert run_cli(["apply", "--out", str(out), "--extent", extent,
                    "--resolution", "8"]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "is outside (0, inf)" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["apply", "opnorm"])
def test_grid_past_the_cell_cap_exits_3_before_allocating(tmp_path, capsys,
                                                          command):
    # 2^80 cells: numpy refuses such an array at once, so a missing cap
    # shows as another exit, not as a long run
    out = tmp_path / "g"
    assert run_cli([command, "--out", str(out), "--ndim", "4",
                    "--resolution", "1048576"]) == 3
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "exceeds the cap" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["estimate", "sweep"])
@pytest.mark.parametrize("p", ["0", "-1", "nan"])
def test_opnorm_bad_exponent_exits_2(tmp_path, capsys, mode, p):
    out = tmp_path / "o"
    assert run_cli(["opnorm", "--out", str(out), "--mode", mode, "--p", p,
                    "--budget", "1", "--resolution", "16"]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "p must be a positive real" in err
    assert not out.exists()


def test_grid_at_the_cell_cap_is_accepted():
    axes = cli.build_axes(16.0, 4096, 2)
    assert 4096 ** 2 == MAX_GRID_CELLS and len(axes) == 2


def test_opnorm_witness_work_past_the_cap_exits_3_before_allocating(
        tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "grid_multiplier",
                        lambda *args: built.append(args))
    start = time.perf_counter()
    # 100000 steps pass the step cap; on 64^3 cells they pass the work cap
    assert run_cli(["opnorm", "--out", str(tmp_path / "o"), "--ndim", "3",
                    "--budget", "100000"]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and "witness cells exceed the cap" in err
    assert built == []


@pytest.mark.parametrize("argv", [["sph-probe"],
                                  ["opnorm", "--mode", "estimate"]])
@pytest.mark.parametrize("budget, code", [(MAX_SEARCH_STEPS, 2),
                                          (MAX_SEARCH_STEPS + 1, 3),
                                          (10 ** 8, 3)])
def test_search_steps_cap_ends(tmp_path, capsys, monkeypatch, argv, budget,
                               code):
    # the step cap of both subcommands; a run under it reaches its runner,
    # stubbed here to end the run at once
    def reached(opts, outdir, seed):
        raise ConfigError("runner reached")
    monkeypatch.setattr(cli, "RUNNERS", dict.fromkeys(cli.DEFAULTS, reached))
    assert run_cli([*argv, "--out", str(tmp_path / "o"),
                    "--budget", str(budget)]) == code
    err = capsys.readouterr().err
    assert _one_line_error_text(err)
    assert ("runner reached" in err) == (code == 2)
    if code == 3:
        assert f"budget = {budget} exceeds the cap {MAX_SEARCH_STEPS}" in err


@pytest.mark.parametrize("mode, budget, code", [
    ("sweep", 262131, 2), ("sweep", 262132, 3),
    ("estimate", 262144, 2), ("estimate", 262145, 3),
])
def test_opnorm_witness_work_cap_ends(tmp_path, capsys, monkeypatch, mode,
                                      budget, code):
    # (budget + swept dilations) x 64^2 cells against the 2^30 cap; a run
    # under it reaches the multiplier, stubbed here to end the run at once
    def reached(spec, axes):
        raise ConfigError("multiplier reached")
    monkeypatch.setattr(cli, "grid_multiplier", reached)
    assert run_cli(["opnorm", "--out", str(tmp_path / "o"), "--mode", mode,
                    "--budget", str(budget)]) == code
    err = capsys.readouterr().err
    assert _one_line_error_text(err)
    assert ("multiplier reached" in err) == (code == 2)


def test_csv_line_profile_is_the_spline_on_its_open_support(tmp_path):
    from conemult.util import CubicSpline1D
    u = np.linspace(-0.25, 0.25, 11)
    value = np.cos(4.0 * u) * (1.0 - 16.0 * u ** 2)
    path = tmp_path / "prof.csv"
    path.write_text("u,value\n" + "".join(f"{a!r},{b!r}\n"
                                           for a, b in zip(u.tolist(),
                                                           value.tolist())))
    prof = cli.PROFILE.parse("profile", f"csv:{path}").built
    x = np.linspace(-0.5, 0.5, 401)
    want = np.where((x > -0.25) & (x < 0.25), CubicSpline1D(u, value)(x), 0.0)
    assert np.array_equal(prof(x), want)
    assert prof(-0.25) == prof(0.25) == prof(0.3) == 0.0
    assert prof(0.0) == pytest.approx(1.0, abs=1e-12)


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


def _readme_examples():
    """The argv of each ``conemult ...`` line of the README's CLI block."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        block = fh.read().split("## CLI", 1)[1].split("\n## ", 1)[0]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("conemult ")]


def test_readme_cli_examples_parse():
    # every example of the README's CLI block is a valid command line of
    # its subcommand, with values its config keys accept; nothing is run
    examples = _readme_examples()
    assert {argv[0] for argv in examples} == set(cli.DEFAULTS)
    parser = cli.build_parser()
    for argv in examples:
        args = parser.parse_args(argv)
        defaults = cli.DEFAULTS[args.command]
        resolve(defaults, {}, {key: getattr(args, key) for key in defaults
                               if getattr(args, key) is not None})


def test_readme_cli_examples_run(tmp_path):
    # every example of the README's CLI block runs as written, in a fresh
    # process (where a user would see any Python warning) with a small
    # samples.csv in its working directory: exit 0, nothing on stderr
    (tmp_path / "samples.csv").write_text("value,weight\n1,1\n2,1\n0.5,3\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")))
    for argv in _readme_examples():
        res = subprocess.run([sys.executable, "-m", "conemult", *argv],
                             cwd=tmp_path, env=env, capture_output=True,
                             text=True)
        assert (res.returncode, res.stderr) == (0, ""), argv
        assert (tmp_path / f"conemult-{argv[0]}" / "summary.json").is_file()


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


def test_parse_config_comments_and_no_sections():
    text = "# comment\na = 1 # trailing\n\nb = two\n"
    assert parse_config_text(text) == {"a": "1", "b": "two"}
    # the format has no [section] headers: such a line is not key = value
    with pytest.raises(ConfigError, match="line 2: expected key = value"):
        parse_config_text("a = 1\n[wave-check]\nb = 2\n")


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
    defaults = Options({"a": (1.0, float, None), "b": ("x", str, None)}, {})
    merged = resolve(defaults, {"a": "2.0"}, {"b": "y"})
    assert merged == {"a": 2.0, "b": "y"}
    with pytest.raises(ConfigError):
        resolve(defaults, {"zzz": "1"}, {})


def test_characterize_complex_symbol_takes_the_complex_route(tmp_path,
                                                              monkeypatch):
    # oscillatory:W is complex, so its windowed dilates keep the complex
    # FFT: the run is byte-identical with that route patched in
    from test_radial import _complex_fourier_1d
    from conemult import characterize
    argv = ["characterize", "--mode", "symbol", "--symbol", "oscillatory:3"]
    assert run_cli([*argv, "--out", str(tmp_path / "new")]) == 0
    monkeypatch.setattr(characterize, "fourier_1d", _complex_fourier_1d)
    assert run_cli([*argv, "--out", str(tmp_path / "old")]) == 0
    for name in ("summary.json", "per_t.csv", "truncation.csv"):
        assert (tmp_path / "new" / name).read_bytes() == \
            (tmp_path / "old" / name).read_bytes()
    scan = read_summary(str(tmp_path / "new"))["scan"]
    assert scan["value"] > 0 and 0.0625 <= scan["arg_sup"] <= 16.0


@pytest.mark.parametrize("command", ["apply", "opnorm"])
@pytest.mark.parametrize("extent, what", [
    ("1e300", "squared space coordinates"),
    ("1e-300", "squared space coordinates"),
    ("1e-155", "squared frequency coordinates"),
    ("1e150", "cell volume"),
    ("1e-120", "cell volume"),
])
def test_extent_overflowing_the_coordinates_exits_2(tmp_path, capsys,
                                                     command, extent, what):
    out = tmp_path / "g"
    assert run_cli([command, "--out", str(out), "--ndim", "3", "--extent",
                    extent, "--resolution", "8"]) == 2
    err = capsys.readouterr().err
    assert _one_line_error_text(err) and what in err
    assert not out.exists()
