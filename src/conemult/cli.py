"""Batch driver: every experiment is a subcommand writing machine-readable reports.

Each run resolves its configuration (defaults < --config file < command-line
overrides), echoes the effective config into the output directory, writes a
deterministic summary.json plus plot-ready CSV detail files, and exits 0 on
success, 2 on configuration or domain errors, 3 on numerical-budget errors.
Volatile metadata (wall-clock time, argv) goes to run_meta.json, which is
excluded from determinism comparisons.
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import bumps, report
from .bochner import (_DETECTOR_WINDOW, BRProfile, build_bochner_riesz_cone,
                      critical_scan, edge_decay_fit)
from .characterize import (check_kernel_dim, check_line_support,
                           fourier_side_quantity, kernel_side_quantity,
                           radial_symbol_quantity)
from .config import (REQUIRED, Options, Range, Spec, effective_text,
                     load_config, require, resolve)
from .errors import BudgetError, ConfigError, DomainError
from .lorentz import LorentzParams, WeightedSampleSet, lorentz_quasinorm
from .multipliers import (CSV_MAX_CELLS, MAX_AXES, apply_multiplier,
                          build_axes, build_dyadic_cone_multiplier,
                          export_field_csv, field_symbol, gauss_field,
                          halfspace_field, load_field, radial_field,
                          save_field, wraparound_fraction)
from .opnorm import (MAX_SEARCH_STEPS, SWEEP_DILATIONS, estimate_lower,
                     scaling_sweep_experiment)
from .util import CubicSpline1D
from .wave import (MAX_RADIUS0, MAX_SHELL_DIM, MAX_SHELLS, MAX_WAVE_SCALE,
                   SmoothingKernel, check_shell_grid, decompose_radii,
                   decompose_range, shell_l1_ratios,
                   shell_operator_lower_bound, wave_kernel_plan)

# Caps on the scan grids (points): each order costs one transform ladder,
# each dilation one weighted functional, so the caps keep a run to minutes
# and the grids themselves to a few kilobytes.
MAX_ORDERS = 1024
MAX_DILATIONS = 4096
# cap on kernel_rho_max: the kernel side's time is about linear in it
MAX_KERNEL_RHO = 65536
# cap on the points of a 1-d transform line: 64 MiB a float array, while
# the largest default line, characterize's symbol-mode diagnostic at four
# times its resolution, has 2^18
MAX_LINE_POINTS = 2 ** 22
# cap on an opnorm run's witness work, its steps times the grid cells: an
# estimate on 64^3 cells (57 steps, 1.5e7 cells) takes about 1 s on a
# 2-vCPU machine, so the cap allows about a minute
MAX_WITNESS_CELLS = 2 ** 30


# ---------------------------------------------------------------------------
# named specs: the option table lists each form with its builder


def csv_profile(path):
    """The cubic spline through a CSV's (u, value) knots, zero off them."""
    u, value = report.read_float_columns(path, ("u", "value"))
    spline = CubicSpline1D(u, value)
    lo, hi = float(u[0]), float(u[-1])

    def sampled(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > lo) & (x < hi), spline(x), 0.0)
    sampled.support = (lo, hi)
    return sampled


def radial_symbol(spec):
    build = SYMBOL.parse("symbol", spec).build
    return lambda r: build(np.asarray(r, dtype=float))


def grid_multiplier(spec, axes):
    return MULTIPLIER.parse("multiplier", spec).build(axes)


# ---------------------------------------------------------------------------
# the option table: each key's default, type and domain, and the checks
# across keys; config.resolve enforces it before a runner starts

POSITIVE, EXPONENT = Range("(0, inf)"), Range("(0, inf]")   # nu = inf: weak
DIM, AXES = Range("[2, inf)"), Range(f"[1, {MAX_AXES}]")
GRID_POINTS = Range("[2, inf)", pow2=True)
LINE_POINTS = Range("[2, inf)", pow2=True, cap=MAX_LINE_POINTS)
# worded as the library checks that guard the same intervals
P = Range("(0, inf)", "p must be a positive real, got {value}")
R = Range("(0, inf)", "truncation R = {value} must be finite and positive")
COUNT = Range("[1, inf)", "{key} must be at least 1, got {value}")
BUDGET = Range(COUNT.text, COUNT.message, cap=MAX_SEARCH_STEPS)


def _exponents(o):
    return LorentzParams(o["p"], o["nu"])


def _grid(o):
    return build_axes(o["extent"], o["resolution"], o["ndim"])


def _shell_radii(o):
    return np.linspace(o["r_lo"], o["r_hi"], o["shells"])


def _dilation_count(o):
    return math.log2(o["t_hi"] / o["t_lo"]) * o["t_per_octave"] + 1


# spec arguments: WIDTH^2 is a normal float, and C and OMEGA times a grid
# coordinate (|xi| < 2^512 as build_axes keeps |xi|^2 finite) are finite
ARG_MAX = 2.0 ** 511
FINITE_ARG = Range(f"[{-ARG_MAX!r}, {ARG_MAX!r}]")
WIDTH = Range(f"[{1.0 / ARG_MAX!r}, {ARG_MAX!r}]")
KERNEL_SUPPORT = (0.0, 0.3)   # the radii of the kernel side
# a dilation t: t r on the window's support (1/2, 2) stays within ARG_MAX,
# as a spec argument does, so a symbol's r^2 is finite
DILATION = Range(f"(0, {ARG_MAX / bumps.BumpPhi.support[1]!r}]")

PROFILE = Spec({
    "tent": (None, lambda: bumps.tent_profile),
    "bump": (None, lambda: bumps.bump_profile),
    "br:LAM": (POSITIVE, BRProfile),   # one-sided: no kernel side
    "csv:PATH": (REQUIRED, csv_profile),
})
SYMBOL = Spec({
    "one": (None, np.ones_like),
    "scalar:C": (FINITE_ARG, lambda c, r: c * np.ones_like(r)),
    "br:LAM": (POSITIVE,
               lambda lam, r: np.clip(1.0 - r ** 2, 0.0, None) ** lam),
    "gauss": (None, lambda r: np.exp(-0.5 * r ** 2)),
    "indicator": (None, lambda r: (r <= 1.0).astype(float)),
    "oscillatory:OMEGA": (FINITE_ARG, lambda omega, r: np.exp(1j * omega * r)
                          * bumps.smooth_window(r, 0.25, 0.5, 2.0, 4.0)),
})
MULTIPLIER = Spec({
    **{form: (domain, functools.partial(radial_field, m0))
       for form, (domain, m0) in SYMBOL.forms.items()},
    "halfspace": (None, halfspace_field),
    # builders looked up at call time, as perfbench's tracer wraps the names
    "cone_br:LAM": (POSITIVE, lambda *args: build_bochner_riesz_cone(*args)),
    "cone_tent": (None, lambda axes: build_dyadic_cone_multiplier(
        bumps.tent_profile, axes)),
})
INPUT = Spec({
    "gauss:WIDTH": (WIDTH, gauss_field),
    "field:PATH": (REQUIRED, lambda path, axes: load_field(path)),
})


DEFAULTS = {
    "lorentz-norm": Options({
        "input": ("", str, REQUIRED),
        "p": (2.0, float, P),
        "nu": (2.0, float, EXPONENT),
    }, {"nu >= p": _exponents}),
    "characterize": Options({
        "mode": ("profile", str, ("profile", "symbol")),
        "profile": ("tent", str, PROFILE),
        "symbol": ("br:1.0", str, SYMBOL),
        "dim": (4, int, DIM),
        "p": (8.0 / 7.0, float, P),
        "nu": (math.inf, float, EXPONENT),
        "truncation": (4096.0, float, R),
        "resolution": (2 ** 16, int, LINE_POINTS),
        "spatial_truncation": (8.0, float, Range(
            "(0, inf)", "spatial truncation must be finite and positive, "
            "got {value}")),
        "kernel_rho_max": (256.0, float, Range("(0, inf)",
                                               cap=MAX_KERNEL_RHO)),
        "t_lo": (0.0625, float, DILATION),
        "t_hi": (16.0, float, DILATION),
        "t_per_octave": (16, int, COUNT),
    }, {
        "nu >= p": _exponents,
        # with the least kernel_rho_max, 8 x the kernel grid's first radius
        "kernel side": lambda o: o["mode"] != "profile" or check_kernel_dim(
            o["dim"], _exponents(o), o["kernel_rho_max"]),
        "line covers the profile": lambda o: o["mode"] != "profile" or
        check_line_support("profile", o["profile"].built.support,
                           o["spatial_truncation"]),
        "line covers the window": lambda o: o["mode"] != "symbol" or
        check_line_support("window", bumps.BumpPhi.support,
                           o["spatial_truncation"]),
        "kernel side covers the profile": require(
            lambda o: o["mode"] != "profile"
            or o["profile"].built.support[1] <= KERNEL_SUPPORT[1],
            f"profile = {{profile}} reaches past u = {KERNEL_SUPPORT[1]}, "
            f"where the kernel side's radii stop"),
        "t_lo < t_hi": require(
            lambda o: o["mode"] != "symbol" or o["t_lo"] < o["t_hi"],
            "dilation range needs t_lo < t_hi, got {t_lo} and {t_hi}"),
        "dilation count": require(
            lambda o: o["mode"] != "symbol"
            or _dilation_count(o) <= MAX_DILATIONS,
            f"dilation grid of log2(t_hi / t_lo) t_per_octave + 1 points "
            f"exceeds the cap {MAX_DILATIONS}", 3),
        # the best dilate is transformed again on a line four times finer
        "4x line": require(
            lambda o: o["mode"] != "symbol"
            or 4 * o["resolution"] <= MAX_LINE_POINTS,
            f"mode symbol: 4 x resolution = 4 x {{resolution}} points "
            f"exceeds the cap {MAX_LINE_POINTS}", 3),
    }),
    "br-scan": Options({
        "dim": (4, int, DIM),
        "p_list": ([1.05, 8.0 / 7.0], "float_list", P),
        "lam_lo": (0.6, float, POSITIVE),
        "lam_hi": (1.8, float, POSITIVE),
        "lam_step": (0.05, float, POSITIVE),
        "truncation": (16384.0, float, Range(
            f"({16 * _DETECTOR_WINDOW:g}, inf)", "truncation R = {value} must"
            f" be finite, R/8 above twice the window {_DETECTOR_WINDOW:g}")),
        "resolution": (2 ** 17, int, LINE_POINTS),
        "decay_fit": (True, bool, None),
    }, {
        "lam_lo <= lam_hi": require(
            lambda o: o["lam_lo"] <= o["lam_hi"],
            "order range needs lam_lo <= lam_hi, got {lam_lo} and {lam_hi}"),
        "order count": require(
            lambda o: (o["lam_hi"] + 1e-9 - o["lam_lo"]) / o["lam_step"]
            <= MAX_ORDERS, f"order grid of (lam_hi - lam_lo) / lam_step "
            f"points exceeds the cap {MAX_ORDERS}", 3),
    }),
    "wave-check": Options({
        "dim": (3, int, DIM),
        "n_lo": (3, int, Range(f"[1, {MAX_WAVE_SCALE}]")),
        "n_hi": (8, int, Range(f"[1, {MAX_WAVE_SCALE}]")),
    }, {
        "n_lo <= n_hi": require(lambda o: o["n_lo"] <= o["n_hi"],
                                "empty scale range {n_lo}..{n_hi}"),
        # the cost grows with n: one check of the largest scale covers all
        "kernel budget": lambda o: wave_kernel_plan(
            o["n_hi"], o["dim"], decompose_radii(o["n_hi"])[2]),
    }),
    "sph-probe": Options({
        "dim": (3, int, Range(f"[2, {MAX_SHELL_DIM}]")),
        "p": (1.2, float, P),
        "r_lo": (1.0, float, Range("[1, inf)")),
        "r_hi": (8.0, float, Range("[1, inf)")),
        "shells": (16, int, Range("[1, inf)", cap=MAX_SHELLS)),
        "budget": (36, int, BUDGET),
        "radius0": (0.0625, float, Range(f"(0, {MAX_RADIUS0}]")),
        # the kernel's bump degree is at least 2 vanishing_order + 2
        "vanishing_order": (5, int, Range(
            f"[0, {(SmoothingKernel.bump_degree - 2) // 2}]")),
        "spreads": ([0.25, 1.0], "float_list", POSITIVE),
    }, {
        "r_lo <= r_hi": require(
            lambda o: o["r_lo"] <= o["r_hi"],
            "shell radii need r_lo <= r_hi, got {r_lo} and {r_hi}"),
        # before the kernel, whose polynomial a tiny radius0 underflows
        "shell grid": lambda o: check_shell_grid(
            _shell_radii(o), o["radius0"], o["spreads"]),
    }),
    "opnorm": Options({
        "mode": ("sweep", str, ("estimate", "sweep")),
        "multiplier": ("br:2.0", str, MULTIPLIER),
        "ndim": (2, int, AXES),
        "extent": (16.0, float, POSITIVE),
        "resolution": (64, int, GRID_POINTS),
        "p": (1.2, float, P),
        "nu": (math.inf, float, EXPONENT),
        "budget": (48, int, BUDGET),
    }, {
        "nu >= p": _exponents,
        "grid": _grid,
        # the sweep scores its dilations as witnesses too
        "witness cells": require(
            lambda o: (o["budget"] + (SWEEP_DILATIONS if o["mode"] == "sweep"
                                      else 0)) * o["resolution"] ** o["ndim"]
            <= MAX_WITNESS_CELLS, f"(budget + swept dilations) x "
            f"resolution^ndim witness cells exceed the cap of "
            f"{MAX_WITNESS_CELLS} cells", 3),
    }),
    "apply": Options({
        "multiplier": ("cone_tent", str, MULTIPLIER),
        "input": ("gauss:1.0", str, INPUT),
        "ndim": (3, int, AXES),
        "extent": (16.0, float, POSITIVE),
        "resolution": (32, int, GRID_POINTS),
        "wrap_threshold": (1e-6, float, Range("[0, 1]")),
        "csv_limit": (CSV_MAX_CELLS, int, Range(f"[0, {CSV_MAX_CELLS}]")),
    }, {"grid": _grid}),
}


# ---------------------------------------------------------------------------
# subcommand runners: each returns its summary dict


def run_lorentz_norm(opts, outdir, seed):
    values, weights = report.read_float_columns(opts["input"],
                                                ("value", "weight"))
    samples = WeightedSampleSet(values, weights)
    value = lorentz_quasinorm(samples, _exponents(opts))
    print(repr(value))
    return {"quasinorm": value, "p": opts["p"], "nu": opts["nu"],
            "n_samples": len(values), "total_measure": samples.total_measure}


def run_characterize(opts, outdir, seed):
    dim, params = opts["dim"], _exponents(opts)
    summary = {"mode": opts["mode"], "dim": dim, "p": opts["p"],
               "nu": opts["nu"]}
    if opts["mode"] == "profile":
        gamma = opts["profile"].built
        fq = fourier_side_quantity(gamma, dim, params, opts["truncation"],
                                   opts["spatial_truncation"],
                                   opts["resolution"])
        kq = kernel_side_quantity(gamma, dim, params, support=KERNEL_SUPPORT,
                                  rho_max=opts["kernel_rho_max"])
        ratio = fq.value / kq.value if kq.value else math.inf
        summary.update(profile=opts["profile"], fourier_side=fq,
                       kernel_side=kq, side_ratio=ratio)
        trunc_rows = [(side, float(r), float(v))
                      for side, q in (("fourier", fq), ("kernel", kq))
                      for r, v in sorted(q.by_truncation.items())]
    else:
        m0 = radial_symbol(opts["symbol"])
        t_grid = np.geomspace(opts["t_lo"], opts["t_hi"],
                              int(_dilation_count(opts)))
        res = radial_symbol_quantity(m0, dim, params, t_grid=t_grid,
                                     truncation=opts["truncation"],
                                     spatial_truncation=
                                     opts["spatial_truncation"],
                                     resolution=opts["resolution"])
        summary["symbol"] = opts["symbol"]
        summary["scan"] = res
        report.write_csv(os.path.join(outdir, "per_t.csv"),
                         ["t", "quantity"],
                         zip(*[(float(t), float(v))
                               for t, v in sorted(res.per_t.items())]))
        trunc_rows = [("symbol_argmax_t", float(r), float(v)) for r, v
                      in zip(res.trend["scales"], res.trend["values"])]
    report.write_csv(os.path.join(outdir, "truncation.csv"),
                     ["side", "truncation", "value"], zip(*trunc_rows))
    return summary


def run_br_scan(opts, outdir, seed):
    lam_grid = np.arange(opts["lam_lo"], opts["lam_hi"] + 1e-9,
                         opts["lam_step"]).round(10).tolist()
    results = critical_scan(opts["dim"], opts["p_list"], lam_grid,
                            truncation=opts["truncation"],
                            resolution=opts["resolution"])
    per_p = []
    for res in results:
        report.write_csv(os.path.join(outdir, f"scan_p{res.p:.6g}.csv"),
                         ["lam", "full_value_at_R", "tail_value_at_R",
                          "divergent"],
                         zip(*[(float(lam), float(full[max(full)]),
                                float(tail[max(full)]), bool(divergent))
                               for lam, full, tail, divergent in res.table]))
        per_p.append({"p": res.p, "prediction": res.prediction,
                      "estimate": res.estimate})
    summary = {"dim": opts["dim"], "per_p": per_p,
               "lam_grid": [float(x) for x in lam_grid],
               "truncation": opts["truncation"]}
    if opts["decay_fit"]:
        summary["decay_fits"] = {repr(lam): {"exponent": edge_decay_fit(lam),
                                             "target": lam + 1.0}
                                 for lam in (0.5, 1.0, 1.5)}
    return summary


def run_wave_check(opts, outdir, seed):
    n_list = list(range(opts["n_lo"], opts["n_hi"] + 1))
    decs, l1_ratio, rate = decompose_range(n_list, opts["dim"])
    for dec in decs:
        report.write_csv(os.path.join(outdir, f"omega_n{dec.n}.csv"),
                         ["rho", "re", "im"],
                         [dec.annulus_rho.tolist(), dec.omega.real.tolist(),
                          dec.omega.imag.tolist()])
        # hypot, not np.abs, is the abs of each complex scalar bit for bit
        err = dec.error_values
        report.write_csv(os.path.join(outdir, f"error_n{dec.n}.csv"),
                         ["rho", "abs"],
                         [dec.error_rho.tolist(),
                          np.hypot(err.real, err.imag).tolist()])
    return {
        "dim": opts["dim"],
        "scales": n_list,
        "omega_l1": {str(d.n): d.omega_l1 for d in decs},
        "error_sup": {str(d.n): d.error_sup for d in decs},
        "l1_ratio": l1_ratio,
        "decay_rate": rate,
    }


def run_sph_probe(opts, outdir, seed):
    r_grid = _shell_radii(opts)
    kernel = SmoothingKernel(opts["dim"], radius0=opts["radius0"],
                             vanishing_order=opts["vanishing_order"])
    est = shell_operator_lower_bound(opts["dim"], opts["p"], r_grid,
                                     kernel=kernel, budget=opts["budget"],
                                     seed=seed,
                                     spread_radii=tuple(opts["spreads"]))
    ratios = shell_l1_ratios(opts["dim"], r_grid, kernel)
    report.write_csv(os.path.join(outdir, "shell_l1.csv"),
                     ["r", "l1_over_mass"],
                     zip(*[(float(r), float(v))
                           for r, v in sorted(ratios.items())]))
    return {"dim": opts["dim"], "p": opts["p"],
            "estimate": report.fields_dict(est),
            "shells": [float(r) for r in r_grid]}


def run_opnorm(opts, outdir, seed):
    axes = _grid(opts)
    mult = grid_multiplier(opts["multiplier"], axes)
    if opts["mode"] == "sweep":
        out = scaling_sweep_experiment(mult, axes, opts["p"], opts["nu"],
                                       budget=opts["budget"], seed=seed)
        report.write_csv(os.path.join(outdir, "sweep.csv"),
                         ["t", "scaled_norm"],
                         zip(*[(float(t), float(v))
                               for t, v in sorted(out["rhs_per_t"].items())]))
        return out
    est = estimate_lower(mult, axes, opts["p"], opts["nu"],
                         budget=opts["budget"], seed=seed)
    summary = report.fields_dict(est)
    summary["multiplier"] = opts["multiplier"]
    return summary


def run_apply(opts, outdir, seed):
    axes = _grid(opts)
    f = opts["input"].build(axes)
    if f.axes != axes:
        raise ConfigError("input field grid does not match requested axes")
    mult = grid_multiplier(opts["multiplier"], axes)
    wrap = wraparound_fraction(f)
    if wrap > opts["wrap_threshold"]:
        print(f"warning: boundary shell carries {wrap:.3e} of the field mass "
              f"(threshold {opts['wrap_threshold']:.1e}); enlarge the box "
              f"extent", file=sys.stderr)
    out = apply_multiplier(f, mult)
    out_path = os.path.join(outdir, "output_field.cmf")
    save_field(out, out_path)
    if out.values.size <= opts["csv_limit"]:
        export_field_csv(out, os.path.join(outdir, "output_field.csv"))
    sym_max = float(np.abs(field_symbol(mult, axes)).max())
    in_l2, out_l2 = f.l2_norm(), out.l2_norm()
    return {
        "multiplier": opts["multiplier"],
        "input": opts["input"],
        "output_field": os.path.basename(out_path),
        "input_l2": in_l2,
        "output_l2": out_l2,
        "symbol_sup": sym_max,
        "energy_bound_ok": bool(out_l2 <= sym_max * in_l2 * (1 + 1e-12)),
        "wraparound_fraction": wrap,
    }


RUNNERS = {
    "lorentz-norm": run_lorentz_norm,
    "characterize": run_characterize,
    "br-scan": run_br_scan,
    "wave-check": run_wave_check,
    "sph-probe": run_sph_probe,
    "opnorm": run_opnorm,
    "apply": run_apply,
}


# ---------------------------------------------------------------------------
# argument handling


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conemult",
        description="radial and cone multiplier experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, defaults in DEFAULTS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        for key, (default, _, _) in defaults.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           default=None, metavar="V",
                           help=f"default: {default}")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    outdir = args.out or f"conemult-{args.command}"
    fresh = not os.path.isdir(outdir)
    code = 1   # an unexpected exception propagates with its traceback
    try:
        code = _run(args, argv, outdir)
    finally:
        # a failed run leaves no empty directory it created itself
        if code != 0 and fresh and os.path.isdir(outdir) \
                and not os.listdir(outdir):
            os.rmdir(outdir)
    return code


def _run(args, argv, outdir):
    command = args.command
    defaults = DEFAULTS[command]
    try:
        file_values = load_config(args.config) if args.config else {}
        overrides = {key: getattr(args, key) for key in defaults
                     if getattr(args, key) is not None}
        opts = resolve(defaults, file_values, overrides)
        os.makedirs(outdir, exist_ok=True)
        summary = RUNNERS[command](opts, outdir, args.seed)
        summary.update(command=command, seed=args.seed)
        report.atomic_write_text(os.path.join(outdir, "config_echo.cfg"),
                                 effective_text(opts))
        report.write_summary(os.path.join(outdir, "summary.json"), summary)
        report.write_run_meta(os.path.join(outdir, "run_meta.json"),
                              {"argv": list(argv) if argv is not None
                               else sys.argv[1:]})
    except (ConfigError, OSError, DomainError, BudgetError) as exc:
        kind = {DomainError: "domain", BudgetError: "budget"}.get(type(exc),
                                                                 "config")
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 3 if kind == "budget" else 2
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
