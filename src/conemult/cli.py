"""Batch driver: every experiment is a subcommand writing machine-readable reports.

Each run resolves its configuration (defaults < --config file < command-line
overrides), echoes the effective config into the output directory, writes a
deterministic summary.json plus plot-ready CSV detail files, and exits 0 on
success, 2 on configuration or domain errors, 3 on numerical-budget errors.
Volatile metadata (wall-clock time, argv) goes to run_meta.json, which is
excluded from determinism comparisons.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import bumps, report
from .bochner import (BRProfile, build_bochner_riesz_cone, critical_scan,
                      edge_decay_fit)
from .characterize import (check_kernel_dim, fourier_side_quantity,
                           kernel_side_quantity, radial_symbol_quantity)
from .config import effective_text, load_config, resolve
from .errors import BudgetError, ConfigError, DomainError
from .lorentz import LorentzParams, WeightedSampleSet, lorentz_quasinorm
from .multipliers import (CSV_MAX_CELLS, MAX_AXES, Axis, GridField,
                          build_dyadic_cone_multiplier, apply_multiplier,
                          export_field_csv, field_symbol, freq_magnitude,
                          load_field, save_field, wraparound_fraction)
from .opnorm import (SWEEP_DILATIONS, estimate_lower,
                     scaling_sweep_experiment)
from .util import CubicSpline1D
from .wave import (MAX_SHELL_DIM, MAX_WAVE_SCALE, SmoothingKernel,
                   decompose_radii, decompose_range, shell_l1_ratios,
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
# cap on the cells of an apply/opnorm grid: at 2^24 cells one complex
# field is 256 MiB, and a run holds a few at once
MAX_GRID_CELLS = 2 ** 24
# cap on an opnorm run's witness work, its steps times the grid cells: an
# estimate on 64^3 cells (57 steps, 1.5e7 cells) takes about 1 s on a
# 2-vCPU machine, so the cap allows about a minute
MAX_WITNESS_CELLS = 2 ** 30


# ---------------------------------------------------------------------------
# named building blocks


def tent_profile(u):
    return np.clip(1.0 - 4.0 * np.abs(np.asarray(u, dtype=float)), 0.0, None)


def line_profile(spec):
    """Edge profiles on the line, supported in (-1/4, 1/4) unless noted."""
    if spec == "tent":
        return tent_profile
    if spec == "bump":
        return lambda u: bumps.smooth_window(np.asarray(u, float),
                                             -0.25, -0.125, 0.125, 0.25)
    if spec.startswith("br:"):
        return BRProfile(float(spec.split(":", 1)[1]))
    if spec.startswith("csv:"):
        u, value = report.read_float_columns(spec.split(":", 1)[1],
                                             ("u", "value"))
        spline = CubicSpline1D(u, value)
        lo, hi = float(u[0]), float(u[-1])

        def sampled(x):
            x = np.asarray(x, dtype=float)
            return np.where((x > lo) & (x < hi), spline(x), 0.0)
        return sampled
    raise ConfigError(f"unknown line profile {spec!r}")


def radial_symbol(spec):
    """Bounded radial symbols m0(r) on (0, inf)."""
    if spec == "one":
        return lambda r: np.ones_like(np.asarray(r, dtype=float))
    if spec.startswith("scalar:"):
        c = float(spec.split(":", 1)[1])
        return lambda r: c * np.ones_like(np.asarray(r, dtype=float))
    if spec.startswith("br:"):
        lam = float(spec.split(":", 1)[1])
        return lambda r: np.clip(1.0 - np.asarray(r, dtype=float) ** 2,
                                 0.0, None) ** lam
    if spec == "gauss":
        return lambda r: np.exp(-0.5 * np.asarray(r, dtype=float) ** 2)
    if spec == "indicator":
        return lambda r: (np.asarray(r, dtype=float) <= 1.0).astype(float)
    if spec.startswith("oscillatory:"):
        omega = float(spec.split(":", 1)[1])
        def symb(r):
            r = np.asarray(r, dtype=float)
            return np.exp(1j * omega * r) * bumps.smooth_window(r, 0.25, 0.5,
                                                                2.0, 4.0)
        return symb
    raise ConfigError(f"unknown radial symbol {spec!r}")


def grid_multiplier(spec, axes):
    """Multiplier usable by apply/opnorm on the given grid.

    Radial symbols are evaluated once, as a frequency field on the grid.
    """
    if spec.startswith(("one", "scalar:", "br:", "gauss", "indicator",
                        "oscillatory:")):
        m0 = radial_symbol(spec)
        return GridField(axes, m0(freq_magnitude(axes)), rep="frequency")
    if spec == "halfspace":
        xi1 = axes[0].freq_coords()
        shape = [1] * len(axes)
        shape[0] = axes[0].resolution
        vals = np.broadcast_to((xi1 >= 0).reshape(shape).astype(complex),
                               [ax.resolution for ax in axes]).copy()
        return GridField(axes, vals, rep="frequency")
    if spec.startswith("cone_br:"):
        lam = float(spec.split(":", 1)[1])
        return build_bochner_riesz_cone(lam, axes)
    if spec == "cone_tent":
        return build_dyadic_cone_multiplier(tent_profile, axes)
    raise ConfigError(f"unknown multiplier {spec!r}")


def build_axes(extent, resolution, ndim):
    """Axes of a cubic grid, checked before any array is allocated."""
    if not 1 <= ndim <= MAX_AXES:
        raise DomainError(f"ndim = {ndim}: grids support 1 to {MAX_AXES} axes")
    axes = tuple(Axis(extent, resolution) for _ in range(ndim))
    if resolution ** ndim > MAX_GRID_CELLS:
        raise BudgetError(f"grid of {resolution}^{ndim} cells exceeds the cap "
                          f"{MAX_GRID_CELLS}")
    # |x|^2 and |xi|^2 sum the squared coordinates over the axes, the
    # largest being the half extent and the Nyquist frequency pi N / L;
    # every norm carries the cell volume (L / N)^ndim
    space, freq = 0.5 * extent, math.pi * resolution / extent
    for size, what in ((ndim * space * space, "squared space coordinates"),
                       (ndim * freq * freq, "squared frequency coordinates"),
                       (math.prod([extent / resolution] * ndim),
                        "cell volume")):
        if not 0 < size < math.inf:
            raise DomainError(f"extent = {extent} over {ndim} axes of "
                              f"{resolution} cells puts the {what} out of "
                              f"the float range")
    return axes


def input_field(spec, axes):
    if spec.startswith("gauss:"):
        width = float(spec.split(":", 1)[1])
        coords = np.meshgrid(*[ax.space_coords() for ax in axes],
                             indexing="ij", sparse=True)
        rsq = sum(c ** 2 for c in coords)
        return GridField(axes, np.exp(-0.5 * rsq / width ** 2).astype(complex))
    if spec.startswith("field:"):
        return load_field(spec.split(":", 1)[1])
    raise ConfigError(f"unknown input field {spec!r}")


# ---------------------------------------------------------------------------
# subcommand runners: each returns its summary dict


DEFAULTS = {
    "lorentz-norm": {
        "input": ("", str),
        "p": (2.0, float),
        "nu": (2.0, float),
    },
    "characterize": {
        "mode": ("profile", str),            # profile | symbol
        "profile": ("tent", str),            # one-sided profiles (br:LAM)
                                             # have zero kernel side
        "symbol": ("br:1.0", str),
        "dim": (4, int),
        "p": (8.0 / 7.0, float),
        "nu": (math.inf, float),
        "truncation": (4096.0, float),
        "resolution": (2 ** 16, int),
        "spatial_truncation": (8.0, float),
        "kernel_rho_max": (256.0, float),
        "t_lo": (0.0625, float),
        "t_hi": (16.0, float),
        "t_per_octave": (16, int),
    },
    "br-scan": {
        "dim": (4, int),
        "p_list": ([1.05, 8.0 / 7.0], "float_list"),
        "lam_lo": (0.6, float),
        "lam_hi": (1.8, float),
        "lam_step": (0.05, float),
        "truncation": (16384.0, float),
        "resolution": (2 ** 17, int),
        "decay_fit": (True, bool),
    },
    "wave-check": {
        "dim": (3, int),
        "n_lo": (3, int),
        "n_hi": (8, int),
    },
    "sph-probe": {
        "dim": (3, int),
        "p": (1.2, float),
        "r_lo": (1.0, float),
        "r_hi": (8.0, float),
        "shells": (16, int),
        "budget": (36, int),
        "radius0": (0.0625, float),
        "vanishing_order": (5, int),
        "spreads": ([0.25, 1.0], "float_list"),
    },
    "opnorm": {
        "mode": ("sweep", str),              # estimate | sweep
        "multiplier": ("br:2.0", str),
        "ndim": (2, int),
        "extent": (16.0, float),
        "resolution": (64, int),
        "p": (1.2, float),
        "nu": (math.inf, float),
        "budget": (48, int),
    },
    "apply": {
        "multiplier": ("cone_tent", str),
        "input": ("gauss:1.0", str),
        "ndim": (3, int),
        "extent": (16.0, float),
        "resolution": (32, int),
        "wrap_threshold": (1e-6, float),
        "csv_limit": (CSV_MAX_CELLS, int),
    },
}


def run_lorentz_norm(opts, outdir, seed):
    if not opts["input"]:
        raise ConfigError("lorentz-norm requires input=<csv path>")
    values, weights = report.read_float_columns(opts["input"],
                                                ("value", "weight"))
    samples = WeightedSampleSet(values, weights)
    params = LorentzParams(opts["p"], opts["nu"])
    value = lorentz_quasinorm(samples, params)
    print(repr(value))
    summary = {"quasinorm": value, "p": opts["p"], "nu": opts["nu"],
               "n_samples": len(values),
               "total_measure": samples.total_measure}
    return summary


def _check_line_points(points, what):
    """Reject a 1-d transform line past ``MAX_LINE_POINTS`` before it exists."""
    if points > MAX_LINE_POINTS:
        raise BudgetError(f"{what} = {points} points exceeds the cap "
                          f"{MAX_LINE_POINTS}")


def run_characterize(opts, outdir, seed):
    dim = opts["dim"]
    if dim < 2:
        raise ConfigError(f"dim = {dim} must be an integer of at least 2")
    _check_line_points(opts["resolution"], "resolution")
    if opts["mode"] == "symbol":
        # the best dilate is transformed again on a line four times finer
        _check_line_points(4 * opts["resolution"], "4 x resolution")
    params = LorentzParams(opts["p"], opts["nu"])
    trunc_rows = []
    summary = {"mode": opts["mode"], "dim": dim, "p": opts["p"],
               "nu": opts["nu"]}
    if opts["mode"] == "profile":
        if not 0 < opts["kernel_rho_max"] < math.inf:
            raise ConfigError(f"kernel_rho_max = {opts['kernel_rho_max']} "
                              f"must be finite and positive")
        if opts["kernel_rho_max"] > MAX_KERNEL_RHO:
            raise BudgetError(f"kernel_rho_max = {opts['kernel_rho_max']} "
                              f"exceeds the cap {MAX_KERNEL_RHO}")
        check_kernel_dim(dim, params, opts["kernel_rho_max"])
        gamma = line_profile(opts["profile"])
        fq = fourier_side_quantity(gamma, dim, params, opts["truncation"],
                                   opts["spatial_truncation"],
                                   opts["resolution"])
        kq = kernel_side_quantity(gamma, dim, params, support=(0.0, 0.3),
                                  rho_max=opts["kernel_rho_max"])
        summary["profile"] = opts["profile"]
        summary["fourier_side"] = fq
        summary["kernel_side"] = kq
        summary["side_ratio"] = fq.value / kq.value if kq.value else math.inf
        for r, v in sorted(fq.by_truncation.items()):
            trunc_rows.append(("fourier", float(r), float(v)))
        for r, v in sorted(kq.by_truncation.items()):
            trunc_rows.append(("kernel", float(r), float(v)))
    elif opts["mode"] == "symbol":
        if not 0 < opts["t_lo"] < opts["t_hi"] < math.inf:
            raise ConfigError(f"dilation range needs 0 < t_lo < t_hi < inf, "
                              f"got t_lo = {opts['t_lo']}, "
                              f"t_hi = {opts['t_hi']}")
        if opts["t_per_octave"] < 1:
            raise ConfigError(f"t_per_octave = {opts['t_per_octave']} < 1")
        m0 = radial_symbol(opts["symbol"])
        octaves = math.log2(opts["t_hi"] / opts["t_lo"])
        npts = octaves * opts["t_per_octave"] + 1
        if npts > MAX_DILATIONS:
            raise BudgetError(f"dilation grid of {npts:.3g} points exceeds "
                              f"the cap {MAX_DILATIONS}")
        t_grid = np.geomspace(opts["t_lo"], opts["t_hi"], int(npts))
        res = radial_symbol_quantity(m0, dim, params, t_grid=t_grid,
                                     truncation=opts["truncation"],
                                     spatial_truncation=
                                     opts["spatial_truncation"],
                                     resolution=opts["resolution"])
        summary["symbol"] = opts["symbol"]
        summary["scan"] = res
        report.write_csv(os.path.join(outdir, "per_t.csv"),
                         ["t", "quantity"],
                         [(float(t), float(v))
                          for t, v in sorted(res.per_t.items())])
        for r, v in zip(res.trend["scales"], res.trend["values"]):
            trunc_rows.append(("symbol_argmax_t", float(r), float(v)))
    else:
        raise ConfigError(f"unknown characterize mode {opts['mode']!r}")
    report.write_csv(os.path.join(outdir, "truncation.csv"),
                     ["side", "truncation", "value"], trunc_rows)
    return summary


def run_br_scan(opts, outdir, seed):
    if opts["dim"] < 2:
        raise ConfigError(f"dim = {opts['dim']} must be an integer of at "
                          f"least 2")
    _check_line_points(opts["resolution"], "resolution")
    if not opts["lam_step"] > 0:
        raise ConfigError(f"lam_step = {opts['lam_step']} must be positive")
    if not -math.inf < opts["lam_lo"] <= opts["lam_hi"] < math.inf:
        raise ConfigError(f"order range needs finite lam_lo <= lam_hi, got "
                          f"lam_lo = {opts['lam_lo']}, "
                          f"lam_hi = {opts['lam_hi']}")
    count = (opts["lam_hi"] + 1e-9 - opts["lam_lo"]) / opts["lam_step"]
    if count > MAX_ORDERS:
        raise BudgetError(f"order grid of {count:.3g} points exceeds the cap "
                          f"{MAX_ORDERS}")
    lam_grid = np.arange(opts["lam_lo"], opts["lam_hi"] + 1e-9,
                         opts["lam_step"]).round(10).tolist()
    results = critical_scan(opts["dim"], opts["p_list"], lam_grid,
                            truncation=opts["truncation"],
                            resolution=opts["resolution"])
    per_p = []
    for res in results:
        rows = []
        for lam, full, tail, divergent in res.table:
            r_top = max(full)
            rows.append((float(lam), float(full[r_top]), float(tail[r_top]),
                         bool(divergent)))
        report.write_csv(os.path.join(outdir, f"scan_p{res.p:.6g}.csv"),
                         ["lam", "full_value_at_R", "tail_value_at_R",
                          "divergent"], rows)
        per_p.append({"p": res.p, "prediction": res.prediction,
                      "estimate": res.estimate,
                      "identity_gap": res.identity_gap})
    summary = {"dim": opts["dim"], "per_p": per_p,
               "lam_grid": [float(x) for x in lam_grid],
               "truncation": opts["truncation"]}
    if opts["decay_fit"]:
        fits = {}
        for lam in (0.5, 1.0, 1.5):
            fits[repr(lam)] = {"exponent": edge_decay_fit(lam),
                               "target": lam + 1.0}
        summary["decay_fits"] = fits
    return summary


def run_wave_check(opts, outdir, seed):
    n_list = list(range(opts["n_lo"], opts["n_hi"] + 1))
    if not n_list:
        raise ConfigError("empty scale range")
    if n_list[0] < 1 or n_list[-1] > MAX_WAVE_SCALE:
        raise DomainError(f"scale range {n_list[0]}..{n_list[-1]} outside "
                          f"the supported 1..{MAX_WAVE_SCALE}")
    # the cost grows with n: one check of the largest scale covers them all
    wave_kernel_plan(n_list[-1], opts["dim"], decompose_radii(n_list[-1])[2])
    decs, l1_ratio, rate = decompose_range(n_list, opts["dim"])
    for dec in decs:
        report.write_csv(os.path.join(outdir, f"omega_n{dec.n}.csv"),
                         ["rho", "re", "im"],
                         [(float(r), float(v.real), float(v.imag))
                          for r, v in zip(dec.annulus_rho, dec.omega)])
        report.write_csv(os.path.join(outdir, f"error_n{dec.n}.csv"),
                         ["rho", "abs"],
                         [(float(r), float(abs(v)))
                          for r, v in zip(dec.error_rho, dec.error_values)])
    summary = {
        "dim": opts["dim"],
        "scales": n_list,
        "omega_l1": {str(d.n): d.omega_l1 for d in decs},
        "error_sup": {str(d.n): d.error_sup for d in decs},
        "l1_ratio": l1_ratio,
        "decay_rate": rate,
    }
    return summary


def run_sph_probe(opts, outdir, seed):
    if not 2 <= opts["dim"] <= MAX_SHELL_DIM:
        raise ConfigError(f"dim = {opts['dim']} outside the supported "
                          f"2..{MAX_SHELL_DIM}")
    if opts["shells"] < 1:
        raise ConfigError(f"shells = {opts['shells']} must be at least 1")
    if not 1.0 <= opts["r_lo"] <= opts["r_hi"] < math.inf:
        raise ConfigError(f"shell radii need 1 <= r_lo <= r_hi < inf, got "
                          f"r_lo = {opts['r_lo']}, r_hi = {opts['r_hi']}")
    r_grid = np.linspace(opts["r_lo"], opts["r_hi"], opts["shells"])
    kernel = SmoothingKernel(opts["dim"], radius0=opts["radius0"],
                             vanishing_order=opts["vanishing_order"])
    est = shell_operator_lower_bound(opts["dim"], opts["p"], r_grid,
                                     kernel=kernel, budget=opts["budget"],
                                     seed=seed,
                                     spread_radii=tuple(opts["spreads"]))
    ratios = shell_l1_ratios(opts["dim"], r_grid, kernel)
    report.write_csv(os.path.join(outdir, "shell_l1.csv"),
                     ["r", "l1_over_mass"],
                     [(float(r), float(v)) for r, v in sorted(ratios.items())])
    summary = {"dim": opts["dim"], "p": opts["p"],
               "estimate": report.fields_dict(est),
               "shells": [float(r) for r in r_grid]}
    return summary


def run_opnorm(opts, outdir, seed):
    axes = build_axes(opts["extent"], opts["resolution"], opts["ndim"])
    # the sweep scores its dilations as witnesses too
    steps = opts["budget"] + (SWEEP_DILATIONS if opts["mode"] == "sweep"
                              else 0)
    cells = opts["resolution"] ** opts["ndim"]
    if steps * cells > MAX_WITNESS_CELLS:
        raise BudgetError(f"{steps} witness steps on {cells} grid cells "
                          f"exceed the cap of {MAX_WITNESS_CELLS} cells")
    mult = grid_multiplier(opts["multiplier"], axes)
    if opts["mode"] == "sweep":
        out = scaling_sweep_experiment(mult, axes, opts["p"], opts["nu"],
                                       budget=opts["budget"], seed=seed)
        report.write_csv(os.path.join(outdir, "sweep.csv"),
                         ["t", "scaled_norm"],
                         [(float(t), float(v))
                          for t, v in sorted(out["rhs_per_t"].items())])
        return out
    if opts["mode"] == "estimate":
        est = estimate_lower(mult, axes, opts["p"], opts["nu"],
                             budget=opts["budget"], seed=seed)
        summary = report.fields_dict(est)
        summary["multiplier"] = opts["multiplier"]
        return summary
    raise ConfigError(f"unknown opnorm mode {opts['mode']!r}")


def run_apply(opts, outdir, seed):
    if not 0 <= opts["csv_limit"] <= CSV_MAX_CELLS:
        raise ConfigError(f"csv_limit = {opts['csv_limit']} is outside "
                          f"0..{CSV_MAX_CELLS} cells")
    axes = build_axes(opts["extent"], opts["resolution"], opts["ndim"])
    f = input_field(opts["input"], axes)
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
    in_l2 = f.l2_norm()
    out_l2 = out.l2_norm()
    summary = {
        "multiplier": opts["multiplier"],
        "input": opts["input"],
        "output_field": os.path.basename(out_path),
        "input_l2": in_l2,
        "output_l2": out_l2,
        "symbol_sup": sym_max,
        "energy_bound_ok": bool(out_l2 <= sym_max * in_l2 * (1 + 1e-12)),
        "wraparound_fraction": wrap,
    }
    return summary


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
        for key, (default, kind) in defaults.items():
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
        summary["command"] = command
        summary["seed"] = args.seed
        report.atomic_write_text(os.path.join(outdir, "config_echo.cfg"),
                                 effective_text(opts))
        report.write_summary(os.path.join(outdir, "summary.json"), summary)
        report.write_run_meta(os.path.join(outdir, "run_meta.json"),
                              {"argv": list(argv) if argv is not None
                               else sys.argv[1:]})
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
