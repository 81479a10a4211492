"""Span tracing of the conemult layers, installed from outside the package.

A ``Tracer`` replaces the public functions of each traced module with
wrappers that record a span (name, start, end, parent) per call, plus work
counts taken from the call's arguments or result.  A wrapper is put in every
``conemult`` module namespace that imported the function, so calls between
modules are traced too.  ``uninstall`` puts the originals back.

Spans and counts stay in memory; the caller writes them out when the run
ends.  ``layer_metrics`` turns them into the per-layer metrics, with self
time = span time minus the time of its child spans.
"""

import functools
import inspect
import os
import sys
import time

import numpy as np

# module -> traced public names; None traces every public function defined
# in the module.  bumps and config are left out (charged to their callers),
# plots never runs in the benchmark.  The cli layer is main alone: argv,
# config resolution and runner glue are its self time.
LAYERS = {
    "bessel": None,
    "radial": None,
    "util": ("panel_nodes",),
    "lorentz": None,
    "multipliers": None,
    "wave": None,
    "characterize": None,
    "bochner": None,
    "opnorm": None,
    "report": None,
    "cli": ("main",),
}
TRACED_METHODS = (("util", "CubicSpline1D", "__call__"),)

BESSEL = ("bessel.bessel_j", "bessel.bessel_j_scaled")
BESSEL_SERIES_CUT = 8.0
BUILDERS = ("multipliers.build_dyadic_cone_multiplier",
            "multipliers.build_modulated_cone_multiplier",
            "bochner.build_bochner_riesz_cone")
FIELD_IO = {"multipliers.save_field": 1, "multipliers.load_field": 0,
            "multipliers.export_field_csv": 1}
SUBCOMMANDS = ("lorentz-norm", "characterize", "br-scan", "wave-check",
               "sph-probe", "opnorm", "apply")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Records spans and counts for the calls made while it is installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _parent_name(self, parent):
        return self.spans[parent][0] if parent >= 0 else ""

    def wrap(self, name, fn):
        hook = self._hook_for(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            sid = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(args, kwargs, result, span[2] - span[1], parent)
            return result

        return wrapper

    # -- work counts, taken outside the span -------------------------------

    def _hook_for(self, name):
        if name in BESSEL:
            return self._count_bessel
        if name in FIELD_IO:
            pos = FIELD_IO[name]
            return lambda a, k, r, d, p: self.add(
                "multipliers.io.bytes",
                _file_size(_arg(a, k, pos, "path")))
        if name.startswith("report."):
            return self._count_report
        simple = {
            "util.panel_nodes":
                lambda a, k, r: {"util.panel_nodes.nodes": len(r[0])},
            "util.CubicSpline1D.__call__":
                lambda a, k, r: {"util.spline.evals":
                                 np.size(_arg(a, k, 1, "xq"))},
            "wave.wave_kernel":
                lambda a, k, r: {"wave.wave_kernel.radii": len(r.radii)},
            "wave.radial_convolution_values":
                lambda a, k, r: {"wave.radial_convolution_values.points":
                                 np.size(r)},
            "wave.shell_profile_values":
                lambda a, k, r: {"wave.shell_profile_values.points":
                                 np.size(r)},
            "radial.fourier_1d":
                lambda a, k, r: {"radial.fourier_1d.calls": 1,
                                 "radial.fft_points": len(r[0])},
            "radial.radial_transform":
                lambda a, k, r: {"radial.radial_transform.radii": len(r.radii),
                                 "radial.unreliable_points":
                                 0 if r.reliable is None else
                                 int(np.count_nonzero(~r.reliable))},
            "lorentz.decreasing_rearrangement":
                lambda a, k, r: {"lorentz.calls": 1,
                                 "lorentz.samples":
                                 len(_arg(a, k, 0, "samples").values)},
            "multipliers.apply_multiplier":
                lambda a, k, r: {"multipliers.apply_multiplier.calls": 1,
                                 "multipliers.fft_cells": r.values.size},
            "opnorm.build_witness":
                lambda a, k, r: {"opnorm.witnesses": 1},
        }.get(name)
        if simple is None:
            return None

        def hook(args, kwargs, result, duration, parent):
            for key, n in simple(args, kwargs, result).items():
                self.add(key, int(n))
        return hook

    def _count_bessel(self, args, kwargs, result, duration, parent):
        # bessel_j_scaled calls bessel_j: count each argument once
        if self._parent_name(parent) in BESSEL:
            return
        order = float(_arg(args, kwargs, 0, "order"))
        x = np.asarray(_arg(args, kwargs, 1, "x"), dtype=float)
        kind = "int" if order == round(order) else "half"
        series = int(np.count_nonzero(x <= BESSEL_SERIES_CUT))
        self.add("bessel.evals", x.size)
        self.add("bessel.evals.series", series)
        self.add(f"bessel.evals.{kind}_large", x.size - series)
        self.add(f"bessel.evals.{kind}", x.size)
        self.add(f"bessel.time.{kind}", duration)

    def _count_report(self, args, kwargs, result, duration, parent):
        # write_summary and friends call atomic_write_text: count files once
        if self._parent_name(parent).startswith("report."):
            return
        self.add("report.files", 1)
        self.add("report.bytes", _file_size(_arg(args, kwargs, 0, "path")))

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap the traced functions wherever a conemult module holds them."""
        package = [m for n, m in sorted(sys.modules.items())
                   if (n == "conemult" or n.startswith("conemult."))
                   and m is not None]
        for short, names in LAYERS.items():
            module = sys.modules[f"conemult.{short}"]
            if names is None:
                names = [n for n, obj in vars(module).items()
                         if not n.startswith("_") and inspect.isfunction(obj)
                         and obj.__module__ == module.__name__]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{short}.{fname}", original)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, wrapper)
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules[f"conemult.{short}"], cls_name)
            self._patch(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}",
                                             vars(cls)[meth]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# derived metrics


def self_times(spans):
    """Total self time per span name: duration minus child span durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


PER_LAYER_UNITS = {
    "bessel.evals": "count", "bessel.evals.series": "count",
    "bessel.evals.int_large": "count", "bessel.evals.half_large": "count",
    "bessel.self_s": "s", "bessel.ns_per_eval.int": "ns/eval",
    "bessel.ns_per_eval.half": "ns/eval",
    "util.panel_nodes.nodes": "count", "wave.wave_kernel.radii": "count",
    "wave.wave_kernel.self_s": "s", "wave.decompose.self_s": "s",
    "util.spline.evals": "count", "util.spline.self_s": "s",
    "util.spline.ns_per_eval": "ns/eval",
    "wave.radial_convolution_values.points": "count",
    "wave.radial_convolution_values.self_s": "s",
    "wave.shell_profile_values.points": "count",
    "wave.shell_profile_values.self_s": "s",
    "wave.shell_operator_lower_bound.self_s": "s",
    "radial.fourier_1d.calls": "count", "radial.fft_points": "count",
    "radial.fourier_1d.self_s": "s", "radial.fourier_1d.ns_per_point": "ns/point",
    "radial.radial_transform.radii": "count",
    "radial.radial_transform.self_s": "s",
    "radial.unreliable_points": "count",
    "characterize.self_s": "s", "bochner.self_s": "s",
    "lorentz.calls": "count", "lorentz.samples": "count",
    "lorentz.self_s": "s", "lorentz.ns_per_sample": "ns/sample",
    "multipliers.apply_multiplier.calls": "count",
    "multipliers.fft_cells": "count",
    "multipliers.apply_multiplier.self_s": "s",
    "multipliers.apply_multiplier.ns_per_cell": "ns/cell",
    "multipliers.build.self_s": "s", "multipliers.io.bytes": "B",
    "multipliers.io.self_s": "s", "opnorm.witnesses": "count",
    "opnorm.self_s": "s",
    "report.files": "count", "report.bytes": "B", "report.self_s": "s",
    "cli.self_s": "s",
    **{f"cli.{sub}.s": "s" for sub in SUBCOMMANDS},
    "process.cpu_s": "s", "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


def merge_traces(traces):
    """Concatenate (spans, counts) pairs of several processes."""
    spans, counts = [], {}
    for sp, cnt in traces:
        base = len(spans)
        spans.extend([name, start, end, parent + base if parent >= 0 else -1]
                     for name, start, end, parent in sp)
        for key, n in cnt.items():
            counts[key] = counts.get(key, 0) + n
    return spans, counts


def layer_metrics(traces, untraced_wall_s, cpu_s, wall_by_subcommand):
    """Per-layer metric values from one traced pass over a workload.

    ``traces`` holds one (spans, counts) pair per operation.
    ``untraced_wall_s`` is the workload's wall_s with tracing off, and
    ``wall_by_subcommand`` its per-subcommand share; both come from the
    untraced passes, like ``cpu_s``.
    """
    spans, counts = merge_traces(traces)
    own = self_times(spans)

    def module_self(prefix, exclude=()):
        return sum(v for k, v in own.items()
                   if k.startswith(prefix + ".") and k not in exclude)

    def fn_self(*names):
        return sum(own.get(n, 0.0) for n in names)

    c = lambda key: counts.get(key, 0)
    traced_wall = sum(end - start for name, start, end, parent in spans
                      if parent < 0)
    cli_self = fn_self("cli.main")
    spline = fn_self("util.CubicSpline1D.__call__")
    fourier = fn_self("radial.fourier_1d")
    apply_s = fn_self("multipliers.apply_multiplier")
    lorentz = module_self("lorentz")
    values = {
        "bessel.evals": c("bessel.evals"),
        "bessel.evals.series": c("bessel.evals.series"),
        "bessel.evals.int_large": c("bessel.evals.int_large"),
        "bessel.evals.half_large": c("bessel.evals.half_large"),
        "bessel.self_s": module_self("bessel"),
        "bessel.ns_per_eval.int": _ratio(c("bessel.time.int"),
                                         c("bessel.evals.int"), 1e9),
        "bessel.ns_per_eval.half": _ratio(c("bessel.time.half"),
                                          c("bessel.evals.half"), 1e9),
        "util.panel_nodes.nodes": c("util.panel_nodes.nodes"),
        "wave.wave_kernel.radii": c("wave.wave_kernel.radii"),
        "wave.wave_kernel.self_s": fn_self("wave.wave_kernel"),
        "wave.decompose.self_s": fn_self("wave.decompose"),
        "util.spline.evals": c("util.spline.evals"),
        "util.spline.self_s": spline,
        "util.spline.ns_per_eval": _ratio(spline, c("util.spline.evals"), 1e9),
        "wave.radial_convolution_values.points":
            c("wave.radial_convolution_values.points"),
        "wave.radial_convolution_values.self_s":
            fn_self("wave.radial_convolution_values"),
        "wave.shell_profile_values.points":
            c("wave.shell_profile_values.points"),
        "wave.shell_profile_values.self_s":
            fn_self("wave.shell_profile_values"),
        "wave.shell_operator_lower_bound.self_s":
            fn_self("wave.shell_operator_lower_bound"),
        "radial.fourier_1d.calls": c("radial.fourier_1d.calls"),
        "radial.fft_points": c("radial.fft_points"),
        "radial.fourier_1d.self_s": fourier,
        "radial.fourier_1d.ns_per_point": _ratio(fourier,
                                                 c("radial.fft_points"), 1e9),
        "radial.radial_transform.radii": c("radial.radial_transform.radii"),
        "radial.radial_transform.self_s": fn_self("radial.radial_transform"),
        "radial.unreliable_points": c("radial.unreliable_points"),
        "characterize.self_s": module_self("characterize"),
        "bochner.self_s": module_self("bochner", exclude=BUILDERS),
        "lorentz.calls": c("lorentz.calls"),
        "lorentz.samples": c("lorentz.samples"),
        "lorentz.self_s": lorentz,
        "lorentz.ns_per_sample": _ratio(lorentz, c("lorentz.samples"), 1e9),
        "multipliers.apply_multiplier.calls":
            c("multipliers.apply_multiplier.calls"),
        "multipliers.fft_cells": c("multipliers.fft_cells"),
        "multipliers.apply_multiplier.self_s": apply_s,
        "multipliers.apply_multiplier.ns_per_cell":
            _ratio(apply_s, c("multipliers.fft_cells"), 1e9),
        "multipliers.build.self_s": fn_self(*BUILDERS),
        "multipliers.io.bytes": c("multipliers.io.bytes"),
        "multipliers.io.self_s": fn_self(*FIELD_IO),
        "opnorm.witnesses": c("opnorm.witnesses"),
        "opnorm.self_s": module_self("opnorm"),
        "report.files": c("report.files"),
        "report.bytes": c("report.bytes"),
        "report.self_s": module_self("report"),
        "cli.self_s": cli_self,
        **{f"cli.{sub}.s": wall_by_subcommand.get(sub, 0.0)
           for sub in SUBCOMMANDS},
        "process.cpu_s": cpu_s,
        "trace.coverage": _ratio(traced_wall - cli_self, traced_wall),
        "trace.overhead_frac": _ratio(traced_wall - untraced_wall_s,
                                      untraced_wall_s),
    }
    return {k: {"value": values[k], "unit": PER_LAYER_UNITS[k]}
            for k in PER_LAYER_UNITS}
