"""The tracer returns what the wrapped functions return, and leaves no trace.

Run with: python3 -m pytest perfbench/tests
"""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE),
                os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import conemult.cli  # noqa: E402  (loads every traced module)
from conemult import bessel, cli, multipliers, radial, util  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402


def _snapshot():
    """Every traced function as seen from each conemult namespace."""
    mods = [m for n, m in sys.modules.items()
            if n == "conemult" or n.startswith("conemult.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if callable(v)}, vars(util.CubicSpline1D)["__call__"]


def test_wrappers_return_the_same_values_and_are_removed():
    x = np.linspace(0.0, 40.0, 257)
    want_j = bessel.bessel_j_scaled(1.5, x)
    spline = util.CubicSpline1D(x, np.sin(x))
    want_s = spline(x[:-1] + 0.07)
    want_f = radial.fourier_1d(lambda s: np.exp(-s * s), 8.0, 256)
    before = _snapshot()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bessel.bessel_j_scaled is not before[0][
            ("conemult.bessel", "bessel_j_scaled")]
        assert radial.bessel_j_scaled is bessel.bessel_j_scaled
        assert cli.apply_multiplier is multipliers.apply_multiplier
        got_j = bessel.bessel_j_scaled(1.5, x)
        got_s = spline(x[:-1] + 0.07)
        got_f = radial.fourier_1d(lambda s: np.exp(-s * s), 8.0, 256)
    finally:
        tracer.uninstall()

    assert np.array_equal(got_j, want_j)
    assert np.array_equal(got_s, want_s)
    assert all(np.array_equal(g, w) for g, w in zip(got_f, want_f))
    after = _snapshot()
    assert after[1] is before[1]
    assert after[0].keys() == before[0].keys()
    assert all(after[0][k] is v for k, v in before[0].items())

    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["bessel.bessel_j_scaled", "bessel.bessel_j"]
    assert tracer.spans[1][3] == 0          # bessel_j nested in scaled
    # the nested bessel_j call is not counted a second time
    assert tracer.counts["bessel.evals"] == x.size
    assert tracer.counts["bessel.evals.series"] == np.count_nonzero(x <= 8.0)
    assert tracer.counts["bessel.evals.half_large"] == np.count_nonzero(x > 8.0)
    assert tracer.counts["util.spline.evals"] == x.size - 1
    assert tracer.counts["radial.fft_points"] == 256


def test_self_time_subtracts_child_spans():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["wave.decompose", 1.0, 9.0, 0],
             ["bessel.bessel_j", 2.0, 5.0, 1],
             ["bessel.bessel_j", 6.0, 7.0, 1],
             ["cli.main", 20.0, 21.0, -1]]
    own = tracing.self_times(spans)
    assert own == {"cli.main": 3.0, "wave.decompose": 4.0,
                   "bessel.bessel_j": 4.0}


def test_layer_metrics_cover_every_per_layer_name():
    spans = [["cli.main", 0.0, 4.0, -1], ["radial.fourier_1d", 1.0, 3.0, 0]]
    counts = {"radial.fft_points": 1000, "radial.fourier_1d.calls": 1}
    m = tracing.layer_metrics([(spans, counts)], 2.0, 5.0, {"br-scan": 2.0})
    assert set(m) == set(tracing.PER_LAYER_UNITS)
    assert m["trace.coverage"]["value"] == 0.5
    assert m["trace.overhead_frac"]["value"] == 1.0
    assert m["radial.fourier_1d.ns_per_point"]["value"] == 2e6
    assert m["cli.br-scan.s"]["value"] == 2.0
    assert m["cli.apply.s"]["value"] == 0.0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    root = os.path.dirname(os.path.dirname(HERE))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["wave", "shells", "scan",
                                                      "grid"]
