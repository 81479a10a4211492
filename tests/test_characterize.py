import csv
import json
import math

import numpy as np
import pytest

from conemult import characterize, cli
from conemult.bessel import surface_area
from conemult.bumps import BumpPhi, smooth_window
from conemult.characterize import (LineSamples, fourier_side_quantity,
                                   kernel_side_quantity, polar_sample_set,
                                   radial_symbol_quantity, scan_line)
from conemult.errors import DomainError
from conemult.lorentz import LorentzParams
from conemult.util import geometric_grid
from reference import symbol_scan_per_t


def gauss_windowed(u):
    u = np.asarray(u, dtype=float)
    return np.exp(-8.0 * u ** 2) * smooth_window(u, -2.0, -1.5, 1.5, 2.0)


def annulus_bump(center=1.0, width=0.5, freq=0.0):
    def f(u):
        u = np.asarray(u, dtype=float)
        out = smooth_window(u, center - width, center - width / 2,
                            center + width / 2, center + width)
        return out * np.cos(freq * u) if freq else out
    return f


def test_zero_profile_gives_zero():
    zero = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    q = fourier_side_quantity(zero, 4, LorentzParams(1.2, math.inf),
                              truncation=512.0, resolution=2 ** 13)
    assert q.value == 0.0
    assert not q.trend["divergent"]


def test_rapid_decay_profile_converges():
    q = fourier_side_quantity(gauss_windowed, 4, LorentzParams(1.25, 2.0),
                              truncation=2048.0, resolution=2 ** 15)
    rs = sorted(q.by_truncation)
    assert abs(q.by_truncation[rs[-1]] - q.by_truncation[rs[-2]]) \
        <= 0.01 * q.value
    assert not q.trend["divergent"]


def test_edge_profile_weak_quantities_follow_threshold():
    from conemult.bochner import BRProfile
    d, p = 4, 8.0 / 7.0
    # at the threshold order: finite, stable
    q1 = fourier_side_quantity(BRProfile(1.0), d, LorentzParams(p, math.inf),
                               truncation=16384.0, spatial_truncation=4.0,
                               resolution=2 ** 17)
    assert not q1.trend["divergent"]
    # wider exponent range: still finite
    q2 = fourier_side_quantity(BRProfile(1.0), d,
                               LorentzParams(1.25, math.inf),
                               truncation=16384.0, spatial_truncation=4.0,
                               resolution=2 ** 17)
    assert not q2.trend["divergent"]
    # well below the threshold: at least 10% growth per doubling
    q3 = fourier_side_quantity(BRProfile(0.5), d, LorentzParams(p, math.inf),
                               truncation=16384.0, spatial_truncation=4.0,
                               resolution=2 ** 17)
    assert q3.trend["divergent"]


def test_scaling_of_fourier_side():
    params = LorentzParams(1.3, math.inf)
    base = fourier_side_quantity(annulus_bump(), 3, params, truncation=512.0,
                                 resolution=2 ** 13)
    scaled = fourier_side_quantity(lambda u: 2.5 * annulus_bump()(u), 3,
                                   params, truncation=512.0,
                                   resolution=2 ** 13)
    assert math.isclose(scaled.value, 2.5 * base.value, rel_tol=1e-12)


def test_modulation_invariance_exact():
    params = LorentzParams(1.3, math.inf)
    base = annulus_bump(1.0, 0.4)
    shifted = lambda u: base(np.asarray(u, dtype=float) - 0.05)
    q0 = fourier_side_quantity(base, 3, params, truncation=512.0,
                               resolution=2 ** 13)
    q1 = fourier_side_quantity(shifted, 3, params, truncation=512.0,
                               resolution=2 ** 13)
    assert math.isclose(q0.value, q1.value, rel_tol=1e-10)


def test_monotone_in_truncation_at_nu_eq_p():
    # nonnegative integrand: enlarging the truncation can only grow the norm
    q = fourier_side_quantity(annulus_bump(), 3, LorentzParams(1.4, 1.4),
                              truncation=2048.0, resolution=2 ** 15)
    vals = [q.by_truncation[r] for r in sorted(q.by_truncation)]
    assert all(b >= a * (1 - 1e-13) for a, b in zip(vals, vals[1:]))


def test_kernel_side_zero():
    zero = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    q = kernel_side_quantity(zero, 3, LorentzParams(2.0, 2.0),
                             support=(0.0, 1.0), rho_max=32.0)
    assert q.value == 0.0


def test_kernel_side_plancherel():
    d = 3
    gamma = annulus_bump(1.0, 0.5)
    q = kernel_side_quantity(gamma, d, LorentzParams(2.0, 2.0),
                             support=(0.25, 2.0), rho_max=512.0)
    rr = np.linspace(0.0, 2.0, 4000)
    l2 = math.sqrt(surface_area(d)
                   * np.trapezoid(gamma(rr) ** 2 * rr ** (d - 1), rr))
    want = (2 * math.pi) ** (-d / 2.0) * l2
    assert abs(q.value - want) <= 1e-4 * want


def test_side_comparison_band_small_family():
    params = LorentzParams(1.2, 1.2)
    for gamma in (annulus_bump(1.0, 0.5), annulus_bump(0.8, 0.3),
                  annulus_bump(1.3, 0.5, freq=6.0), annulus_bump(1.5, 0.4)):
        fv = fourier_side_quantity(gamma, 3, params).value
        kv = kernel_side_quantity(gamma, 3, params, support=(0.25, 2.25),
                                  rho_max=256.0).value
        assert fv > 0 and kv > 0
        assert 1.0 / 20.0 <= fv / kv <= 20.0


def test_symbol_scan_constant_symbol_is_flat():
    res = radial_symbol_quantity(
        lambda r: np.ones_like(np.asarray(r, dtype=float)), 3,
        LorentzParams(1.2, 2.0), t_grid=np.geomspace(0.25, 4.0, 9),
        resolution=2 ** 13, truncation=512.0)
    vals = list(res.per_t.values())
    assert max(vals) / min(vals) <= 1.0 + 1e-9


def test_symbol_scan_cone_mean_symbols():
    p = 8.0 / 7.0
    br1 = lambda r: np.clip(1.0 - np.asarray(r, float) ** 2, 0.0, None)
    res = radial_symbol_quantity(br1, 4, LorentzParams(p, math.inf),
                                 t_grid=np.geomspace(0.25, 4.0, 33),
                                 resolution=2 ** 16, truncation=2048.0)
    assert not res.trend["divergent"]
    assert 0.25 <= res.arg_sup <= 4.0
    # below the threshold the singular slab carries the sup
    br05 = lambda r: np.clip(1.0 - np.asarray(r, float) ** 2, 0.0, None) ** 0.5
    res2 = radial_symbol_quantity(br05, 4, LorentzParams(p, math.inf),
                                  t_grid=np.geomspace(0.25, 4.0, 33),
                                  resolution=2 ** 16, truncation=2048.0)
    assert 0.5 <= res2.arg_sup <= 2.0


def test_symbol_scan_jump_symbol_diverges():
    ind = lambda r: (np.asarray(r, dtype=float) <= 1.0).astype(float)
    res = radial_symbol_quantity(ind, 4, LorentzParams(8.0 / 7.0, math.inf),
                                 t_grid=np.array([1.0]), resolution=2 ** 15,
                                 truncation=4096.0)
    assert res.trend["divergent"]


def test_symbol_scan_rejects_grid_short_of_truncation():
    # 2^13 points on [-8, 8) reach |s| = 1608 only
    ind = lambda r: (np.asarray(r, dtype=float) <= 1.0).astype(float)
    with pytest.raises(DomainError, match="raise the resolution"):
        radial_symbol_quantity(ind, 4, LorentzParams(1.2, math.inf),
                               t_grid=np.array([1.0]), resolution=2 ** 13,
                               truncation=2048.0)


def test_symbol_scan_reduces_to_fourier_side_at_unit_dilation():
    phi = BumpPhi()
    m0 = annulus_bump(1.2, 0.4)
    params = LorentzParams(1.3, math.inf)
    res = radial_symbol_quantity(m0, 3, params, t_grid=np.array([1.0]),
                                 resolution=2 ** 13, truncation=512.0)
    windowed = lambda u: phi(u) * m0(u)
    q = fourier_side_quantity(windowed, 3, params, truncation=512.0,
                              resolution=2 ** 13)
    assert math.isclose(res.value, q.value, rel_tol=1e-10)


def test_symbol_scan_matches_per_dilation_route():
    # the grid parts shared across dilations change no value
    phi = BumpPhi()
    m0 = annulus_bump(1.2, 0.4)
    params = LorentzParams(1.3, 2.0)
    t_grid = np.geomspace(0.5, 2.0, 5)
    res = radial_symbol_quantity(m0, 3, params, t_grid=t_grid,
                                 resolution=2 ** 13, truncation=512.0)
    for t in t_grid:
        q = fourier_side_quantity(lambda u: phi(u) * m0(t * u), 3, params,
                                  truncation=512.0, resolution=2 ** 13)
        assert res.per_t[float(t)] == q.value


@pytest.mark.parametrize("symbol", ["br:1.0", "oscillatory:3"])
@pytest.mark.parametrize("params", [LorentzParams(8.0 / 7.0, math.inf),
                                    LorentzParams(1.3, 2.0)])
def test_symbol_scan_equals_the_full_line_oracle(symbol, params):
    # a real symbol's line folds; a complex one's takes the full line
    m0 = cli.radial_symbol(symbol)
    t_grid = np.geomspace(0.25, 4.0, 9)
    res = radial_symbol_quantity(m0, 3, params, t_grid=t_grid,
                                 resolution=2 ** 13, truncation=512.0,
                                 spatial_truncation=8.0)
    assert res.per_t == symbol_scan_per_t(m0, 3, params, t_grid, 512.0,
                                          8.0, 2 ** 13)


@pytest.mark.parametrize("params", [LorentzParams(8.0 / 7.0, math.inf),
                                    LorentzParams(1.3, 2.0)])
def test_symbol_scan_does_not_depend_on_the_worker_count(monkeypatch,
                                                        params):
    import threading
    from conemult import util
    from conemult.report import fields_dict
    monkeypatch.setattr(util, "PARALLEL_MIN_POINTS", 1)
    m0 = annulus_bump(1.2, 0.4)
    threads = threading.active_count()
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(util.os, "sched_getaffinity",
                            lambda pid, n=workers: set(range(n)))
        assert util._worker_count(2 ** 13, util.LINE_POINT_BYTES) == workers
        runs.append(fields_dict(radial_symbol_quantity(
            m0, 3, params, t_grid=np.geomspace(0.25, 4.0, 17),
            resolution=2 ** 13, truncation=512.0)))
        assert threading.active_count() == threads
    assert runs[1] == runs[0] and runs[2] == runs[0]


def _br05(r):
    return np.clip(1.0 - np.asarray(r, float) ** 2, 0.0, None) ** 0.5


def _dilation_ratio(t0, t_grid, **kwargs):
    """Symbol functional of br05 over that of its dilate br05(t0 .).

    Exactly 1 when the scan grid is closed under multiplication by t0 and
    the maximizer is interior.
    """
    params = LorentzParams(8.0 / 7.0, math.inf)
    base, dilated = (radial_symbol_quantity(m0, 4, params, t_grid=t_grid,
                                            **kwargs)
                     for m0 in (_br05, lambda r: _br05(t0 * np.asarray(r))))
    return base.value / dilated.value


def test_dilation_unit_ratio_exact():
    ratio = _dilation_ratio(1.0, np.geomspace(0.5, 2.0, 9),
                            resolution=2 ** 12, truncation=256.0)
    assert ratio == 1.0


def test_dilation_dyadic_grid_reindexes():
    ratio = _dilation_ratio(2.0, np.geomspace(2.0 ** -3, 2.0 ** 3, 49),
                            resolution=2 ** 13, truncation=1024.0)
    assert abs(ratio - 1.0) <= 1e-9


def test_dilation_off_grid_within_scan_tolerance():
    ratio = _dilation_ratio(3.0, geometric_grid(2.0 ** -4, 2.0 ** 4, 64),
                            resolution=2 ** 13, truncation=1024.0)
    assert abs(ratio - 1.0) <= 0.02


def test_line_samples_dim_range_ends_at_the_float_range(monkeypatch):
    # the default grid: 2^16 points on [-8, 8), reaching |s| = 8192 pi
    windows = [(0.0, 2048.0), (0.0, 4096.0)]
    weak = LorentzParams(8.0 / 7.0, math.inf)
    sampler = lambda x: lambda g, out: g(x)
    # 85 ln(4097) = 707.1, below ln(max float) = 709.8
    [[values]] = scan_line(sampler, [gauss_windowed], 85, windows, [weak],
                           8.0, 2 ** 16)
    assert all(math.isfinite(v) and v > 0 for v in values)
    sigma = (math.pi / 8.0) * np.arange(-2 ** 15, 2 ** 15)
    assert np.isfinite(np.cumsum(LineSamples(sigma, 85, windows).weights)[-1])

    def no_transform(*a, **k):
        raise AssertionError("a transform ran before the line measure check")
    monkeypatch.setattr(characterize, "fourier_1d", no_transform)
    with pytest.raises(DomainError, match="dim = 86"):
        scan_line(sampler, [gauss_windowed], 86, windows, [weak], 8.0,
                  2 ** 16)
    # at the power nu/p = 2 of each exponent, not at 1: 2 * 85 ln(4097)
    with pytest.raises(DomainError, match="dim = 85.*power 2,"):
        scan_line(sampler, [gauss_windowed], 85, windows,
                  [weak, LorentzParams(1.0, 2.0)], 8.0, 2 ** 16)


def test_polar_sample_set_measures():
    rho = np.linspace(0.1, 2.0, 50)
    s = polar_sample_set(rho, np.ones_like(rho), 3)
    ball = 4.0 * math.pi / 3.0 * (2.0 + (rho[1] - rho[0]) / 2) ** 3
    assert abs(s.total_measure - ball) <= 0.05 * ball


def _assert_close_summaries(got, want, path=""):
    """Floats within 1e-9 relative, everything else (estimates, flags,
    keys) equal."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for k in want:
            _assert_close_summaries(got[k], want[k], f"{path}/{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close_summaries(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(want, bool):
        assert math.isclose(got, want, rel_tol=1e-9), (path, got, want)
    else:
        assert got == want, (path, got, want)


@pytest.mark.slow
@pytest.mark.parametrize("argv", [
    ["br-scan"],
    ["characterize", "--mode", "profile"],
    ["characterize", "--mode", "symbol"],
])
def test_default_runs_match_the_complex_route(tmp_path, monkeypatch, argv):
    # the complex route gives no exactly Hermitian line, so it also takes
    # the unfolded line samples: the whole old route
    from test_radial import _complex_fourier_1d
    from conemult import bochner, characterize
    from conemult.cli import main
    assert main([*argv, "--out", str(tmp_path / "new")]) == 0
    monkeypatch.setattr(bochner, "fourier_1d", _complex_fourier_1d)
    monkeypatch.setattr(characterize, "fourier_1d", _complex_fourier_1d)
    assert main([*argv, "--out", str(tmp_path / "old")]) == 0
    got, want = (_run_outputs(tmp_path / d) for d in ("new", "old"))
    assert got.keys() == want.keys() and "summary.json" in got
    _assert_close_summaries(got, want)


def _run_outputs(outdir):
    """summary.json and every CSV table of a run, numbers as floats."""
    out = {"summary.json": json.loads((outdir / "summary.json").read_text())}
    for path in outdir.glob("*.csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        out[path.name] = [rows[0]] + [[_cell(c) for c in row]
                                      for row in rows[1:]]
    return out


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text
