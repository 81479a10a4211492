import math

import numpy as np
import pytest

from conemult.bochner import (BRProfile, CriticalScanResult,
                              build_bochner_riesz_cone,
                              critical_exponent, critical_exponent_alt,
                              critical_scan, edge_decay_fit)
from conemult.bumps import edge_flat_bump
from conemult.characterize import fourier_side_quantity
from conemult.errors import DomainError
from conemult.lorentz import LorentzParams, WeightedSampleSet, \
    lorentz_quasinorm
from conemult.multipliers import Axis, freq_magnitude
from conemult.radial import fourier_1d
from conemult.util import doubling_trend


def test_profile_point_values():
    gamma = BRProfile(1.0)
    assert gamma(np.array([0.125]))[0] == 0.0          # u > 0 branch
    assert gamma(np.array([-1.0 / 16.0]))[0] == pytest.approx(1.0 / 16.0)
    assert gamma(np.array([-0.25 - 1e-9]))[0] == 0.0   # outside the bump


def test_profile_support_invariant():
    gamma = BRProfile(0.7)
    u = np.concatenate([np.linspace(1e-12, 2, 100),
                        np.linspace(-5, -0.25, 100)])
    assert np.all(gamma(u) == 0.0)
    inside = gamma(np.linspace(-0.24, -0.01, 50))
    assert np.all(inside >= 0.0) and np.any(inside > 0)


def test_profile_continuity_at_zero():
    gamma = BRProfile(0.3)
    assert gamma(np.array([-1e-12]))[0] <= 1e-3


def test_profile_evaluates_on_its_support_alone():
    # the restriction to -1/4 < u < 0 changes no value of the profile
    # (-u)^lambda b(u) on the whole half-line u < 0
    u = np.linspace(-4.0, 4.0, 4097)
    for lam in (0.5, 1.0):
        neg = u < 0
        full = np.zeros_like(u)
        full[neg] = (-u[neg]) ** lam * edge_flat_bump(u[neg])
        assert np.array_equal(BRProfile(lam)(u), full)


def test_invalid_order_rejected():
    with pytest.raises(DomainError):
        BRProfile(0.0)
    with pytest.raises(DomainError):
        BRProfile(-1.0)


def test_decay_fit_meets_analytic_rate():
    for lam in (0.5, 1.0, 1.5):
        assert edge_decay_fit(lam) >= lam + 1.0 - 0.1


def test_weak_quantity_monotone_in_order():
    params = LorentzParams(8.0 / 7.0, math.inf)
    prev = None
    for lam in np.arange(0.5, 2.01, 0.25):
        q = fourier_side_quantity(BRProfile(float(lam)), 4, params,
                                  truncation=1024.0, spatial_truncation=4.0,
                                  resolution=2 ** 14)
        if prev is not None:
            assert q.value <= prev * (1 + 1e-6)
        prev = q.value


def test_cone_field_point_values():
    axes = (Axis(16.0, 32), Axis(16.0, 32), Axis(16.0, 32))
    cone = build_bochner_riesz_cone(1.0, axes)
    tau = axes[-1].freq_coords()
    xi = freq_magnitude(axes[:-1])
    pos = tau > 0
    vals = cone.values
    # apex: xi = 0 gives 1 for every tau > 0
    assert np.allclose(vals[0, 0, pos], 1.0)
    # support: zero when |xi| >= tau and for tau <= 0
    xi_b = np.broadcast_to(xi[..., None], vals.shape)
    tau_b = np.broadcast_to(tau, vals.shape)
    assert np.all(vals[(xi_b >= tau_b) | (tau_b <= 0)] == 0.0)
    # direct formula at |xi| = tau/2
    i = np.argmin(np.abs(tau - 4.0))
    j = np.argmin(np.abs(axes[0].freq_coords() - 2.0))
    assert vals[j, 0, i] == pytest.approx(0.75)


def test_threshold_formulas_agree():
    for d in (2, 3, 4, 7):
        for p in (1.01, 1.2, 8.0 / 7.0, 1.9):
            assert critical_exponent(d, p) == pytest.approx(
                critical_exponent_alt(d, p), abs=1e-14)


def test_scan_bracket_validation():
    with pytest.raises(DomainError):
        critical_scan(4, [8.0 / 7.0], [1.2, 1.3, 1.4])


def test_scan_small_case():
    res = critical_scan(3, [1.2], np.arange(0.2, 1.3, 0.2).round(2).tolist(),
                        truncation=8192.0, resolution=2 ** 16)
    (r,) = res
    assert isinstance(r, CriticalScanResult)
    assert r.identity_gap == 0.0
    assert abs(r.prediction - (3.0 / 1.2 - 2.0)) <= 1e-12
    assert abs(r.estimate - r.prediction) <= 0.2 + 1e-9


# The per-(order, p, truncation, window) route critical_scan used to take,
# kept verbatim as the oracle for the one-sort-per-order scan; the two
# helpers it called are inlined from their old forms.

def _oracle_grid_samples(s, values, weight_exponent, truncation=None):
    s = np.asarray(s, dtype=float)
    values = np.abs(np.asarray(values))
    if len(s) < 2:
        raise DomainError("need at least two grid points")
    h = s[1] - s[0]
    if truncation is not None:
        keep = np.abs(s) <= truncation
        s, values = s[keep], values[keep]
        if len(s) == 0:
            raise DomainError("truncation removed every sample")
    weights = h * (1.0 + np.abs(s)) ** weight_exponent
    return WeightedSampleSet(values, weights)


def _oracle_transform_line_quantity(sigma, ghat, dim, p, nu, truncation):
    if sigma[-1] < truncation:
        raise DomainError(
            f"frequency grid reaches |s| = {sigma[-1]:.3g} < R = "
            f"{truncation:.6g}; raise the resolution")
    vals = np.abs(ghat) / (1.0 + np.abs(sigma)) ** ((dim - 1) / 2.0)
    samples = _oracle_grid_samples(sigma, vals, dim - 1, truncation)
    return lorentz_quasinorm(samples, LorentzParams(p, nu))


def _oracle_critical_scan(dim, p_list, lam_grid, truncation=16384.0,
                          resolution=2 ** 17, spatial_truncation=4.0,
                          detector_window=256.0):
    lam_grid = sorted(lam_grid)
    if truncation / 8.0 <= 2.0 * detector_window:
        raise DomainError(
            f"truncation ladder starting at {truncation / 8.0:.0f} is too "
            f"shallow for a detector window at {detector_window:.0f}")
    predictions = {p: critical_exponent(dim, p) for p in p_list}
    for p, pred in predictions.items():
        if not (lam_grid[0] < pred < lam_grid[-1]):
            raise DomainError(
                f"lambda grid [{lam_grid[0]}, {lam_grid[-1]}] does not bracket "
                f"the predicted threshold {pred:.4f} for p = {p}")
    transforms = {}
    for lam in lam_grid:
        transforms[lam] = fourier_1d(BRProfile(lam), spatial_truncation,
                                     resolution)
    results = []
    for p in p_list:
        table = []
        estimate = float("nan")
        for lam in lam_grid:
            sigma, ghat = transforms[lam]
            full, tail = {}, {}
            for i in (3, 2, 1, 0):
                r = truncation / 2 ** i
                full[r] = _oracle_transform_line_quantity(
                    sigma, ghat, dim, p, math.inf, truncation=r)
                tail[r] = _tail_weak_quantity(sigma, ghat, dim, p,
                                              detector_window, r)
            trend = doubling_trend(tail)
            table.append((lam, full, tail, trend["divergent"]))
            if not trend["divergent"] and math.isnan(estimate):
                estimate = lam
        gap = abs(critical_exponent(dim, p) - critical_exponent_alt(dim, p))
        results.append(CriticalScanResult(p, predictions[p], estimate, table,
                                          gap))
    return results


def _tail_weak_quantity(sigma, ghat, dim, p, lo, hi):
    keep = (np.abs(sigma) >= lo) & (np.abs(sigma) <= hi)
    vals = np.abs(ghat[keep]) / (1.0 + np.abs(sigma[keep])) ** ((dim - 1) / 2.0)
    h = sigma[1] - sigma[0]
    weights = h * (1.0 + np.abs(sigma[keep])) ** (dim - 1)
    samples = WeightedSampleSet(vals, weights)
    return lorentz_quasinorm(samples, LorentzParams(p, math.inf))


@pytest.mark.parametrize("dim, p_list, lam_grid", [
    (3, [1.2, 1.1, 1.2], [0.2, 0.4, 0.6, 0.8, 1.0, 1.2]),
    (4, [1.05, 8.0 / 7.0], [0.6, 0.8, 1.0, 1.2, 1.4, 1.6]),
])
def test_scan_matches_per_truncation_oracle(dim, p_list, lam_grid):
    # 2^14 points on [-4, 4) reach |s| = 6434; the ladder is 768 .. 6144
    kwargs = dict(truncation=6144.0, resolution=2 ** 14)
    got = critical_scan(dim, p_list, lam_grid, **kwargs)
    want = _oracle_critical_scan(dim, p_list, lam_grid, **kwargs)
    assert got == want
    assert any(div for r in got for *_, div in r.table)


def test_scan_does_not_depend_on_the_worker_count(monkeypatch):
    import threading
    from conemult import util
    from conemult.report import fields_dict
    monkeypatch.setattr(util, "PARALLEL_MIN_POINTS", 1)
    threads = threading.active_count()
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(util.os, "sched_getaffinity",
                            lambda pid, n=workers: set(range(n)))
        assert util._worker_count(2 ** 14, util.LINE_POINT_BYTES) == workers
        runs.append([fields_dict(r) for r in critical_scan(
            4, [1.05, 8.0 / 7.0], [0.6, 0.8, 1.0, 1.2, 1.4, 1.6],
            truncation=6144.0, resolution=2 ** 14)])
        assert threading.active_count() == threads
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_scan_nan_truncation_names_r():
    with pytest.raises(DomainError, match="R = nan must be finite"):
        critical_scan(4, [8.0 / 7.0], [0.6, 1.6], truncation=math.nan,
                      resolution=2 ** 10)


def test_fourier_side_matches_per_truncation_route():
    params = LorentzParams(8.0 / 7.0, 2.0)
    gamma = BRProfile(0.8)
    q = fourier_side_quantity(gamma, 4, params, truncation=2048.0,
                              spatial_truncation=4.0, resolution=2 ** 13)
    sigma, ghat = fourier_1d(gamma, 4.0, 2 ** 13)
    want = {r: _oracle_transform_line_quantity(sigma, ghat, 4, params.p,
                                               params.nu, r)
            for r in (256.0, 512.0, 1024.0, 2048.0)}
    assert q.by_truncation == want
