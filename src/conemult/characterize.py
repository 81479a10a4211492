"""Characterization functionals for radial symbols and edge profiles.

Two sides of the same size condition are computed here:

  * fourier side -- the weighted Lorentz quasi-norm of
    gamma_hat(s) (1+|s|)^(-(d-1)/2) in L^{p,nu}(R, (1+|s|)^(d-1) ds),
  * kernel side -- the L^{p,nu}(R^d) quasi-norm of the d-dimensional
    inverse transform of gamma(|xi|), via polar coordinates,

plus the global radial-symbol functional: the sup over dilations t of the
fourier-side quantity of phi * m0(t .) for a fixed window bump phi.

All quantities are reported together with their values at nested
truncations; a >= 10% growth per doubling across three doublings is
flagged as a divergent trend.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import surface_area
from .bumps import BumpPhi
from .errors import DomainError
from .lorentz import (WeightedSampleSet, lorentz_quasinorm,
                      rearranged_quasinorm, subset_rearrangements)
from .radial import fourier_1d, radial_transform
from .util import doubling_trend, geometric_grid

GROWTH_THRESHOLD = 1.10  # per-doubling growth that flags divergence


@dataclass
class QuantityResult:
    """A functional value with nested-truncation diagnostics."""

    value: float
    by_truncation: dict
    trend: dict
    meta: dict = field(default_factory=dict)

    @property
    def divergent(self):
        return self.trend.get("divergent", False)

    def to_dict(self):
        return {
            "value": self.value,
            "by_truncation": {repr(k): v for k, v in sorted(self.by_truncation.items())},
            "trend": self.trend,
            "meta": self.meta,
        }


class LineSamples:
    """Weighted samples of |g_hat(s)| (1+|s|)^(-(d-1)/2) on |s| <= R.

    Each grid point of ``sigma`` (ascending, uniform) inside the truncation
    carries the cell measure h (1+|s|)^(d-1).  Everything but |g_hat| is
    fixed by the grid, d and R, so one instance serves every transform
    tabulated on the same grid.  A truncation that is not finite and
    positive, or that the grid stops short of, is rejected rather than
    silently cut off.
    """

    def __init__(self, sigma, dim, truncation):
        _check_truncation(sigma, truncation)
        h = sigma[1] - sigma[0]
        self.keep = np.abs(sigma) <= truncation
        self.abs_s = np.abs(sigma[self.keep])
        self.divisor = (1.0 + self.abs_s) ** ((dim - 1) / 2.0)
        self.weights = h * (1.0 + self.abs_s) ** (dim - 1)

    def samples(self, ghat):
        return WeightedSampleSet(np.abs(ghat[self.keep]) / self.divisor,
                                 self.weights)


def _check_truncation(sigma, truncation):
    if not 0 < truncation < math.inf:
        raise DomainError(f"truncation R = {truncation} must be finite and "
                          f"positive")
    if sigma[-1] < truncation:
        raise DomainError(
            f"frequency grid reaches |s| = {sigma[-1]:.3g} < R = "
            f"{truncation:.6g}; raise the resolution")


def line_rearrangements(sigma, ghat, dim, windows):
    """Rearranged weighted line samples on each window lo <= |s| <= hi.

    One sort of the samples on the widest window serves them all.  The
    windows' upper ends are checked in ascending order, so a grid short
    of several is reported at the smallest.
    """
    tops = sorted(hi for _, hi in windows)
    for hi in tops:
        _check_truncation(sigma, hi)
    line = LineSamples(sigma, dim, tops[-1])
    a = line.abs_s
    return subset_rearrangements(line.samples(ghat),
                                 [(a >= lo) & (a <= hi) for lo, hi in windows])


def fourier_side_quantity(gamma, dim, params, truncation=4096.0,
                          spatial_truncation=8.0, resolution=2 ** 16,
                          doublings=3):
    """Weighted Lorentz size of the profile's 1-d Fourier transform.

    The transform is computed and its samples sorted once; the quasi-norm
    is reported at truncations R/2^doublings .. R for convergence
    assessment.
    """
    sigma, ghat = fourier_1d(gamma, spatial_truncation, resolution)
    radii = [truncation / 2 ** i for i in range(doublings, -1, -1)]
    rearranged = line_rearrangements(sigma, ghat, dim,
                                     [(0.0, r) for r in radii])
    by_r = {r: rearranged_quasinorm(rr, params)
            for r, rr in zip(radii, rearranged)}
    trend = doubling_trend(by_r, GROWTH_THRESHOLD)
    return QuantityResult(by_r[truncation], by_r, trend,
                          {"side": "fourier", "dim": dim, "p": params.p,
                           "nu": params.nu, "truncation": truncation,
                           "resolution": resolution,
                           "spatial_truncation": spatial_truncation})


def polar_sample_set(radii, values, dim):
    """Weighted samples of |f| on R^d from a radial tabulation.

    Cell widths are midpoint gaps of the radius grid; each cell carries
    weight |S^{d-1}| r^{d-1} dr.
    """
    r = np.asarray(radii, dtype=float)
    if len(r) < 2:
        raise DomainError("need at least two radii")
    edges = np.empty(len(r) + 1)
    edges[1:-1] = 0.5 * (r[1:] + r[:-1])
    edges[0] = max(r[0] - (edges[1] - r[0]), 0.0)
    edges[-1] = r[-1] + (r[-1] - edges[-2])
    widths = np.diff(edges)
    weights = surface_area(dim) * r ** (dim - 1) * widths
    good = weights > 0
    return WeightedSampleSet(np.abs(np.asarray(values))[good], weights[good])


def kernel_side_quantity(gamma, dim, params, support=None, rho_max=256.0,
                         points_per_octave=48, doublings=3, rho_min=1e-2,
                         panel_budget=400_000):
    """L^{p,nu}(R^d) size of the inverse transform of gamma(|xi|)."""
    radii = np.concatenate(([rho_min / 2], geometric_grid(rho_min, rho_max,
                                                          points_per_octave)))
    prof = radial_transform(gamma, dim, radii=radii, support=support,
                            inverse=True, panel_budget=panel_budget)
    ok = prof.reliable
    radii, vals = prof.radii[ok], np.abs(prof.values[ok])
    by_r = {}
    for i in range(doublings, -1, -1):
        r = rho_max / 2 ** i
        keep = radii <= r
        samples = polar_sample_set(radii[keep], vals[keep], dim)
        by_r[r] = lorentz_quasinorm(samples, params)
    trend = doubling_trend(by_r, GROWTH_THRESHOLD)
    return QuantityResult(by_r[rho_max], by_r, trend,
                          {"side": "kernel", "dim": dim, "p": params.p,
                           "nu": params.nu, "rho_max": rho_max,
                           "points_per_octave": points_per_octave})


@dataclass
class SymbolScanResult:
    """Sup over dilations of the windowed-symbol quantity."""

    value: float
    arg_sup: float
    per_t: dict
    trend: dict
    meta: dict = field(default_factory=dict)

    def to_dict(self):
        return {"value": self.value, "arg_sup": self.arg_sup,
                "per_t": {repr(k): v for k, v in sorted(self.per_t.items())},
                "trend": self.trend, "meta": self.meta}


def default_dilation_grid(lo=2.0 ** -6, hi=2.0 ** 6, points_per_octave=64):
    """Geometric dilation scan grid; the reported sup is a lower bound."""
    return geometric_grid(lo, hi, points_per_octave)


def radial_symbol_quantity(m0, dim, params, t_grid=None, phi=None,
                           truncation=4096.0, spatial_truncation=8.0,
                           resolution=2 ** 15, doublings=3):
    """Global radial-symbol functional: sup_t of the windowed-dilate quantity.

    For each dilation t the symbol is windowed to phi(r) m0(t r) (phi a fixed
    bump supported in (1/2, 2)) and the fourier-side quantity is taken; the
    sup and its maximizer over the finite scan grid are reported, together
    with truncation diagnostics at the maximizing t.
    """
    phi = phi or BumpPhi()
    if t_grid is None:
        t_grid = default_dilation_grid(2.0 ** -4, 2.0 ** 4, 16)
    per_t = {}
    line = None
    for t in np.asarray(t_grid, dtype=float):
        windowed = _windowed_dilate(m0, phi, t)
        sigma, khat = fourier_1d(windowed, spatial_truncation, resolution)
        if line is None:    # every dilate shares the grid
            line = LineSamples(sigma, dim, truncation)
        per_t[float(t)] = lorentz_quasinorm(line.samples(khat), params)
    arg = max(per_t, key=per_t.get)
    best = _windowed_dilate(m0, phi, arg)
    diag = fourier_side_quantity(best, dim, params, truncation,
                                 spatial_truncation, resolution * 4, doublings)
    return SymbolScanResult(per_t[arg], arg, per_t, diag.trend,
                            {"dim": dim, "p": params.p, "nu": params.nu,
                             "truncation": truncation,
                             "t_grid": [float(t) for t in t_grid]})


def _windowed_dilate(m0, phi, t):
    def windowed(r):
        return phi(r) * np.asarray(m0(t * np.asarray(r, dtype=float)))
    return windowed


def dilation_invariance_ratio(m0, dim, params, t0, t_grid=None, **kwargs):
    """Ratio of the symbol functional for m0 and its dilate m0(t0 .).

    Exactly 1 when the scan grid is closed under multiplication by t0 and
    the maximizer is interior.
    """
    if not t0 > 0:
        raise DomainError(f"dilation must be positive, got {t0}")
    base = radial_symbol_quantity(m0, dim, params, t_grid=t_grid, **kwargs)
    dilated = radial_symbol_quantity(lambda r: m0(t0 * np.asarray(r)),
                                     dim, params, t_grid=t_grid, **kwargs)
    return base.value / dilated.value, base, dilated


@dataclass
class CharacterizationReport:
    """Per-octave size quantities for a profile family, with recorded sups.

    Divergent entries keep their truncated value but are flagged; the sup is
    the max over the recorded per-octave entries, so it is a lower bound for
    the family's uniform functional.
    """

    dim: int
    p: float
    nu: float
    fourier_by_octave: dict   # k -> QuantityResult
    kernel_by_octave: dict    # k -> QuantityResult or None
    symbol_scan: object = None  # SymbolScanResult or None
    meta: dict = field(default_factory=dict)

    @property
    def fourier_sup(self):
        return max(q.value for q in self.fourier_by_octave.values())

    @property
    def kernel_sup(self):
        vals = [q.value for q in self.kernel_by_octave.values()
                if q is not None]
        return max(vals) if vals else None

    @property
    def any_divergent(self):
        entries = list(self.fourier_by_octave.values()) + \
            [q for q in self.kernel_by_octave.values() if q is not None]
        return any(q.divergent for q in entries)

    def to_dict(self):
        out = {
            "dim": self.dim, "p": self.p,
            "nu": "inf" if math.isinf(self.nu) else self.nu,
            "fourier": {str(k): q.to_dict()
                        for k, q in sorted(self.fourier_by_octave.items())},
            "kernel": {str(k): (q.to_dict() if q is not None else None)
                       for k, q in sorted(self.kernel_by_octave.items())},
            "fourier_sup": self.fourier_sup,
            "kernel_sup": self.kernel_sup,
            "any_divergent": self.any_divergent,
            "meta": self.meta,
        }
        if self.symbol_scan is not None:
            out["symbol_scan"] = self.symbol_scan.to_dict()
        return out


def characterize_family(profiles_by_octave, dim, params, kernel_support=None,
                        **kwargs):
    """Both size functionals for every octave profile of a family.

    ``profiles_by_octave`` maps k to the profile gamma_k; the per-octave
    quantities and their sups land in a CharacterizationReport.  Kernel-side
    evaluation is skipped (None) for profiles vanishing on (0, inf), where
    the radial extension is trivially zero.
    """
    fourier = {}
    kernel = {}
    for k, gamma in profiles_by_octave.items():
        fourier[k] = fourier_side_quantity(gamma, dim, params, **kwargs)
        probe = np.linspace(1e-3, 4.0, 1024)
        if np.any(np.abs(np.asarray(gamma(probe))) > 0):
            kernel[k] = kernel_side_quantity(gamma, dim, params,
                                             support=kernel_support)
        else:
            kernel[k] = None
    return CharacterizationReport(dim, params.p, params.nu, fourier, kernel,
                                  meta={"octaves": sorted(profiles_by_octave)})


@dataclass
class SideComparison:
    """Fourier-side vs kernel-side quantities over a profile family."""

    dim: int
    p: float
    nu: float
    rows: list  # (name, fourier_value, kernel_value, ratio)
    band: float  # smallest c with all ratios in [1/c, c]

    def to_dict(self):
        return {"dim": self.dim, "p": self.p,
                "nu": "inf" if math.isinf(self.nu) else self.nu,
                "rows": [{"name": n, "fourier": f, "kernel": k, "ratio": q}
                         for n, f, k, q in self.rows],
                "band": self.band}


def compare_sides(profiles, dim, params, support=(0.25, 2.25), **kernel_kwargs):
    """Empirical two-sided comparison across a named profile family."""
    rows = []
    for name, gamma in profiles:
        fq = fourier_side_quantity(gamma, dim, params)
        kq = kernel_side_quantity(gamma, dim, params, support=support,
                                  **kernel_kwargs)
        ratio = fq.value / kq.value if kq.value > 0 else float("inf")
        rows.append((name, fq.value, kq.value, ratio))
    ratios = [r for _, _, _, r in rows]
    band = max(max(ratios), 1.0 / min(ratios))
    return SideComparison(dim, params.p, params.nu, rows, band)
