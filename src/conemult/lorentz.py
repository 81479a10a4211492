"""Decreasing rearrangements and Lorentz quasi-norms over weighted samples.

Conventions (fixed; no gamma-factor normalization):

    ||f||_{p,nu} = ( integral_0^inf (t^{1/p} f*(t))^nu dt/t )^{1/nu}   nu < inf
    ||f||_{p,inf} = sup_t t^{1/p} f*(t)

with f* the right-continuous decreasing rearrangement.  On a step function
the finite-nu integral is evaluated in closed form piece by piece, and the
weak-type supremum uses the right endpoint of each constant piece.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class LorentzParams:
    """Exponent pair (p, nu); nu = math.inf gives the weak quasi-norm."""

    p: float
    nu: float

    def __post_init__(self):
        if not (self.p > 0 and math.isfinite(self.p)):
            raise DomainError(f"p must be a positive real, got {self.p}")
        if not (self.nu >= self.p):
            raise DomainError(f"nu must satisfy nu >= p, got nu={self.nu} < p={self.p}")

    @property
    def weak(self):
        return math.isinf(self.nu)


@dataclass
class WeightedSampleSet:
    """Finitely many |value| samples carrying positive measure weights."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.values = np.abs(np.asarray(self.values, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.values.ndim != 1 or self.values.shape != self.weights.shape:
            raise DomainError("values and weights must be 1-d arrays of equal length")
        if len(self.values) == 0:
            raise DomainError("sample set must be nonempty")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("sample values must be finite")
        if not (np.all(self.weights > 0) and np.all(np.isfinite(self.weights))):
            raise DomainError("weights must be positive and finite")

    @property
    def total_measure(self):
        return float(self.weights.sum())

    def scaled(self, c):
        return WeightedSampleSet(c * self.values, self.weights.copy())


@dataclass
class RearrangedFunction:
    """Step function t -> level on [breakpoints[i], breakpoints[i+1])."""

    breakpoints: np.ndarray  # increasing, breakpoints[0] == 0
    levels: np.ndarray       # strictly decreasing

    def measure_above(self, lam):
        """Measure of {f* > lam}; equals the weighted measure of {|f| > lam}."""
        count = int(np.sum(self.levels > lam))
        return float(self.breakpoints[count])

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        out = np.zeros_like(t)
        inside = (idx >= 0) & (idx < len(self.levels))
        out[inside] = self.levels[idx[inside]]
        return out


def decreasing_rearrangement(samples):
    """Decreasing rearrangement of a weighted sample set.

    Equal values are merged into a single constant piece; this does not
    change any of the derived quasi-norms.  Each piece's measure is summed
    in sample order (``bincount`` walks the samples by index), so the sort
    need not be stable and the result does not depend on how ties sort.
    """
    order = np.argsort(samples.values)
    return _tie_merged(samples.values, samples.weights, order)


def subset_rearrangements(samples, masks):
    """Decreasing rearrangement of each masked subset of one sample set.

    The set is sorted once; each subset reads its ascending order off that
    sort.  Its result is bit-identical to ``decreasing_rearrangement`` of
    the subset, since ties are merged in sample order as there.  An empty
    subset raises DomainError.
    """
    order = np.argsort(samples.values)
    out = []
    for keep in masks:
        keep = np.asarray(keep, dtype=bool)
        if not keep.any():
            raise DomainError("subset mask selects no sample")
        out.append(_tie_merged(samples.values, samples.weights,
                               order[keep[order]], keep))
    return out


def _tie_merged(values, weights, order, keep=None):
    """Rearrangement of the samples ``order`` lists in ascending value.

    ``keep`` marks the samples ``order`` covers when it is not all of
    them; the merged measures are summed over those in index order.
    """
    v = values[order]
    start = np.empty(len(v), dtype=bool)
    start[0] = True
    start[1:] = v[1:] != v[:-1]
    group = np.empty(len(values), dtype=np.intp)
    group[order] = np.cumsum(start) - 1
    if keep is not None:
        group, weights = group[keep], weights[keep]
    merged = np.bincount(group, weights=weights)[::-1]
    levels = v[start][::-1]
    breakpoints = np.concatenate(([0.0], np.cumsum(merged)))
    return RearrangedFunction(breakpoints, levels)


_BITS = 4


def rounded_up(samples):
    """Pointwise majorant of ``samples`` on a coarse level grid.

    Each positive value is raised to the top of its bin, the bins cutting
    every binade [2^e, 2^(e+1)) into 16 equal pieces; zeros stay zero.
    The bins are read off the float64 bit pattern, so the map is monotone
    and exact, and each value grows by a factor of at most 17/16, attained
    at the bottom of the first bin of a binade (a subnormal value grows by
    less than 2^-1026).  The weights of a bin are summed into one sample,
    leaving at most 16 samples per binade present.  As the Lorentz
    quasi-norms are monotone under pointwise majorants and homogeneous,

        ||f||_{p,nu} <= ||rounded_up(f)||_{p,nu} <= (17/16) ||f||_{p,nu},

    the right-hand inequality for samples free of subnormals.

    A value in the top bin below the float64 overflow threshold has no
    finite majorant there and is rejected like any non-finite sample.
    """
    shift = 52 - _BITS
    v = samples.values
    keys = (v.view(np.int64) >> shift) + (v > 0)
    k0 = int(keys.min())
    merged = np.bincount(keys - k0, weights=samples.weights)
    present = np.flatnonzero(merged)
    tops = ((present + k0) << shift).view(np.float64)
    return WeightedSampleSet(tops, merged[present])


def lorentz_quasinorm(samples, params):
    """Lorentz L^{p,nu} quasi-norm of a weighted sample set."""
    return rearranged_quasinorm(decreasing_rearrangement(samples), params)


def rearranged_quasinorm(r, params):
    """Lorentz L^{p,nu} quasi-norm from the decreasing rearrangement ``r``."""
    t = r.breakpoints
    lv = r.levels
    peak = lv[0]
    if peak == 0.0:
        return 0.0
    p = params.p
    if params.weak:
        return float(np.max(lv * t[1:] ** (1.0 / p)))
    nu = params.nu
    q = nu / p
    # scale by the top level so lv**nu cannot overflow
    contrib = (lv / peak) ** nu * (t[1:] ** q - t[:-1] ** q)
    total = (p / nu) * float(np.sum(contrib))
    return float(peak * total ** (1.0 / nu))


def weighted_lp_norm(samples, p):
    """Plain weighted l^p norm; equals lorentz_quasinorm at nu = p."""
    peak = samples.values.max()
    if peak == 0.0:
        return 0.0
    return float(peak * np.sum((samples.values / peak) ** p
                               * samples.weights) ** (1.0 / p))


def weighted_line_samples(f, weight_exponent, truncation, resolution):
    """Sample |f| on a symmetric midpoint grid of [-R, R] with power weights.

    Cell i centred at s_i carries weight cell_width * (1 + |s_i|)**weight_exponent,
    the discretization of the measure (1 + |s|)^a ds.
    """
    if not truncation > 0:
        raise DomainError(f"truncation must be positive, got {truncation}")
    if resolution < 2:
        raise DomainError(f"resolution must be at least 2, got {resolution}")
    h = 2.0 * truncation / resolution
    s = -truncation + (np.arange(resolution) + 0.5) * h
    vals = np.asarray(f(s), dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise DomainError(f"f is not finite at s = {s[bad][0]}")
    weights = h * (1.0 + np.abs(s)) ** weight_exponent
    return WeightedSampleSet(np.abs(vals), weights)
