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

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bessel import surface_area
from .bumps import BumpPhi
from .errors import DomainError
from .lorentz import (WeightedSampleSet, lorentz_quasinorm,
                      rearranged_quasinorm, subset_rearrangements)
from .radial import (LineBuffers, _checked_line_grids, fourier_1d,
                     radial_transform)
from .util import (LINE_POINT_BYTES, _ordered_map, _worker_count,
                   doubling_trend, geometric_grid)

# both sides and the critical scan: values at the truncations R / 2^i for
# i <= _DOUBLINGS (``_truncation_ladder``)
_DOUBLINGS = 3
# kernel side: the smallest radius of its geometric grid, and the grid's
# points per octave
_KERNEL_RHO_MIN = 1e-2
_KERNEL_POINTS_PER_OCTAVE = 48
# symbol side: the window phi of the dilates phi(r) m0(t r)
_WINDOW = BumpPhi()
# logs of the largest and the smallest normal float64: a power x^a with a
# log(x) past the first overflows, and one below the second underflows
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_MIN = math.log(sys.float_info.min)


@dataclass
class QuantityResult:
    """A functional value with nested-truncation diagnostics."""

    value: float
    by_truncation: dict
    trend: dict
    meta: dict = field(default_factory=dict)


def _power(params):
    """The largest power, at least 1, to which a quasi-norm of ``params``
    raises a cumulative measure: nu / p, or 1 / p for the weak one."""
    return max(1.0, (1.0 if params.weak else params.nu) / params.p)


def _check_line_measure(dim, truncation, power):
    # the line's measure, 2((1 + R)^dim - 1) / dim, stays below (1 + R)^dim
    if power * dim * math.log1p(truncation) >= _LOG_FLOAT_MAX:
        raise DomainError(f"dim = {dim}: the line measure (1 + |s|)^(dim "
                          f"- 1) ds on |s| <= R = {truncation:g}"
                          + (f", raised to the power {power:g}," if power > 1
                             else "")
                          + " overflows float64")


def check_kernel_dim(dim, params, rho_max):
    """Reject a rho_max or a dim whose kernel side cannot be computed.

    The smallest truncation, rho_max / 2^_DOUBLINGS, must reach the grid's
    first radius _KERNEL_RHO_MIN, so that it holds two radii.  The kernel
    side's Bessel order dim/2 - 1 needs Gamma(dim/2) finite, and the polar
    weights |S^(dim-1)| r^(dim-1) dr out to rho_max need their measure,
    raised to the quasi-norm's power, finite, with the radius bounded by
    2 rho_max.  The largest weight of the smallest truncation,
    rho_max / 2^_DOUBLINGS, must be a normal float, or its sample set
    would lose its weights to underflow.  All are checked in log space.
    """
    if rho_max < 2 ** _DOUBLINGS * _KERNEL_RHO_MIN:
        raise DomainError(f"kernel_rho_max = {rho_max:g} is below "
                          f"{2 ** _DOUBLINGS * _KERNEL_RHO_MIN:g}: its "
                          f"smallest truncation kernel_rho_max / "
                          f"{2 ** _DOUBLINGS} holds fewer than two radii")
    if math.lgamma(0.5 * dim) >= _LOG_FLOAT_MAX:
        raise DomainError(f"dim = {dim}: the kernel side's Bessel order "
                          f"dim/2 - 1 needs Gamma(dim/2) as a float")
    log_r = math.log(2.0 * rho_max)
    log_sphere = math.log(2.0) + 0.5 * dim * math.log(math.pi) \
        - math.lgamma(0.5 * dim)
    if max((dim - 1) * log_r,
           _power(params) * (log_sphere + dim * log_r)) >= _LOG_FLOAT_MAX:
        raise DomainError(f"dim = {dim}: the kernel side's measure "
                          f"|S^(dim-1)| r^(dim-1) dr on r <= "
                          f"kernel_rho_max = {rho_max:g} overflows float64")
    radii = _kernel_radii(rho_max)
    radii = radii[radii <= rho_max / 2 ** _DOUBLINGS]
    # the top cell of polar_sample_set: its width is the last radius gap
    r, dr = radii[-1], radii[-1] - radii[-2]
    if log_sphere + (dim - 1) * math.log(r) + math.log(dr) < _LOG_FLOAT_MIN:
        raise DomainError(f"dim = {dim}: the kernel side's largest polar "
                          f"weight |S^(dim-1)| r^(dim-1) dr on r <= "
                          f"kernel_rho_max / {2 ** _DOUBLINGS} = "
                          f"{rho_max / 2 ** _DOUBLINGS:g} underflows float64")


def check_line_support(what, support, spatial_truncation):
    """Reject a sample line [-h, h), h the spatial truncation, that cuts
    ``support``, the interval off which the sampled ``what`` vanishes."""
    lo, hi = support
    h = spatial_truncation
    if not -h <= lo <= hi <= h:
        raise DomainError(f"spatial_truncation = {h}: the sample line [-{h}, "
                          f"{h}) cuts the {what}'s support ({lo:g}, {hi:g})")


def _kernel_radii(rho_max):
    """Radii of the kernel side: a geometric grid out to rho_max, after
    one radius below it."""
    return np.concatenate(([_KERNEL_RHO_MIN / 2],
                           geometric_grid(_KERNEL_RHO_MIN, rho_max,
                                          _KERNEL_POINTS_PER_OCTAVE)))


class LineSamples:
    """Weighted samples of |g_hat(s)| (1+|s|)^(-(d-1)/2) on the windows
    lo <= |s| <= hi of a line.

    Each grid point of ``sigma`` (ascending, uniform) out to the widest
    window carries the cell measure h (1+|s|)^(d-1).  Everything but
    |g_hat| is fixed by the grid, d and the windows, so one instance serves
    every transform on the same grid.  A window's upper end that is not
    finite and positive, or that the grid stops short of, is rejected, the
    ends in ascending order, rather than silently cut off.

    When the kept points are mirror-symmetric, as on the grid of
    ``fourier_1d``, and |g_hat| is too (the transform of a real profile),
    the line folds: the s >= 0 half is kept, each s > 0 cell with twice
    its weight.  Each such sample then stands for a tied pair of the full
    line, so the rearrangement is the full line's, bit for bit while the
    only ties are mirror pairs.
    """

    def __init__(self, sigma, dim, windows):
        tops = sorted(hi for _, hi in windows)
        for hi in tops:
            if not 0 < hi < math.inf:
                raise DomainError(f"truncation R = {hi} must be finite and "
                                  f"positive")
            if sigma[-1] < hi:
                raise DomainError(
                    f"frequency grid reaches |s| = {sigma[-1]:.3g} < R = "
                    f"{hi:.6g}; raise the resolution")
        h = sigma[1] - sigma[0]
        # the points |s| <= R of the ascending grid, as a slice
        self.keep = slice(np.searchsorted(sigma, -tops[-1], side="left"),
                          np.searchsorted(sigma, tops[-1], side="right"))
        s = sigma[self.keep]
        self.abs_s = np.abs(s)
        self.divisor = (1.0 + self.abs_s) ** ((dim - 1) / 2.0)
        self.weights = h * (1.0 + self.abs_s) ** (dim - 1)
        # None: a window over the whole line, which needs no mask
        self.windows = [None if lo <= 0 and hi == tops[-1] else (lo, hi)
                        for lo, hi in windows]
        self.half = None    # the s >= 0 points, when the line can fold
        if np.array_equal(s, -s[::-1]):
            self.half = slice(len(s) // 2, None)
            self.half_weights = np.where(s[self.half] > 0, 2.0, 1.0) \
                * self.weights[self.half]

    def rearrangements(self, ghat):
        """Rearranged weighted samples of ``ghat`` on each window of this
        line, on the folded line if it folds: one sort serves them all."""
        g = np.abs(ghat[self.keep])
        a, half, weights = self.abs_s, self.half, self.weights
        if half is not None and np.array_equal(g, g[::-1]):
            a, weights = a[half], self.half_weights
            g = g[half] / self.divisor[half]
        else:
            g /= self.divisor
        return subset_rearrangements(
            WeightedSampleSet.of_magnitudes(g, weights),
            [None if w is None else (a >= w[0]) & (a <= w[1])
             for w in self.windows])


def scan_line(sampler, items, dim, windows, params_list, spatial_truncation,
              resolution):
    """``[[[quasi-norm per window] per exponent] per item]`` of the items'
    transforms on one line.

    ``sampler(x)`` returns ``(item, out) ->`` the item's samples on the
    line's points ``x``, in ``out`` where it can.  Every check runs before
    the first transform: the line measure at each exponent's power, the
    grid, and each window's reach.  Each item then takes one transform and
    one sort, on ``util._ordered_map`` (workers by ``util._worker_count``),
    in the ``LineBuffers`` of its worker and exactly as alone.
    """
    top = max(hi for _, hi in windows)
    for params in params_list:
        _check_line_measure(dim, top, _power(params))
    x, sigma = _checked_line_grids(spatial_truncation, resolution)
    line = LineSamples(sigma, dim, windows)
    sample = sampler(x)
    workers = min(len(items), _worker_count(len(x), LINE_POINT_BYTES))
    buffers = [LineBuffers(len(x)) for _ in range(workers)]

    def values(worker, item):
        buf = buffers[worker]
        ghat = fourier_1d(sample(item, buf.samples), spatial_truncation,
                          resolution, buf)[1]
        rearranged = line.rearrangements(ghat)
        return [[rearranged_quasinorm(r, params) for r in rearranged]
                for params in params_list]
    return _ordered_map(values, items, workers)


def _truncation_ladder(truncation):
    """The truncations R/2^_DOUBLINGS .. R, and the window 0 <= |s| <= r
    of each."""
    radii = [truncation / 2 ** i for i in range(_DOUBLINGS, -1, -1)]
    return radii, [(0.0, r) for r in radii]


def fourier_side_quantity(gamma, dim, params, truncation=4096.0,
                          spatial_truncation=8.0, resolution=2 ** 16):
    """Weighted Lorentz size of the profile's 1-d Fourier transform.

    The one item of ``scan_line``: the quasi-norm is reported at
    truncations R/2^_DOUBLINGS .. R for convergence assessment.
    """
    radii, windows = _truncation_ladder(truncation)
    [[values]] = scan_line(lambda x: lambda g, out: g(x), [gamma], dim,
                           windows, [params], spatial_truncation, resolution)
    by_r = dict(zip(radii, values))
    return QuantityResult(by_r[truncation], by_r, doubling_trend(by_r),
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


def kernel_side_quantity(gamma, dim, params, support, rho_max=256.0):
    """L^{p,nu}(R^d) size of the inverse transform of gamma(|xi|).

    gamma vanishes off ``support``, an interval of radii; the quasi-norm is
    reported at truncations rho_max/2^_DOUBLINGS .. rho_max.
    """
    check_kernel_dim(dim, params, rho_max)
    prof = radial_transform(gamma, dim, radii=_kernel_radii(rho_max),
                            support=support, inverse=True)
    ok = prof.reliable
    radii, vals = prof.radii[ok], np.abs(prof.values[ok])
    by_r = {}
    for r in _truncation_ladder(rho_max)[0]:
        keep = radii <= r
        samples = polar_sample_set(radii[keep], vals[keep], dim)
        by_r[r] = lorentz_quasinorm(samples, params)
    trend = doubling_trend(by_r)
    return QuantityResult(by_r[rho_max], by_r, trend,
                          {"side": "kernel", "dim": dim, "p": params.p,
                           "nu": params.nu, "rho_max": rho_max,
                           "points_per_octave": _KERNEL_POINTS_PER_OCTAVE})


@dataclass
class SymbolScanResult:
    """Sup over dilations of the windowed-symbol quantity."""

    value: float
    arg_sup: float
    per_t: dict
    trend: dict
    meta: dict = field(default_factory=dict)


def radial_symbol_quantity(m0, dim, params, t_grid, resolution,
                           truncation=4096.0, spatial_truncation=8.0):
    """Global radial-symbol functional: sup_t of the windowed-dilate quantity.

    For each dilation t of ``t_grid`` the symbol is windowed to
    phi(r) m0(t r) (phi the bump ``BumpPhi``, supported in (1/2, 2)) and
    the fourier-side quantity is taken; the sup and its maximizer over the
    finite scan grid are reported, together with truncation diagnostics at
    the maximizing t, on a line of 4 * ``resolution`` points.
    The dilates are the items of one ``scan_line``, whose whole line is
    their one window; the diagnostic is the one item of another.
    """
    dilates = functools.partial(_windowed_dilates, m0)
    t_values = np.asarray(t_grid, dtype=float)
    per_t = {t: value for t, [[value]] in zip(t_values.tolist(), scan_line(
        dilates, t_values, dim, [(0.0, truncation)], [params],
        spatial_truncation, resolution))}
    arg = max(per_t, key=per_t.get)
    radii, windows = _truncation_ladder(truncation)
    [[diag]] = scan_line(dilates, [arg], dim, windows, [params],
                         spatial_truncation, 4 * resolution)
    return SymbolScanResult(per_t[arg], arg, per_t,
                            doubling_trend(dict(zip(radii, diag))),
                            {"dim": dim, "p": params.p, "nu": params.nu,
                             "truncation": truncation,
                             "t_grid": [float(t) for t in t_grid]})


def _windowed_dilates(m0, r):
    """t -> phi(r) m0(t r) on the ascending grid ``r``: phi is evaluated
    once, and both only on the run of ``r`` inside phi's support.

    Real values go into ``out``, which is zero off that run; complex ones
    take a new array.
    """
    lo, hi = _WINDOW.support
    on = slice(np.searchsorted(r, lo, side="right"),
               np.searchsorted(r, hi, side="left"))
    r_on, w_on = r[on], _WINDOW(r[on])

    def windowed(t, out):
        vals = w_on * np.asarray(m0(t * r_on))
        if np.iscomplexobj(vals):
            out = np.zeros(r.shape, dtype=vals.dtype)
        out[on] = vals
        return out
    return windowed
