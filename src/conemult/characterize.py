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

# both sides: values at the truncations R / 2^i for i <= _DOUBLINGS
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

    @property
    def divergent(self):
        return self.trend.get("divergent", False)


def _power(params):
    """The largest power, at least 1, to which a quasi-norm of ``params``
    raises a cumulative measure: nu / p, or 1 / p for the weak one."""
    return max(1.0, (1.0 if params.weak else params.nu) / params.p)


def _check_line_measure(dim, truncation, power=1.0):
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


def _kernel_radii(rho_max):
    """Radii of the kernel side: a geometric grid out to rho_max, after
    one radius below it."""
    return np.concatenate(([_KERNEL_RHO_MIN / 2],
                           geometric_grid(_KERNEL_RHO_MIN, rho_max,
                                          _KERNEL_POINTS_PER_OCTAVE)))


class LineSamples:
    """Weighted samples of |g_hat(s)| (1+|s|)^(-(d-1)/2) on |s| <= R.

    Each grid point of ``sigma`` (ascending, uniform) inside the truncation
    carries the cell measure h (1+|s|)^(d-1).  Everything but |g_hat| is
    fixed by the grid, d and R, so one instance serves every transform
    tabulated on the same grid.  A truncation that is not finite and
    positive, or that the grid stops short of, is rejected rather than
    silently cut off, and so is a dim whose line measure overflows.

    When the kept points are mirror-symmetric, as on the grid of
    ``fourier_1d``, and |g_hat| is too (the transform of a real profile),
    the line folds: the s >= 0 half is kept, each s > 0 cell with twice
    its weight.  Each such sample then stands for a tied pair of the full
    line, so the rearrangement is the full line's, bit for bit while the
    only ties are mirror pairs.
    """

    def __init__(self, sigma, dim, truncation):
        _check_truncation(sigma, truncation)
        _check_line_measure(dim, truncation)
        h = sigma[1] - sigma[0]
        self.keep = np.abs(sigma) <= truncation
        s = sigma[self.keep]
        self.abs_s = np.abs(s)
        self.divisor = (1.0 + self.abs_s) ** ((dim - 1) / 2.0)
        self.weights = h * (1.0 + self.abs_s) ** (dim - 1)
        self.half = None    # the s >= 0 points, when the line can fold
        if np.array_equal(s, -s[::-1]):
            self.half = slice(len(s) // 2, None)
            self.half_weights = np.where(s[self.half] > 0, 2.0, 1.0) \
                * self.weights[self.half]

    @classmethod
    def covering(cls, sigma, dim, windows):
        """The line of the widest window lo <= |s| <= hi of ``windows``.

        The windows' upper ends are checked in ascending order, so a grid
        short of several is reported at the smallest.
        """
        tops = sorted(hi for _, hi in windows)
        for hi in tops:
            _check_truncation(sigma, hi)
        return cls(sigma, dim, tops[-1])

    def samples(self, ghat):
        """(|s|, weighted samples) of ``ghat``, on the folded line if it folds."""
        g = np.abs(ghat[self.keep])
        half = self.half
        if half is not None and np.array_equal(g, g[::-1]):
            return self.abs_s[half], WeightedSampleSet(
                g[half] / self.divisor[half], self.half_weights)
        return self.abs_s, WeightedSampleSet(g / self.divisor, self.weights)

    def rearrangements(self, ghat, windows):
        """Rearranged weighted samples of ``ghat`` on each window
        lo <= |s| <= hi of this line: one sort serves them all."""
        a, samples = self.samples(ghat)
        return subset_rearrangements(
            samples, [(a >= lo) & (a <= hi) for lo, hi in windows])


def _check_truncation(sigma, truncation):
    if not 0 < truncation < math.inf:
        raise DomainError(f"truncation R = {truncation} must be finite and "
                          f"positive")
    if sigma[-1] < truncation:
        raise DomainError(
            f"frequency grid reaches |s| = {sigma[-1]:.3g} < R = "
            f"{truncation:.6g}; raise the resolution")


def fourier_side_quantity(gamma, dim, params, truncation=4096.0,
                          spatial_truncation=8.0, resolution=2 ** 16):
    """Weighted Lorentz size of the profile's 1-d Fourier transform.

    The transform is computed and its samples sorted once, after the
    line's reach is checked; the quasi-norm is reported at truncations
    R/2^_DOUBLINGS .. R for convergence assessment.
    """
    _check_line_measure(dim, truncation, _power(params))
    radii = [truncation / 2 ** i for i in range(_DOUBLINGS, -1, -1)]
    windows = [(0.0, r) for r in radii]
    line = LineSamples.covering(
        _checked_line_grids(spatial_truncation, resolution)[1], dim, windows)
    ghat = fourier_1d(gamma, spatial_truncation, resolution)[1]
    rearranged = line.rearrangements(ghat, windows)
    by_r = {r: rearranged_quasinorm(rr, params)
            for r, rr in zip(radii, rearranged)}
    trend = doubling_trend(by_r)
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
    for i in range(_DOUBLINGS, -1, -1):
        r = rho_max / 2 ** i
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
    The dilates share the line, whose reach is checked before any
    transform, and phi on its support; they are evaluated on
    ``util._ordered_map``, one worker per CPU (``util._worker_count``),
    each in the ``LineBuffers`` of its worker and exactly as alone.
    """
    _check_line_measure(dim, truncation, _power(params))
    x, sigma = _checked_line_grids(spatial_truncation, resolution)
    line = LineSamples(sigma, dim, truncation)
    windowed = _windowed_dilates(m0, x)
    workers = _worker_count(len(x), LINE_POINT_BYTES)
    buffers = [LineBuffers(len(x)) for _ in range(workers)]

    def quantity(worker, t):
        buf = buffers[worker]
        khat = fourier_1d(windowed(t, buf.samples), spatial_truncation,
                          resolution, buf)[1]
        return lorentz_quasinorm(line.samples(khat)[1], params)

    t_values = np.asarray(t_grid, dtype=float)
    per_t = dict(zip(t_values.tolist(),
                     _ordered_map(quantity, t_values, workers)))
    # the scan's line goes before the diagnostic's, four times finer
    del x, sigma, line, windowed, buffers
    arg = max(per_t, key=per_t.get)
    x = _checked_line_grids(spatial_truncation, 4 * resolution)[0]
    diag = fourier_side_quantity(_windowed_dilates(m0, x)(arg), dim, params,
                                 truncation, spatial_truncation,
                                 4 * resolution)
    return SymbolScanResult(per_t[arg], arg, per_t, diag.trend,
                            {"dim": dim, "p": params.p, "nu": params.nu,
                             "truncation": truncation,
                             "t_grid": [float(t) for t in t_grid]})


def _windowed_dilates(m0, r):
    """t -> phi(r) m0(t r) on the grid ``r``: phi is evaluated once, and
    m0 only where phi(r) != 0.

    Real values go into ``out`` (zero where phi(r) = 0) when it is given;
    complex ones take a new array.
    """
    w = _WINDOW(r)
    on = w != 0
    r_on, w_on = r[on], w[on]

    def windowed(t, out=None):
        vals = w_on * np.asarray(m0(t * r_on))
        if out is None or np.iscomplexobj(vals):
            out = np.zeros(r.shape, dtype=vals.dtype)
        out[on] = vals
        return out
    return windowed
