"""Reference functions the tests check the package against.

Each is a direct formula, written without the package's own shortcuts.
"""

import numpy as np

from conemult.bessel import bessel_j_scaled, surface_area
from conemult.bumps import BumpPhi
from conemult.lorentz import WeightedSampleSet, lorentz_quasinorm
from conemult.multipliers import GridField
from conemult.radial import fourier_1d


def apply_full_transforms(f, sym):
    """The grid operator of the symbol array ``sym`` on the field ``f``:
    the full ``fftn`` (skipped for a field in frequency form), the product
    ``sym * F`` and the full ``ifftn``, as a field in space."""
    spectrum = f.values if f.rep == "frequency" else np.fft.fftn(f.values)
    return GridField(f.axes, np.fft.ifftn(sym * spectrum))


def critical_exponent_alt(dim, p):
    """The critical Bochner-Riesz order written as d(1/p - 1/2) - 1/2."""
    return dim * (1.0 / p - 0.5) - 0.5


def weighted_lp_norm(samples, p):
    """Plain weighted l^p norm; equals lorentz_quasinorm at nu = p."""
    peak = samples.values.max()
    if peak == 0.0:
        return 0.0
    return float(peak * np.sum((samples.values / peak) ** p
                               * samples.weights) ** (1.0 / p))


def weighted_line_samples(f, weight_exponent, truncation, resolution):
    """|f| on a symmetric midpoint grid of [-R, R] under (1 + |s|)^a ds.

    Cell i centred at s_i carries weight cell_width * (1 + |s_i|)^a.
    """
    h = 2.0 * truncation / resolution
    s = -truncation + (np.arange(resolution) + 0.5) * h
    return WeightedSampleSet(np.abs(np.asarray(f(s), dtype=float)),
                             h * (1.0 + np.abs(s)) ** weight_exponent)


def symbol_scan_per_t(m0, dim, params, t_grid, truncation,
                      spatial_truncation, resolution):
    """t -> the symbol scan's value at each dilation t of ``t_grid``.

    The windowed dilate phi(r) m0(t r) is transformed, and the quasi-norm
    taken of the full line's samples |g_hat(s)| (1+|s|)^(-(d-1)/2) on
    |s| <= R, each cell h (1+|s|)^(d-1): no fold, one dilation at a time.
    """
    phi = BumpPhi()
    per_t = {}
    for t in t_grid:
        sigma, ghat = fourier_1d(lambda r: phi(r) * m0(t * r),
                                 spatial_truncation, resolution)
        keep = np.abs(sigma) <= truncation
        s = np.abs(sigma[keep])
        samples = WeightedSampleSet(
            np.abs(ghat[keep]) / (1.0 + s) ** ((dim - 1) / 2.0),
            (sigma[1] - sigma[0]) * (1.0 + s) ** (dim - 1))
        per_t[float(t)] = lorentz_quasinorm(samples, params)
    return per_t


def sphere_hat(radius, dim, xi):
    """Fourier transform of the surface measure of the sphere of ``radius``.

    F[sigma_r](xi) = (2 pi)^(d/2) r^(d-1) g_{d/2-1}(r|xi|); the value at the
    origin is the total mass r^(d-1) |S^(d-1)|.
    """
    z = radius * np.asarray(xi, dtype=float)
    return (2.0 * np.pi) ** (dim / 2.0) * radius ** (dim - 1) \
        * bessel_j_scaled(dim / 2.0 - 1.0, z)


def plancherel_radial(profile_values, radii, dim):
    """Weighted l2 mass |S^{d-1}| * integral |f(r)|^2 r^(d-1) dr (trapezoid)."""
    r = np.asarray(radii, dtype=float)
    f2 = np.abs(np.asarray(profile_values)) ** 2 * r ** (dim - 1)
    return surface_area(dim) * float(np.trapezoid(f2, r))
