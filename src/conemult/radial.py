"""Fourier analysis of radial functions.

Convention: forward transform F f(xi) = integral f(y) exp(-i<y,xi>) dy.
For radial m(|y|) in d dimensions this reduces to the one-dimensional
Bessel-kernel integral

    F[m(|.|)](xi) = (2 pi)^(d/2) * integral_0^inf m(r) g_nu(r|xi|) r^(d-1) dr

with nu = d/2 - 1 and g_nu(z) = J_nu(z)/z^nu, which is entire, so the same
formula runs smoothly through xi = 0.  The inverse transform is the forward
one times (2 pi)^(-d).
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_j_scaled, surface_area
from .errors import BudgetError, DomainError
from .report import read_float_columns
from .util import CubicSpline1D, geometric_grid, panel_nodes


@dataclass
class RadialProfile:
    """Samples of a radial function, tagged with the ambient dimension."""

    radii: np.ndarray
    values: np.ndarray
    dim: int
    reliable: np.ndarray = None  # per-point quadrature trust mask, None = all good

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values)
        if self.radii.ndim != 1 or len(self.radii) != len(self.values):
            raise DomainError("radii and values must be 1-d arrays of equal length")
        if np.any(self.radii < 0) or np.any(np.diff(self.radii) <= 0):
            raise DomainError("radii must be nonnegative and strictly increasing")
        # flagged (unreliable) points are allowed to hold NaN
        trusted = np.ones(len(self.radii), dtype=bool) if self.reliable is None \
            else np.asarray(self.reliable, dtype=bool)
        if not np.all(np.isfinite(self.values[trusted])):
            raise DomainError("profile values must be finite")
        if self.dim < 2:
            raise DomainError(f"ambient dimension must be >= 2, got {self.dim}")

    def interpolator(self):
        return CubicSpline1D(self.radii, self.values)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["radius", "re", "im"])
            for r, v in zip(self.radii, self.values):
                w.writerow([repr(float(r)), repr(float(np.real(v))),
                            repr(float(np.imag(v)))])

    @classmethod
    def from_csv(cls, path, dim):
        """Read what ``to_csv`` writes; a malformed row raises ConfigError."""
        radii, re, im = read_float_columns(path, ("radius", "re", "im"))
        return cls(radii, re + 1j * im, dim)


def space_grid(truncation, resolution):
    """Uniform sample grid x_j = -R + j*(2R/N), j = 0..N-1."""
    h = 2.0 * truncation / resolution
    return -truncation + h * np.arange(resolution)


def fourier_1d(f, truncation, resolution):
    """Discrete approximation of integral f(s) exp(-i s sigma) ds.

    ``f`` is a vectorized callable or an array of samples on
    ``space_grid(truncation, resolution)``.  Samples live at the left
    endpoints x_j = -R + j h (h = 2R/N); the quadrature is the periodic
    trapezoid rule, spectrally accurate once f decays below round-off
    near +-R.  Returns (sigma, values) on the ascending FFT-dual grid
    sigma_m = pi m / R, m = -N/2 .. N/2 - 1.

    The phase exp(i R sigma_m) of the shift to x_0 = -R is exactly
    (-1)^m, so it is applied as a sign rather than computed.
    """
    n = int(resolution)
    if n < 2 or (n & (n - 1)) != 0:
        raise DomainError(f"resolution must be a power of two, got {resolution}")
    if not 0 < truncation < math.inf:
        raise DomainError(f"spatial truncation must be finite and positive, "
                          f"got {truncation}")
    x = space_grid(truncation, n)
    samples = np.asarray(f(x) if callable(f) else f, dtype=complex)
    if samples.shape != (n,):
        raise DomainError(f"expected {n} samples, got shape {samples.shape}")
    h = 2.0 * truncation / n
    sigma = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(n, d=h))
    vals = np.fft.fft(samples)
    vals *= h
    # unshifted index j carries m = j or j - N, so (-1)^m = (-1)^j
    odd = vals[1::2]
    np.negative(odd, out=odd)
    return sigma, np.fft.fftshift(vals)


def _as_callable(m0):
    if callable(m0):
        return m0, None
    if isinstance(m0, RadialProfile):
        spline = m0.interpolator()
        return spline, (float(m0.radii[0]), float(m0.radii[-1]))
    raise DomainError("m0 must be callable or a RadialProfile")


def radial_transform(m0, dim, radii=None, support=None, inverse=False,
                     nodes_per_period=16, panel_budget=400_000):
    """Radial profile of the d-dimensional Fourier transform of m0(|.|).

    ``support = (a, b)`` bounds the integration range; it is required for
    callables and defaults to the sample range for profiles.  Output radii
    default to a geometric grid.  Points whose oscillatory quadrature would
    exceed ``panel_budget`` panels are flagged (reliable mask False, value
    NaN) rather than silently extrapolated.
    """
    if isinstance(m0, RadialProfile) and dim is None:
        dim = m0.dim
    func, prof_support = _as_callable(m0)
    if support is None:
        support = prof_support
    if support is None:
        raise DomainError("a support interval (a, b) is required for callables")
    a, b = float(support[0]), float(support[1])
    if not (0 <= a < b):
        raise DomainError(f"invalid support interval ({a}, {b})")
    if radii is None:
        radii = np.concatenate(([0.0], geometric_grid(1e-2, 64.0, 32)))
    radii = np.asarray(radii, dtype=float)

    nu = dim / 2.0 - 1.0
    pref = (2.0 * np.pi) ** (dim / 2.0)
    if inverse:
        pref *= (2.0 * np.pi) ** (-dim)

    values = np.empty(len(radii), dtype=complex)
    reliable = np.ones(len(radii), dtype=bool)
    # one node set per group of comparable output radii; sizing for the
    # largest radius in a group keeps the node count near optimal
    order = np.argsort(radii)
    groups = _dyadic_groups(radii[order])
    for sel in groups:
        idx = order[sel]
        rho_max = radii[idx].max()
        try:
            r, w = panel_nodes(a, b, rho_max, nodes_per_period, panel_budget)
        except BudgetError:
            values[idx] = np.nan
            reliable[idx] = False
            continue
        mvals = np.asarray(func(r), dtype=complex) * r ** (dim - 1) * w
        for i in idx:
            values[i] = pref * np.sum(mvals * bessel_j_scaled(nu, r * radii[i]))
    return RadialProfile(radii, values, dim, reliable)


def _dyadic_groups(sorted_radii):
    """Group indices of an ascending radius list into octave bands."""
    groups = []
    lo = 0
    n = len(sorted_radii)
    while lo < n:
        base = max(sorted_radii[lo], 1e-9)
        hi = lo
        while hi < n and sorted_radii[hi] <= 2.0 * base:
            hi += 1
        groups.append(np.arange(lo, hi))
        lo = hi
    return groups


def sphere_measure_transform(radius, dim, radii=None):
    """Fourier transform of the (unnormalized) sphere surface measure.

    F[sigma_r](xi) = (2 pi)^(d/2) r^(d-1) g_{d/2-1}(r|xi|); the value at the
    origin is the total mass r^(d-1) |S^(d-1)|.
    """
    if not radius > 0:
        raise DomainError(f"sphere radius must be positive, got {radius}")
    if radii is None:
        radii = np.concatenate(([0.0], geometric_grid(1e-2, 128.0, 32)))
    radii = np.asarray(radii, dtype=float)
    vals = sphere_hat_values(radius, dim, radii)
    return RadialProfile(radii, vals.astype(complex), dim)


def sphere_hat_values(radius, dim, xi_magnitudes):
    """Vectorized evaluation of F[sigma_r] at the given |xi| values."""
    nu = dim / 2.0 - 1.0
    z = radius * np.asarray(xi_magnitudes, dtype=float)
    return (2.0 * np.pi) ** (dim / 2.0) * radius ** (dim - 1) * bessel_j_scaled(nu, z)


def plancherel_radial(profile_values, radii, dim):
    """Weighted l2 mass |S^{d-1}| * integral |f(r)|^2 r^(d-1) dr (trapezoid)."""
    r = np.asarray(radii, dtype=float)
    f2 = np.abs(np.asarray(profile_values)) ** 2 * r ** (dim - 1)
    return surface_area(dim) * float(np.trapezoid(f2, r))
