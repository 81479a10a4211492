"""Bochner-Riesz means for the light cone.

The multiplier (1 - |xi|^2/tau^2)_+^lambda factors, on the dyadic slab
tau in [2^k, 2^{k+1}), into a smooth amplitude times the one-sided edge
profile

    gamma(u) = (-u)^lambda b(u)  for u < 0,  0 for u >= 0,

evaluated at u = (|xi| - tau)/2^k, where b is a fixed smooth cutoff
supported in (-1/4, 4) with b = 1 on |u| <= 1/8.  The profile's transform
decays like |s|^(-lambda-1); the critical smoothness for the weighted
weak-type functional at exponent p in dimension d is

    lambda_crit(d, p) = d/p - (d+1)/2 = d(1/p - 1/2) - 1/2.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bumps
from .characterize import _truncation_ladder, scan_line
from .errors import DomainError
from .lorentz import LorentzParams
from .multipliers import GridField, _check_cone_axes, freq_magnitude
from .radial import fourier_1d
from .util import doubling_trend, dyadic_envelope_fit

# critical_scan: half-width of the profile's sample line, and the lower end
# |s| of the tail window its divergence flags read
_SCAN_SPATIAL_TRUNCATION = 4.0
_DETECTOR_WINDOW = 256.0
# edge_decay_fit: the profile's sample line (half-width, points), which
# reaches |s| = 25735, and the range of |s| whose dyadic blocks are fitted
_FIT_SPATIAL_TRUNCATION = 4.0
_FIT_RESOLUTION = 2 ** 16
_FIT_RANGE = (10.0, 1.0e4)


def critical_exponent(dim, p):
    """Edge smoothness threshold d/p - (d+1)/2."""
    return dim / p - (dim + 1) / 2.0


@dataclass
class BRProfile:
    """Edge profile (-u)^lambda b(u) of the cone means of order lambda.

    b is ``bumps.edge_flat_bump``, which vanishes at u <= -1/4, so the
    profile is evaluated on its support alone.
    """

    lam: float

    support = (-0.25, 0.0)

    def __post_init__(self):
        _check_order(self.lam)

    def __call__(self, u):
        return _edge_profiles(np.asarray(u, dtype=float))(self.lam)


def _check_order(lam):
    if not lam > 0:
        raise DomainError(f"order lambda must be positive, got {lam}")


def _edge_profiles(u):
    """lam -> the profile (-u)^lam b(u) of order lam on the points ``u``.

    The support and b on it are found once, for every order; an order's
    values go into ``out`` (zero off the support) when it is given.
    """
    inside = (u > BRProfile.support[0]) & (u < BRProfile.support[1])
    minus_u, bump = -u[inside], bumps.edge_flat_bump(u[inside])

    def profile(lam, out=None):
        if out is None:
            out = np.zeros_like(u)
        out[inside] = minus_u ** lam * bump
        return out
    return profile


def build_bochner_riesz_cone(lam, axes):
    """(1 - |xi|^2/tau^2)_+^lambda for tau > 0, zero for tau <= 0."""
    _check_order(lam)
    axes = tuple(axes)
    _check_cone_axes(axes)
    xi_mag = freq_magnitude(axes[:-1])[..., None]
    tau = axes[-1].freq_coords()
    vals = np.zeros(xi_mag.shape[:-1] + (len(tau),), dtype=complex)
    pos = tau > 0
    if np.any(pos):
        ratio = xi_mag / tau[pos]
        vals[..., pos] = np.clip(1.0 - ratio ** 2, 0.0, None) ** lam
    return GridField(axes, vals, rep="frequency")


def edge_decay_fit(lam):
    """Fitted decay exponent of the order-lam edge profile's Fourier transform.

    Envelope = max |gamma_hat| per dyadic block of |s| in ``_FIT_RANGE``;
    the fit passes (matches the analytic rate) when it returns
    >= lam + 1 - 0.1.
    """
    sigma, ghat = fourier_1d(BRProfile(lam), _FIT_SPATIAL_TRUNCATION,
                             _FIT_RESOLUTION)
    return -dyadic_envelope_fit(sigma, ghat, *_FIT_RANGE)


@dataclass
class CriticalScanResult:
    p: float
    prediction: float
    estimate: float
    table: list  # (lam, {R: full_value}, {R: tail_value}, divergent) rows


def critical_scan(dim, p_list, lam_grid, truncation=16384.0,
                  resolution=2 ** 17):
    """Estimate, per p, the smallest order lambda with a convergent functional.

    For each lambda the weak-type weighted functional of the edge profile's
    transform is evaluated at nested truncations R/8 .. R (the ladder of
    ``characterize._truncation_ladder``), both over the full line and
    restricted to |s| >= ``_DETECTOR_WINDOW``.  The divergence flag
    (>= 10% growth per doubling across three doublings) is taken from the
    windowed values: the admissible flat bump's width-1/8 ramp contributes a
    fixed spectral hump below s ~ 250 that otherwise pins the supremum and
    masks the tail trend at reachable truncations.  The estimate is the
    smallest unflagged lambda, reported with the analytic threshold
    d/p - (d+1)/2.
    The orders are the items of one ``characterize.scan_line``.
    """
    lam_grid = sorted(lam_grid)
    if not p_list:
        raise DomainError("p_list is empty: name at least one exponent")
    # each p is checked before any prediction divides by it
    params = [LorentzParams(p, math.inf) for p in p_list]
    radii, windows = _truncation_ladder(truncation)
    if radii[0] <= 2.0 * _DETECTOR_WINDOW:
        raise DomainError(
            f"truncation ladder starting at {radii[0]:.0f} is too "
            f"shallow for a detector window at {_DETECTOR_WINDOW:.0f}")
    predictions = {p: critical_exponent(dim, p) for p in p_list}
    for p, pred in predictions.items():
        if not (lam_grid[0] < pred < lam_grid[-1]):
            raise DomainError(
                f"lambda grid [{lam_grid[0]}, {lam_grid[-1]}] does not bracket "
                f"the predicted threshold {pred:.4f} for p = {p}")
    windows += [(_DETECTOR_WINDOW, r) for r in radii]
    for lam in lam_grid:
        _check_order(lam)
    tables = [[] for _ in p_list]
    for lam, per_p in zip(lam_grid, scan_line(
            _edge_profiles, lam_grid, dim, windows, params,
            _SCAN_SPATIAL_TRUNCATION, resolution)):
        for values, table in zip(per_p, tables):
            full = dict(zip(radii, values[:len(radii)]))
            tail = dict(zip(radii, values[len(radii):]))
            table.append((lam, full, tail, doubling_trend(tail)["divergent"]))
    results = []
    for p, table in zip(p_list, tables):
        estimate = next((lam for lam, _, _, div in table if not div),
                        math.nan)
        results.append(CriticalScanResult(p, predictions[p], estimate,
                                          table))
    return results
