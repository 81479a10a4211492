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
from .characterize import line_rearrangements
from .errors import DomainError
from .lorentz import LorentzParams, rearranged_quasinorm
from .multipliers import ConeMultiplierField, GridField, freq_magnitude
from .radial import fourier_1d
from .util import doubling_trend, dyadic_envelope_fit


def critical_exponent(dim, p):
    """Edge smoothness threshold d/p - (d+1)/2."""
    return dim / p - (dim + 1) / 2.0


def critical_exponent_alt(dim, p):
    """The same threshold written as d(1/p - 1/2) - 1/2."""
    return dim * (1.0 / p - 0.5) - 0.5


@dataclass
class BRProfile:
    """Edge profile (-u)^lambda b(u) of the cone means of order lambda."""

    lam: float
    b: object = None

    def __post_init__(self):
        if not self.lam > 0:
            raise DomainError(f"order lambda must be positive, got {self.lam}")
        if self.b is None:
            self.b = bumps.edge_flat_bump

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        neg = u < 0
        out[neg] = (-u[neg]) ** self.lam * self.b(u[neg])
        return out

    support = (-0.25, 0.0)


def edge_profile(lam, b=None):
    """The one-sided edge profile as a plain callable."""
    return BRProfile(lam, b)


def build_bochner_riesz_cone(lam, axes):
    """(1 - |xi|^2/tau^2)_+^lambda for tau > 0, zero for tau <= 0."""
    if not lam > 0:
        raise DomainError(f"order lambda must be positive, got {lam}")
    axes = tuple(axes)
    xi_mag = freq_magnitude(axes[:-1])[..., None]
    tau = axes[-1].freq_coords()
    vals = np.zeros(xi_mag.shape[:-1] + (len(tau),), dtype=complex)
    pos = tau > 0
    if np.any(pos):
        ratio = xi_mag / tau[pos]
        vals[..., pos] = np.clip(1.0 - ratio ** 2, 0.0, None) ** lam
    gridf = GridField(axes, vals, rep="frequency")
    return ConeMultiplierField(gridf, {"kind": "bochner_riesz_cone", "lam": lam})


def cone_split_fields(lam, axes, b=None):
    """Exact pointwise splitting of the cone means into edge and smooth parts.

    Returns (full, amplitude * edge_sum, remainder) value arrays with

        full = amplitude * edge_sum + remainder            (tau > 0)

    where amplitude(xi,tau) = (2^k (tau+|xi|)/tau^2)^lambda * b(u) on the
    slab of tau, edge_sum = sum_k 1_slab gamma(u), and the remainder is
    full * (1 - b(u)^2); the b^2 reflects that both the amplitude and the
    edge profile carry one factor of b.
    """
    b = b or bumps.edge_flat_bump
    gamma = BRProfile(lam, b)
    axes = tuple(axes)
    xi_mag = freq_magnitude(axes[:-1])[..., None]
    tau = axes[-1].freq_coords()
    shape = xi_mag.shape[:-1] + (len(tau),)
    full = np.zeros(shape)
    main = np.zeros(shape)
    rest = np.zeros(shape)
    pos = np.where(tau > 0)[0]
    if len(pos):
        kmin = int(math.floor(math.log2(tau[pos].min())))
        kmax = int(math.floor(math.log2(tau[pos].max())))
        for k in range(kmin, kmax + 1):
            sel = (tau >= 2.0 ** k) & (tau < 2.0 ** (k + 1))
            if not np.any(sel):
                continue
            t = tau[sel]
            u = (xi_mag - t) / 2.0 ** k
            # the factored form (avoids 1 - (xi/tau)^2 cancellation at the
            # edge, keeping the three pieces float-consistent)
            rho = (2.0 ** k * (t + xi_mag) / t ** 2) ** lam \
                * np.clip(-u, 0.0, None) ** lam
            amp = (2.0 ** k * (t + xi_mag) / t ** 2) ** lam * b(u)
            full[..., sel] = rho
            main[..., sel] = amp * gamma(u)
            rest[..., sel] = rho * (1.0 - b(u) ** 2)
    return full, main, rest


@dataclass
class DecayFit:
    """Result of a dyadic-block envelope fit of |gamma_hat|."""

    exponent: float
    blocks: list
    zero_input: bool = False


def edge_decay_fit(lam, b=None, s_range=(10.0, 1.0e4), truncation=4.0,
                   resolution=2 ** 16):
    """Fitted decay exponent of the edge profile's Fourier transform.

    Envelope = max |gamma_hat| per dyadic block of ``s_range``; the fit
    passes (matches the analytic rate) when it returns >= lam + 1 - 0.1.
    """
    s_lo, s_hi = s_range
    if not (10.0 <= s_lo < s_hi <= 1.0e4):
        raise DomainError("fit range must sit inside [10, 1e4]")
    gamma = BRProfile(lam, b) if not isinstance(lam, BRProfile) else lam
    sigma, ghat = fourier_1d(gamma, truncation, resolution)
    if np.max(np.abs(ghat)) == 0.0:
        return DecayFit(float("nan"), [], zero_input=True)
    if sigma.max() < s_hi:
        raise DomainError(
            f"resolution reaches only |s| <= {sigma.max():.3g} < {s_hi}")
    slope, blocks = dyadic_envelope_fit(sigma, ghat, s_lo, s_hi)
    return DecayFit(-slope, blocks)


@dataclass
class CriticalScanResult:
    p: float
    prediction: float
    estimate: float
    table: list  # (lam, {R: full_value}, {R: tail_value}, divergent) rows
    identity_gap: float

    def to_dict(self):
        return {
            "p": self.p,
            "prediction": self.prediction,
            "estimate": self.estimate,
            "identity_gap": self.identity_gap,
            "table": [
                {"lam": lam,
                 "full": {repr(k): v for k, v in sorted(full.items())},
                 "tail": {repr(k): v for k, v in sorted(tail.items())},
                 "divergent": div}
                for lam, full, tail, div in self.table
            ],
        }


def critical_scan(dim, p_list, lam_grid, truncation=16384.0,
                  resolution=2 ** 17, spatial_truncation=4.0,
                  growth_threshold=1.10, detector_window=256.0):
    """Estimate, per p, the smallest order lambda with a convergent functional.

    For each lambda the weak-type weighted functional of the edge profile's
    transform is evaluated at nested truncations R/8 .. R, both over the full
    line and restricted to |s| >= ``detector_window``.  The divergence flag
    (>= 10% growth per doubling across three doublings) is taken from the
    windowed values: the admissible flat bump's width-1/8 ramp contributes a
    fixed spectral hump below s ~ 250 that otherwise pins the supremum and
    masks the tail trend at reachable truncations.  The estimate is the
    smallest unflagged lambda, reported with the analytic threshold
    d/p - (d+1)/2, whose two equivalent forms are also compared exactly.
    """
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
    radii = [truncation / 2 ** i for i in (3, 2, 1, 0)]
    windows = [(0.0, r) for r in radii] + \
        [(detector_window, r) for r in radii]
    tables = [[] for _ in p_list]
    for lam in lam_grid:
        # one transform and one sort per order, dropped before the next
        sigma, ghat = fourier_1d(BRProfile(lam), spatial_truncation,
                                 resolution)
        rearranged = line_rearrangements(sigma, ghat, dim, windows)
        del sigma, ghat
        for p, table in zip(p_list, tables):
            params = LorentzParams(p, math.inf)
            values = [rearranged_quasinorm(r, params) for r in rearranged]
            full = dict(zip(radii, values[:4]))
            tail = dict(zip(radii, values[4:]))
            trend = doubling_trend(tail, growth_threshold)
            table.append((lam, full, tail, trend["divergent"]))
    results = []
    for p, table in zip(p_list, tables):
        unflagged = [lam for lam, _, _, div in table if not div]
        estimate = unflagged[0] if unflagged else float("nan")
        gap = abs(critical_exponent(dim, p) - critical_exponent_alt(dim, p))
        results.append(CriticalScanResult(p, predictions[p], estimate,
                                          table, gap))
    return results
