"""Smooth compactly supported cutoffs, frozen with explicit constants.

Everything here is built from the exponential step exp(-a/x); the steepness
parameter ``a`` trades mid-transition slope against tail decay of the Fourier
transform and is fixed per cutoff below.
"""

import numpy as np

from .errors import DomainError


def transition(x, steepness=1.0):
    """C-infinity monotone step: 0 for x <= 0, 1 for x >= 1.

    With g0 = exp(-a/x) and g1 = exp(-a/(1 - x)), each 0 off its half
    line, the step is g0 / (g0 + g1).  Off the open ramp 0 < x < 1 that
    quotient is exactly 1 (x >= 1) or 0 (x <= 0, and NaN, where g0 = g1 =
    0), as long as exp(-a) is a positive normal float, so the exponentials
    are evaluated on the ramp alone.
    """
    if not 0.0 < steepness <= 700.0:
        raise DomainError(f"steepness must lie in (0, 700], got {steepness}")
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 1.0, 1.0, 0.0)
    ramp = (x > 0.0) & (x < 1.0)
    xr = x[ramp]
    # -a/x overflows to -inf near a subnormal x, and exp takes it to 0
    with np.errstate(over="ignore", invalid="ignore"):
        g0 = np.exp(-steepness / xr)
        g1 = np.exp(-steepness / (1.0 - xr))
        out[ramp] = np.where(g0 + g1 > 0, g0 / (g0 + g1), 0.0)
    return out


def smooth_window(x, rise0, rise1, fall1, fall0, steepness=1.0):
    """Smooth plateau window: 0 outside (rise0, fall0), 1 on [rise1, fall1]."""
    if not (rise0 < rise1 <= fall1 < fall0):
        raise DomainError("window knots must satisfy rise0 < rise1 <= fall1 < fall0")
    x = np.asarray(x, dtype=float)
    up = transition((x - rise0) / (rise1 - rise0), steepness)
    down = transition((fall0 - x) / (fall0 - fall1), steepness)
    return up * down


class BumpPhi:
    """Smooth bump supported in (1/2, 2), used to window radial symbols.

    phi(r) = exp(peak_shift - 1/((r - 1/2)(2 - r))) on (1/2, 2), 0 outside,
    normalized so the maximum (at r = 5/4) equals 1.
    """

    support = (0.5, 2.0)

    def __init__(self):
        # max of (r-1/2)(2-r) on the support is (3/4)^2 at r = 5/4
        self._shift = 16.0 / 9.0
        if not self(1.0) > 0:
            raise DomainError("window bump must be positive at r = 1")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = (r > 0.5) & (r < 2.0)
        q = (r[inside] - 0.5) * (2.0 - r[inside])
        out[inside] = np.exp(self._shift - 1.0 / q)
        return out


def band_cutoff(x):
    """Cutoff supported in (1/8, 8), flat on [1, 2].

    The wide transition ramps keep the Fourier tails of band-limited wave
    kernels decaying visibly at single-digit dyadic scales.
    """
    return smooth_window(x, 1.0 / 8.0, 1.0, 2.0, 8.0)


def edge_flat_bump(x, steepness=1.0):
    """Cutoff supported in (-1/4, 4), identically 1 for |x| <= 1/8.

    Steepness 1 minimizes the Fourier mass of the width-1/8 left ramp at
    moderate frequencies (measured: steeper ramps are strictly worse there),
    which is what limits how cleanly power-law edge decay can be observed.
    """
    return smooth_window(x, -0.25, -0.125, 0.125, 4.0, steepness)
