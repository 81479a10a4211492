"""Smooth compactly supported cutoffs, frozen with explicit constants.

Everything here is built from the exponential step exp(-1/x), whose
steepness is fixed at 1: of the steepnesses measured, it put the least
Fourier mass of the width-1/8 ramp of ``edge_flat_bump`` at moderate
frequencies, which is what limits how cleanly power-law edge decay can be
observed (steeper ramps were strictly worse there).
"""

import numpy as np

from .errors import DomainError


def transition(x):
    """C-infinity monotone step: 0 for x <= 0, 1 for x >= 1.

    With g0 = exp(-1/x) and g1 = exp(-1/(1 - x)), each 0 off its half
    line, the step is g0 / (g0 + g1).  Off the open ramp 0 < x < 1 that
    quotient is exactly 1 (x >= 1) or 0 (x <= 0, and NaN, where g0 = g1 =
    0), so the exponentials are evaluated on the ramp alone.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 1.0, 1.0, 0.0)
    ramp = (x > 0.0) & (x < 1.0)
    xr = x[ramp]
    # -1/x overflows to -inf near a subnormal x, and exp takes it to 0
    with np.errstate(over="ignore", invalid="ignore"):
        g0 = np.exp(-1.0 / xr)
        g1 = np.exp(-1.0 / (1.0 - xr))
        out[ramp] = np.where(g0 + g1 > 0, g0 / (g0 + g1), 0.0)
    return out


def smooth_window(x, rise0, rise1, fall1, fall0):
    """Smooth plateau window: 0 outside (rise0, fall0), 1 on [rise1, fall1]."""
    if not (rise0 < rise1 <= fall1 < fall0):
        raise DomainError("window knots must satisfy rise0 < rise1 <= fall1 < fall0")
    x = np.asarray(x, dtype=float)
    up = transition((x - rise0) / (rise1 - rise0))
    down = transition((fall0 - x) / (fall0 - fall1))
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


def edge_flat_bump(x):
    """Cutoff supported in (-1/4, 4), identically 1 for |x| <= 1/8.

    Its width-1/8 left ramp is the only ramp the edge profiles of the cone
    means see (``bochner.BRProfile``).
    """
    return smooth_window(x, -0.25, -0.125, 0.125, 4.0)


def tent_profile(u):
    return np.clip(1.0 - 4.0 * np.abs(np.asarray(u, dtype=float)), 0.0, None)


def bump_profile(u):
    return smooth_window(np.asarray(u, float), -0.25, -0.125, 0.125, 0.25)


# a line profile's support: the interval off which it vanishes
tent_profile.support = bump_profile.support = (-0.25, 0.25)
