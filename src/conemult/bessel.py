"""Bessel functions J_nu for integer and half-integer orders.

Each argument takes its regime by itself, so a value never depends on the
other arguments of the call.  For x <= 8 the power series (past that
point cancellation costs digits).  For x > 8, writing nu = nu0 + n with
nu0 in {0, 1/2}:
  * the starting pair J_nu0, J_(nu0+1): for nu0 = 0 the cosine integral
    representation (64-point trapezoid, exact to aliasing order J_(128-n))
    on x < 20 and the Hankel asymptotic expansion past it; for nu0 = 1/2
    the closed forms sqrt(2x/pi) (sin x/x, sin x/x^2 - cos x/x);
  * one recurrence J_(k+1) = (2 (k + nu0) / x) J_k - J_(k-1), run upward
    where n < 0.9 x and, from an index above n, downward (Miller) with
    normalization against the starting pair elsewhere.

Absolute accuracy target is 1e-12 for x <= 1e4; the test-suite checks this
against an independent high-precision oracle.
"""

import math

import numpy as np

from .errors import DomainError

_SERIES_CUT = 8.0
_ASYMPTOTIC_CUT = 20.0
# x_M = 2 (1e-17 (M!)^2)^(1/2M): past M terms the series of J_nu(x) on
# x <= x_M is below 1e-17 of its first term, for every nu >= 0 (the M-th
# term is at most (x^2/4)^M / (M!)^2 of the first); 23 terms reach x = 8.
_SERIES_REACH = np.array([2.0 * (1e-17 * math.factorial(m) ** 2)
                          ** (0.5 / m) for m in range(1, 35)])
_ASYM_TERMS = 17  # c_k/x^k for k < 17; at x = 20 the tail is below 1e-14
# nodes, -sin(nodes) and weights of the 64-interval trapezoid rule on [0, pi]
_THETA = np.linspace(0.0, np.pi, 65)
_MINUS_SIN = -np.sin(_THETA)
_TRAPEZOID = np.full(65, 1.0 / 64)
_TRAPEZOID[[0, -1]] = 0.5 / 64


def _arguments(order, x):
    """(order, x as a 1-d array, whether x was a scalar), both checked."""
    k2 = 2.0 * order
    if order < 0 or abs(k2 - round(k2)) > 1e-12:
        raise DomainError(f"order must be a nonnegative half-integer, got {order}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("argument must be nonnegative")
    return round(k2) / 2.0, np.atleast_1d(x), x.ndim == 0


def _split(mask, x, inside, outside):
    """inside(x) where ``mask`` holds and outside(x) elsewhere."""
    out = np.empty_like(x)
    if np.any(mask):
        out[mask] = inside(x[mask])
    if np.any(~mask):
        out[~mask] = outside(x[~mask])
    return out


def _series(order, x, scaled):
    """Power series; with scaled=True returns J_nu(x)/x^nu (entire part).

    Each argument sums the terms its own x needs (``_SERIES_REACH``), so
    no value depends on the other arguments: the terms are running
    products of the factors -x^2 / (4 m (m + nu)), and their running sums
    are read at each argument's own count.
    """
    q = 0.25 * x * x
    count = np.searchsorted(_SERIES_REACH, x) + 1
    m = np.arange(1, count.max())[:, None]
    terms = np.empty((len(m) + 1, len(x)))
    if scaled:
        terms[0] = 2.0 ** (-order) / math.gamma(order + 1.0)
    else:
        terms[0] = (0.5 * x) ** order / math.gamma(order + 1.0)
    np.divide(-q, m * (m + order), out=terms[1:])
    np.cumprod(terms, axis=0, out=terms)
    np.cumsum(terms, axis=0, out=terms)
    return terms[count - 1, np.arange(len(x))]


def _asymptotic_int(n, x):
    """Hankel expansion for integer n in {0, 1}, x >= 20."""
    c = 1.0
    p = np.ones_like(x)
    qq = np.zeros_like(x)
    xk = x.copy()
    four_nu2 = 4.0 * n * n
    for k in range(1, _ASYM_TERMS):
        c = c * (four_nu2 - (2 * k - 1) ** 2) / (k * 8.0)
        sgn = -1.0 if (k // 2) % 2 else 1.0
        if k % 2 == 0:
            p = p + sgn * c / xk
        else:
            qq = qq + sgn * c / xk
        xk = xk * x
    chi = x - (2 * n + 1) * np.pi / 4.0
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(chi) - qq * np.sin(chi))


def _integral_rep_int(n, x):
    """(1/pi) * integral_0^pi cos(n t - x sin t) dt via 64-interval trapezoid.

    Each row is summed on its own: a matrix-vector product would make a
    value depend on how many rows there are.
    """
    rows = x[:, None] * _MINUS_SIN
    rows += n * _THETA
    np.cos(rows, out=rows)
    rows *= _TRAPEZOID
    return rows.sum(axis=1)


def _pair(nu0, k, x):
    """J_(nu0 + k)(x) on x > 8 for k in {0, 1}: the recurrence's start."""
    if nu0 == 0.0:
        return _split(x < _ASYMPTOTIC_CUT, x,
                      lambda y: _integral_rep_int(k, y),
                      lambda y: _asymptotic_int(k, y))
    if k == 0:
        closed = np.sin(x) / x
    else:
        closed = np.sin(x) / (x * x) - np.cos(x) / x
    return np.sqrt(2.0 * x / np.pi) * closed


def _upward(nu0, n, x):
    jm, jc = _pair(nu0, 0, x), _pair(nu0, 1, x)
    for k in range(1, n):
        jm, jc = jc, (2.0 * (k + nu0) / x) * jc - jm
    return jc


def _miller(nu0, n, x):
    """Downward recurrence for x <= n / 0.9, so its start depends on n alone;
    normalized at whichever of orders nu0, nu0 + 1 it makes larger."""
    m_start = int(n / 0.9) + int(math.sqrt(40.0 * n)) + 14
    jp = np.zeros_like(x)
    jc = np.full_like(x, 1e-30)
    ans = np.zeros_like(x)
    v1 = np.zeros_like(x)
    for k in range(m_start, 0, -1):
        jp, jc = jc, (2.0 * (k + nu0) / x) * jc - jp
        big = np.abs(jc) > 1e10
        if np.any(big):
            scale = np.where(big, 1e-10, 1.0)
            jc *= scale
            jp *= scale
            ans *= scale
            v1 *= scale
        if k - 1 == n:
            ans = jc.copy()
        if k - 1 == 1:
            v1 = jc.copy()
    use0 = np.abs(jc) >= np.abs(v1)
    pair = _split(use0, x, lambda y: _pair(nu0, 0, y),
                  lambda y: _pair(nu0, 1, y))
    return ans * (pair / np.where(use0, jc, v1))


def _large_x(order, x):
    """J_order on x > 8, order = nu0 + n with nu0 in {0, 1/2}."""
    n = int(order)
    nu0 = order - n
    if n <= 1:
        return _pair(nu0, n, x)
    return _split(0.9 * x > n, x, lambda y: _upward(nu0, n, y),
                  lambda y: _miller(nu0, n, y))


def bessel_j(order, x):
    """J_nu(x) for half-integer or integer nu >= 0 and x >= 0."""
    order, x, scalar = _arguments(order, x)
    out = _split(x <= _SERIES_CUT, x,
                 lambda y: _series(order, y, scaled=False),
                 lambda y: _large_x(order, y))
    return float(out[0]) if scalar else out


def bessel_j_scaled(order, x):
    """The entire function J_nu(x) / x^nu; at x = 0 equals 1/(2^nu Gamma(nu+1)).

    This is the natural kernel for radial transforms: the integrand
    m(r) * scaled(r*rho) * r^(d-1) stays smooth through rho = 0.
    """
    order, x, scalar = _arguments(order, x)
    out = _split(x <= _SERIES_CUT, x,
                 lambda y: _series(order, y, scaled=True),
                 lambda y: bessel_j(order, y) / y ** order)
    return float(out[0]) if scalar else out


def surface_area(dim):
    """Surface measure of the unit sphere in R^dim."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
