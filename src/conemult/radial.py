"""Fourier analysis of radial functions.

Convention: forward transform F f(xi) = integral f(y) exp(-i<y,xi>) dy.
For radial m(|y|) in d dimensions this reduces to the one-dimensional
Bessel-kernel integral

    F[m(|.|)](xi) = (2 pi)^(d/2) * integral_0^inf m(r) g_nu(r|xi|) r^(d-1) dr

with nu = d/2 - 1 and g_nu(z) = J_nu(z)/z^nu, which is entire, so the same
formula runs smoothly through xi = 0.  The inverse transform is the forward
one times (2 pi)^(-d).

``inverse_radial`` takes the inverse transform of a closed-form symbol by
the projection-slice theorem instead: one 1-d cosine transform of the
symbol's projection onto a line gives every radius, and no Bessel function
is evaluated on the way.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_j_scaled, surface_area
from .errors import BudgetError, DomainError
from .util import CubicSpline1D, next_pow2, panel_nodes

# Elements per block of the array work below: near-origin u-sum terms,
# cosine-sum terms and angular quadrature nodes.  Blocks this small keep
# their temporaries under the allocator's mmap threshold, so they are reused
# instead of mapped afresh; at 2^18 the page faults cost as much as the sums.
_BLOCK = 1 << 12

# Budget of one inverse_radial call: t-grid points, the length of its
# longest FFT (a few complex arrays of it, about 0.3 GiB at the cap), terms
# (symbol samples, near-origin u-sum terms and direct cosine-sum terms,
# about a minute on one core), and in even d the multiply-adds of the Abel
# rule (a few seconds on one core).
INVERSE_LINE_CAP = 1 << 19
INVERSE_FFT_CAP = 1 << 21
INVERSE_TERM_BUDGET = 400_000_000
INVERSE_ABEL_BUDGET = 1_000_000_000

# The Abel step of even d (see ``_abel_projection``): a trapezoid rule on
# the t-line corrected near its square-root singularity (Navot, J. Math.
# Phys. 40 (1961); Kapur & Rokhlin, SIAM J. Numer. Anal. 34 (1997)).
# zeta(1/2 - p), p = 0..26, the coefficients of Navot's error expansion.
_ZETA_HALF = (
    -1.4603545088095868, -0.20788622497735457, -0.025485201889833036,
    0.008516928777850331, 0.004441011335479432, -0.0030916692472158338,
    -0.0026714580198992244, 0.0027467679395368687, 0.00326903957260022,
    -0.00441603287300489, -0.006672172296466641, 0.011146122473942813,
    0.02039697871594279, -0.04057496748119458, -0.08717525590621725,
    0.2011740493842269, 0.4962712199120576, -1.303229250705114,
    -3.629759299774574, 10.687327069021993, 33.168325785694606,
    -108.21747505877606, -370.3018783754786, 1326.0458117490157,
    4959.598315043044, -19338.94198837462, -78486.1485692177,
)
# Powers of 1/(2K) kept in the correction weights of the row t = K h/q.
_ABEL_POWERS = 12
# The correction's nodes reach this many samples below the singular node,
# so rows with K below it take the u-sum.
_ABEL_REACH = 8
# Relative accuracy asked of the rule, the sample refinement it may take
# and the elements per block of its far-field weights.
_ABEL_TOL = 1e-13
_ABEL_Q_CAP = 16
_ABEL_BLOCK = 1 << 14

# Quadrature nodes per oscillation of the Bessel kernel in radial_transform.
_NODES_PER_PERIOD = 16


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


def space_grid(truncation, resolution):
    """Uniform sample grid x_j = -R + j*(2R/N), j = 0..N-1."""
    h = 2.0 * truncation / resolution
    return -truncation + h * np.arange(resolution)


@functools.lru_cache(maxsize=1)
def _line_grids(truncation, n):
    """Read-only (x, sigma) of ``fourier_1d``; the last pair is kept, as
    scans transform many profiles on one grid."""
    h = 2.0 * truncation / n
    x = space_grid(truncation, n)
    sigma = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(n, d=h))
    x.flags.writeable = False
    sigma.flags.writeable = False
    return x, sigma


def _checked_line_grids(truncation, resolution):
    """``_line_grids`` of ``fourier_1d(f, truncation, resolution)``, after
    its checks of the two: a scan can check its line before any transform."""
    n = int(resolution)
    if n < 2 or (n & (n - 1)) != 0:
        raise DomainError(f"resolution must be a power of two, got {resolution}")
    if not 0 < truncation < math.inf:
        raise DomainError(f"spatial truncation must be finite and positive, "
                          f"got {truncation}")
    return _line_grids(truncation, n)


class LineBuffers:
    """Memory that the transforms of one scan worker reuse on a line of
    ``n`` points: real samples (zero until written), the real FFT and the
    values of ``fourier_1d``.

    Line-sized arrays allocated afresh for each item go back to the
    system when freed and are faulted in again by the next: in fresh
    processes, ``characterize --mode symbol`` on two workers was no
    faster than the serial loop without these buffers (median 0.228 s
    against 0.224 s) and took 0.167 s against 0.280 s with them.
    """

    def __init__(self, n):
        self.samples = np.zeros(n)
        self.spectrum = np.empty(n // 2 + 1, dtype=complex)
        self.values = np.empty(n, dtype=complex)


def fourier_1d(f, truncation, resolution, buffers=None):
    """Discrete approximation of integral f(s) exp(-i s sigma) ds.

    ``f`` is a vectorized callable or an array of samples on
    ``space_grid(truncation, resolution)``.  Samples live at the left
    endpoints x_j = -R + j h (h = 2R/N); the quadrature is the periodic
    trapezoid rule, spectrally accurate once f decays below round-off
    near +-R.  Returns (sigma, values) on the ascending FFT-dual grid
    sigma_m = pi m / R, m = -N/2 .. N/2 - 1.  The grid a callable is
    sampled on and the returned ``sigma`` are read-only arrays, shared
    by the calls on one (R, N).

    The phase exp(i R sigma_m) of the shift to x_0 = -R is exactly
    (-1)^m, so it is applied as a sign rather than computed.  Real
    samples take a real FFT of the m >= 0 half, and the line is completed
    by the conjugate mirror values(-sigma) = conj(values(sigma)), so it
    is exactly Hermitian; the bin m = -N/2 is the real FFT's last.
    With ``buffers`` (``LineBuffers`` of the line), real samples are
    transformed in its memory, and the values returned are its
    ``values``, valid until its next transform; complex samples take new
    arrays either way.
    """
    x, sigma = _checked_line_grids(truncation, resolution)
    n = len(x)
    samples = np.asarray(f(x) if callable(f) else f)
    if samples.shape != (n,):
        raise DomainError(f"expected {n} samples, got shape {samples.shape}")
    h = 2.0 * truncation / n
    real = not np.iscomplexobj(samples)
    if real:
        vals = np.fft.rfft(samples.astype(float, copy=False),
                           out=None if buffers is None else buffers.spectrum)
    else:
        vals = np.fft.fft(samples.astype(complex, copy=False))
    vals *= h
    # unshifted index j carries m = j or j - N, so (-1)^m = (-1)^j
    odd = vals[1::2]
    np.negative(odd, out=odd)
    if not real:
        return sigma, np.fft.fftshift(vals)
    mid = n // 2
    out = np.empty(n, dtype=complex) if buffers is None else buffers.values
    out[mid:] = vals[:mid]
    np.conjugate(vals[mid:0:-1], out=out[:mid])
    return sigma, out


def radial_transform(m0, dim, radii, support=None, inverse=False,
                     panel_budget=400_000):
    """Radial profile of the d-dimensional Fourier transform of m0(|.|).

    ``m0`` is a vectorized callable, and ``support = (a, b)`` (required)
    bounds the integration range.  Points whose oscillatory quadrature
    would exceed ``panel_budget`` panels are flagged (reliable mask False,
    value NaN) rather than silently extrapolated.
    """
    if support is None:
        raise DomainError("a support interval (a, b) is required")
    a, b = float(support[0]), float(support[1])
    if not (0 <= a < b):
        raise DomainError(f"invalid support interval ({a}, {b})")
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
            r, w = panel_nodes(a, b, rho_max, _NODES_PER_PERIOD, panel_budget)
        except BudgetError:
            values[idx] = np.nan
            reliable[idx] = False
            continue
        mvals = np.asarray(m0(r), dtype=complex) * r ** (dim - 1) * w
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


# ---------------------------------------------------------------------------
# inverse transforms of closed-form symbols by projection-slice


def _uniform_runs(radii):
    """Split ascending radii into (start, stop, step) runs of equal spacing.

    Runs of fewer than 16 radii carry step None and are merged with a
    neighbouring short run; they go to direct cosine sums.
    """
    steps = np.diff(radii)
    bends = np.flatnonzero(np.abs(np.diff(steps)) > 1e-9 * steps[1:]) + 1
    runs, i, n = [], 0, len(radii)

    def add(i, j):
        if j - i >= 16:
            runs.append((i, j, (radii[j - 1] - radii[i]) / (j - 1 - i)))
        elif runs and runs[-1][2] is None:
            runs[-1] = (runs[-1][0], j, None)
        else:
            runs.append((i, j, None))

    # stretches of equal steps end at the bends; a run from radius i covers
    # the rest of the stretch that holds step i
    for end in [*bends.tolist(), n - 1]:
        if end > i:
            add(i, end + 1)
            i = end + 1
    if i < n:
        add(i, n)
    return runs


def _walk(proj, h):
    """Projection for dimension d + 2 from that for d, on the same t-grid.

    P_(d+2)(t) = 2 pi int_t^inf P_d(s) s ds = 2 pi (A(inf) - A(t)) with
    A the spectral antiderivative of the odd function s P_d(s), taken on
    its real and imaginary parts; P_d vanishes at the last grid point.
    """
    g = h * np.arange(len(proj)) * proj
    anti = _antiderivative(g.real, h, odd=True)
    if np.iscomplexobj(g):
        anti = anti + 1j * _antiderivative(g.imag, h, odd=True)
    return 2.0 * np.pi * (anti[-1] - anti)


def _abel_table(width):
    """Nodes i and weights A[i, m] of the Abel rule's correction.

    With s = t + x, P_2(t) = int_0^inf x^(-1/2) psi(x) f(x) dx, where
    psi(x) = 2 m(s) s is smooth across s = t and f(x) = (2 t + x)^(-1/2)
    is known.  The trapezoid sum over x = j h, j >= 1, exceeds the integral
    by sum_p zeta(1/2 - p) (psi f)^(p)(0) h^(p+1/2) / p! (Navot).  psi's
    derivatives are taken from its interpolating polynomial on the nodes
    i = -width/2 .. width/2 - 1, f's exactly, so in units of h the row
    t = K h takes the correction (2K)^(-1/2) sum_i c_i(K) psi(i h) / h
    with c_i(K) = sum_m A[i, m] (2K)^(-m).
    """
    nodes = range(-(width // 2), width - width // 2)
    full = [1]                  # prod_j (x - j), highest power first
    for j in nodes:
        full = [a - j * b for a, b in zip(full + [0], [0] + full)]
    lagrange = np.empty((width, width))     # [r, i]: x^r coefficient of l_i
    for col, i in enumerate(nodes):
        # prod_(j != i) (x - j) by synthetic division; its integer
        # coefficients and l_i's denominator stay below 2^53, so are exact
        quot = itertools.accumulate(full[:-1], lambda acc, a: a + i * acc)
        lagrange[::-1, col] = list(quot)
        lagrange[:, col] /= math.prod(i - j for j in nodes if j != i)
    m = np.arange(_ABEL_POWERS)
    # (-1)^m (1/2)_m / m!, the Taylor coefficients of f at x = 0
    ratios = -(m[:-1] + 0.5) / (m[:-1] + 1)
    taylor = np.cumprod(np.concatenate(([1.0], ratios)))
    zeta = np.asarray(_ZETA_HALF)[np.add.outer(np.arange(width), m)]
    return np.array(nodes), taylor * (lagrange.T @ zeta)


# The rule's correction, and a lower-order one whose difference from it
# estimates the error
_ABEL_RULE = _abel_table(2 * _ABEL_REACH)
_ABEL_CHECK = _abel_table(2 * _ABEL_REACH - 2)


def _abel_terms(nt, q):
    """Multiply-adds of the Abel rule's far-field sums on nt t-points."""
    return q * nt * nt // 2


def _abel_rows(q, nt):
    """Rows k of the Abel rule: those whose correction stays in s >= 0."""
    return np.arange(min(-(-_ABEL_REACH // q), nt), nt)


def _abel_correction(samples, q, rows, table):
    """(2K)^(-1/2) sum_i c_i(K) (K + i) m_(K+i) at each row K = q k."""
    nodes, weights = table
    big_k = q * rows
    x = 0.5 / big_k
    c = (x[:, None] ** np.arange(_ABEL_POWERS)) @ weights.T
    idx = big_k[:, None] + nodes
    return np.sqrt(x) * np.sum(c * idx * samples[idx], axis=1)


def _abel_samples(symbol, h, nt):
    """The step h/q of the Abel rule and the symbol's samples at it.

    q doubles from 1 until the error estimate, the rule's correction less
    the lower-order one, integrated over t is at most _ABEL_TOL of
    pi int |m(s)| s ds, which bounds int |P_2(t)| dt; so a symbol that
    the samples resolve keeps q = 1, and q stops at _ABEL_Q_CAP.  Each
    refinement is checked against INVERSE_ABEL_BUDGET before it is
    sampled, and raises BudgetError past it.
    """
    q = 1
    while True:
        s = h / q * np.arange(q * (nt - 1) + _ABEL_REACH)
        samples = np.asarray(symbol(s), dtype=complex)
        rows = _abel_rows(q, nt)
        error = np.abs(_abel_correction(samples, q, rows, _ABEL_RULE)
                       - _abel_correction(samples, q, rows, _ABEL_CHECK))
        scale = 0.5 * np.pi / q * (np.abs(samples) @ np.arange(len(s)))
        if error.sum() <= _ABEL_TOL * scale or q == _ABEL_Q_CAP:
            return q, samples
        q *= 2
        if _abel_terms(nt, q) > INVERSE_ABEL_BUDGET:
            raise BudgetError(
                f"the Abel rule on {nt} t-points needs the sample step "
                f"h/{q}, {_abel_terms(nt, q):.3g} multiply-adds; the cap is "
                f"{INVERSE_ABEL_BUDGET:.3g}")


def _abel_far(values, q, rows):
    """sum_(j > K) v_j / sqrt(j^2 - K^2) at each row K = q k.

    ``values`` holds v_j as real columns.  The weight is
    (j - K)^(-1/2) (j + K)^(-1/2), a product of two slices of one table, so
    each block of _ABEL_BLOCK weights costs one product and enters one
    matrix product; the nt x nt matrix is never built.
    """
    n = len(values)
    inv_sqrt = np.zeros(2 * n)
    inv_sqrt[1:] = 1.0 / np.sqrt(np.arange(1.0, 2 * n))
    out = np.zeros((len(rows), values.shape[1]))
    for i, k in enumerate(q * rows):
        for lo in range(k + 1, n, _ABEL_BLOCK):
            hi = min(lo + _ABEL_BLOCK, n)
            out[i] += (inv_sqrt[lo - k:hi - k] * inv_sqrt[lo + k:hi + k]) \
                @ values[lo:hi]
    return out


def _abel_projection(symbol, h, nt):
    """P_2(k h) = 2 int_(kh)^inf m(s) s (s^2 - (kh)^2)^(-1/2) ds, k = 0..nt-1.

    The corrected trapezoid rule of ``_abel_table`` on the samples of
    ``_abel_samples``: one symbol sample per node, j / sqrt(j^2 - K^2) as
    far-field weights.  The rows t < _ABEL_REACH h/q, where the
    correction's nodes would cross s = 0, take the trapezoid sum
    2 int_0^inf m(sqrt(t^2 + u^2)) du in the t-step h over nt points;
    that integrand is even, smooth and compactly supported in u, so the sum
    is spectrally accurate, and its aliases lie at perpendicular distance
    2 pi / h, as far out as those of the t-line.
    """
    q, samples = _abel_samples(symbol, h, nt)
    rows = _abel_rows(q, nt)
    scaled = samples * np.arange(len(samples))
    far = _abel_far(scaled.view(float).reshape(-1, 2), q, rows)
    proj = np.empty(nt, dtype=complex)
    proj[rows] = 2.0 * h / q * (far.view(complex)[:, 0] - _abel_correction(
        samples, q, rows, _ABEL_RULE))
    u = h * np.arange(nt)
    wu = np.full(nt, 2.0 * h)
    wu[0] = h
    near = u[:nt - len(rows)]
    block = max(1, _BLOCK // nt)
    for lo in range(0, len(near), block):
        tt = near[lo:lo + block, None]
        proj[lo:lo + len(tt)] = symbol(np.sqrt(tt ** 2 + u ** 2)) @ wu
    return proj


def _line_projection(symbol, dim, h, nt):
    """Samples P(k h), k = 0..nt-1, of the projection of symbol(|xi|) onto a line.

    P(t) = |S^(d-2)| int_0^inf m(sqrt(t^2 + u^2)) u^(d-2) du.  The walk
    in steps of two dimensions starts at d = 1, where P is the symbol
    itself, or at d = 2, where P is the Abel transform of the symbol, taken
    on the t-line by ``_abel_projection``: about q nt symbol samples and
    q nt^2 / 2 multiply-adds, q = 1 for a symbol that the t-grid resolves.
    """
    if dim % 2:
        proj = symbol(h * np.arange(nt))
    else:
        proj = _abel_projection(symbol, h, nt)
    for _ in range((dim - 1) // 2):
        proj = _walk(proj, h)
    return proj


def _chirp_sums(line, h, rho0, drho, count):
    """sum_q line[q] exp(-i rho_j (q - c) h) at rho_j = rho0 + j drho.

    ``line`` holds samples at t = (q - c) h with c = (len(line) - 1) / 2;
    Bluestein's chirp-z turns the sums into one FFT convolution.
    """
    size = len(line)
    q = np.arange(size, dtype=float)
    w = drho * h
    nfft = next_pow2(size + count - 1)
    pre = line * np.exp(-1j * (rho0 * h * q + 0.5 * w * q ** 2))
    lag = np.arange(-(size - 1), count, dtype=float)
    chirp = np.exp(0.5j * w * lag ** 2)
    kern = np.zeros(nfft, dtype=complex)
    kern[:count] = chirp[size - 1:]
    kern[nfft - size + 1:] = chirp[:size - 1]
    conv = np.fft.ifft(np.fft.fft(pre, nfft) * np.fft.fft(kern))[:count]
    j = np.arange(count, dtype=float)
    rho = rho0 + drho * j
    return np.exp(1j * (rho * (size - 1) / 2.0 * h - 0.5 * w * j ** 2)) * conv


def inverse_radial_plan(dim, radii, band, margin):
    """Grids of one ``inverse_radial`` call, checked against its budget.

    Returns (h, nt, runs): the t-step, the t-points and the uniform runs of
    ``radii``.  Raises DomainError for a dimension below 2 or radii that
    are not finite, nonnegative and strictly increasing, and BudgetError
    past INVERSE_LINE_CAP t-points, an FFT longer than INVERSE_FFT_CAP,
    INVERSE_TERM_BUDGET terms (symbol samples, near-origin u-sum terms of
    the even-d Abel rule and direct cosine-sum terms) or, in even d,
    INVERSE_ABEL_BUDGET multiply-adds of the Abel rule at its coarsest
    sample step (each finer step is checked again before it is sampled);
    nothing larger than the radii is allocated on the way.
    """
    if dim != int(dim) or dim < 2:
        raise DomainError(f"ambient dimension must be an integer >= 2, "
                          f"got {dim}")
    if radii.ndim != 1 or not np.all(np.isfinite(radii)) \
            or np.any(radii < 0) or np.any(np.diff(radii) <= 0):
        raise DomainError("radii must be finite, nonnegative and strictly "
                          "increasing")
    h = 2.0 * np.pi / (2.0 * radii.max(initial=0.0) + margin)
    nt = int(band / h) + 2
    runs = _uniform_runs(radii)
    direct = sum(stop - start for start, stop, step in runs if step is None)
    longest = max((stop - start for start, stop, step in runs
                   if step is not None), default=0)
    fft = next_pow2(max(2 * nt, 2 * nt + longest - 2))
    terms = nt * (1 + direct)
    abel = 0
    if dim % 2 == 0:
        terms += _ABEL_REACH * nt
        abel = _abel_terms(nt, 1)
    if nt > INVERSE_LINE_CAP or fft > INVERSE_FFT_CAP \
            or terms > INVERSE_TERM_BUDGET or abel > INVERSE_ABEL_BUDGET:
        raise BudgetError(
            f"inverse transform at band {band:.4g}, dimension {dim}, radii "
            f"up to {radii.max(initial=0.0):.4g} needs {nt} t-points, an FFT "
            f"of {fft}, {terms:.3g} terms and {abel:.3g} Abel multiply-adds; "
            f"the caps are {INVERSE_LINE_CAP}, {INVERSE_FFT_CAP}, "
            f"{INVERSE_TERM_BUDGET:.3g} and {INVERSE_ABEL_BUDGET:.3g}")
    return h, nt, runs


def inverse_radial(symbol, dim, radii, band, margin):
    """(2 pi)^(-d) int symbol(|xi|) exp(i <x, xi>) dxi at |x| in ``radii``.

    ``symbol`` maps an array of |xi| to values and must be negligible past
    ``band``.  Projection-slice route: the even projection P(t) of the
    symbol onto a line (see ``_line_projection``) is supported in
    |t| < band, and the transform at rho is 2 (2 pi)^(-d) int_0^inf P(t)
    cos(rho t) dt.  The t-integral is a trapezoid sum, spectrally accurate;
    its step h = 2 pi / (2 max(radii) + margin) puts every alias of a
    requested radius at least ``margin`` past max(radii).  The symbol is
    sampled on the t-grid in odd d; in even d, at the step h/q of the Abel
    rule, accurate to about 1e-13 of the line's scale, and on the few
    near-origin rows, which sum across the line in the step h.  So a
    function supported in |x| <= max(radii) + margin is exact up to the
    symbol's tail past the band.  Uniform runs of radii are summed by
    chirp-z, the rest directly; ``inverse_radial_plan`` checks the budget
    before any array is built.  Returns complex values.
    """
    radii = np.asarray(radii, dtype=float)
    h, nt, runs = inverse_radial_plan(dim, radii, band, margin)
    dim = int(dim)
    proj = _line_projection(symbol, dim, h, nt)
    pref = (2.0 * np.pi) ** (-dim) * h
    line = np.concatenate([proj[:0:-1], proj])
    t = h * np.arange(nt)
    folded = np.where(t > 0, 2.0, 1.0) * proj    # the even line, t >= 0
    values = np.empty(len(radii), dtype=complex)
    for start, stop, step in runs:
        if step is not None:
            values[start:stop] = pref * _chirp_sums(line, h, radii[start],
                                                    step, stop - start)
            continue
        rows = max(1, _BLOCK // nt)
        for lo in range(start, stop, rows):
            rr = radii[lo:min(lo + rows, stop), None]
            values[lo:lo + len(rr)] = pref * (np.cos(rr * t) @ folded)
    return values


# ---------------------------------------------------------------------------
# spherical means from tables of one inverse transform

# Cells of the tables past the outer edge of the support, where f is zero.
_TABLE_PAD = 8
# Pairs per block of SphericalMeans evaluations from antiderivative tables.
_PAIR_BLOCK = 1 << 12
# Nodes of the angular window rule.
_GL64 = np.polynomial.legendre.leggauss(64)


def _antiderivative(g, step, odd):
    """int_(x_0)^(x_q) g on a uniform grid, exact up to aliasing.

    g must vanish smoothly at both ends of the grid, or be the x >= 0 half
    of an odd function (``odd``), which is mirrored before the spectral
    antiderivative; the mean of the periodic line integrates to a ramp.
    An odd line's mean is zero, and is not summed: its rounding would add
    a ramp of its own.
    """
    n = len(g)
    size = next_pow2(2 * n)
    line = np.zeros(size)
    line[:n] = g
    if odd:
        line[size - n + 1:] = -g[:0:-1]
    mean = 0.0 if odd else line.mean()
    spec = np.fft.rfft(line - mean)
    omega = 2.0 * np.pi * np.fft.rfftfreq(size, step)
    spec[0] = 0.0
    spec[1:] /= 1j * omega[1:]
    anti = np.fft.irfft(spec, size)[:n]
    return anti - anti[0] + mean * step * np.arange(n)


def _window_integral(g, lo, hi, dim, rho, s):
    """int g(dist) sin^(d-2)(theta) dtheta over the window lo <= dist <= hi.

    dist(theta) = |rho e_1 - s omega| = sqrt(rho^2 + s^2 - 2 rho s cos theta)
    increases with theta, so the window is one interval and the rule is
    64-node Gauss-Legendre on it.  rho and s broadcast; where rho s = 0 the
    distance is constant and the window is [0, pi] or empty.
    """
    rho, s = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                 np.asarray(s, dtype=float))
    sq = rho ** 2 + s ** 2
    denom = 2.0 * rho * s
    degenerate = denom <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        # cos decreases in theta: dist = lo at the smaller angle
        th_lo = np.arccos(np.clip(np.where(degenerate, 1.0,
                                           (sq - lo ** 2) / denom), -1.0, 1.0))
        th_hi = np.arccos(np.clip(np.where(degenerate, -1.0,
                                           (sq - hi ** 2) / denom), -1.0, 1.0))
    if np.any(degenerate):
        const = np.sqrt(sq)
        inside = (const >= lo) & (const <= hi)
        th_hi = np.where(degenerate & ~inside, 0.0, th_hi)
    xt, wt = _GL64
    half = 0.5 * (th_hi - th_lo)
    theta = th_lo[..., None] + half[..., None] * (xt + 1.0)
    dist = np.sqrt(np.maximum(sq[..., None] - denom[..., None]
                              * np.cos(theta), 0.0))
    gv = np.asarray(g(dist.ravel()), dtype=float).reshape(dist.shape)
    return np.sum(gv * np.sin(theta) ** (dim - 2) * (half[..., None] * wt),
                  axis=-1)


class SphericalMeans:
    """Spherical means (f * sigma_r)(rho) of a radial f in dimension d >= 2.

    f is the inverse transform of ``symbol(|xi|)`` (see ``inverse_radial``),
    zero for |x| < lo and |x| > hi, and sigma_r is the surface measure of
    the sphere of radius r.  Polar coordinates about rho e_1 give

        (f * sigma_r)(rho) = |S^(d-2)| r^(d-1)
            int_window f(|rho e_1 - r omega|) sin^(d-2)(theta) dtheta,

    and with the distance s = |rho e_1 - r omega| as variable

        (f * sigma_r)(rho) = |S^(d-2)| r^(d-2) rho^-1 (2 rho r)^(3-d)
            int_|rho-r|^(rho+r) f(s) s [(s^2 - (rho-r)^2)((rho+r)^2 - s^2)]^((d-3)/2) ds.

    Both read one table of f on the grid x_q = lo + q ``step``, from one
    inverse transform of the symbol.  In odd d the bracket is a polynomial
    of degree d - 3 in s^2, so every value combines the antiderivatives
    A_j(x) = int_0^x s^(2j+1) f(s) ds, j = 0..d-3, at the two ends of the
    window: O(1) per (r, rho) pair.  Their tables are read between nodes by
    cubic Hermite interpolation with the exact slopes x^(2j+1) f(x).  In
    even d the power is a half-integer, so the angular integral is taken by
    ``_window_integral`` on the cubic spline of f.  At rho = 0 the mean is
    |S^(d-1)| r^(d-1) f(r), with f(r) transformed directly.
    """

    def __init__(self, symbol, dim, support, step, band):
        if dim != int(dim) or dim < 2:
            raise DomainError(f"spherical means need an integer dimension "
                              f">= 2, got {dim}")
        lo, hi = float(support[0]), float(support[1])
        if not (0.0 <= lo < hi < math.inf and step > 0):
            raise DomainError(f"invalid support ({lo}, {hi}) or step {step}")
        self.dim, self.step, self.lo, self.hi = int(dim), float(step), lo, hi
        # any positive alias margin puts the aliases of the table radii
        # past hi, where f vanishes
        self.symbol, self.band, self.margin = symbol, band, hi - lo
        count = int(math.ceil((hi - lo) / step)) + 1 + _TABLE_PAD
        if count > INVERSE_FFT_CAP:
            raise BudgetError(f"spherical-mean tables of {count} points exceed "
                              f"the cap of {INVERSE_FFT_CAP}")
        x = lo + step * np.arange(count)
        self.values = inverse_radial(symbol, dim, x, band, self.margin).real
        self.top = x[-1]
        if self.dim % 2:
            slope = x * self.values
            self.slopes = np.empty((self.dim - 2, count))
            self.tables = np.empty((self.dim - 2, count))
            for j in range(self.dim - 2):
                self.slopes[j] = slope
                self.tables[j] = _antiderivative(slope, step, odd=lo == 0.0)
                slope = slope * x ** 2
            self._means, self._block = self._table_means, _PAIR_BLOCK
        else:
            self.spline = CubicSpline1D(x, self.values)
            self._means = self._window_means
            self._block = _BLOCK // len(_GL64[0])

    def antiderivatives(self, x):
        """A_j(x), j = 0..d-3, of odd d: shape (d - 2, len(x)), 0 below lo."""
        y = (np.clip(x, self.lo, self.top) - self.lo) / self.step
        i = np.minimum(y.astype(int), len(self.values) - 2)
        t = y - i
        u = 1.0 - t
        a0, a1 = self.tables[:, i], self.tables[:, i + 1]
        s0, s1 = self.slopes[:, i], self.slopes[:, i + 1]
        return (u * u * (1.0 + 2.0 * t) * a0 + t * t * (3.0 - 2.0 * t) * a1
                + self.step * t * u * (u * s0 - t * s1))

    def __call__(self, r, rho):
        """(f * sigma_r)(rho); r > 0 and rho >= 0 broadcast."""
        r, rho = np.broadcast_arrays(np.asarray(r, dtype=float),
                                     np.asarray(rho, dtype=float))
        shape = r.shape
        r, rho = r.ravel(), rho.ravel()
        out = np.empty(r.shape)
        for lo in range(0, len(r), self._block):
            sl = slice(lo, lo + self._block)
            out[sl] = self._means(r[sl], rho[sl])
        centre = rho == 0
        if np.any(centre):
            rc = r[centre]
            inside = (rc >= self.lo) & (rc <= self.top)
            f = np.zeros(rc.shape)
            if np.any(inside):
                radii, back = np.unique(rc[inside], return_inverse=True)
                f[inside] = inverse_radial(self.symbol, self.dim, radii,
                                           self.band, self.margin).real[back]
            out[centre] = surface_area(self.dim) * rc ** (self.dim - 1) * f
        return out.reshape(shape)

    def _window_means(self, r, rho):
        return surface_area(self.dim - 1) * r ** (self.dim - 1) \
            * _window_integral(self.spline, self.lo, self.hi, self.dim, rho, r)

    def _table_means(self, r, rho):
        n = (self.dim - 3) // 2
        near, far = np.abs(rho - r), rho + r
        diff = self.antiderivatives(far) - self.antiderivatives(near)
        # coefficients of [(u - alpha)(beta - u)]^n in powers of u = s^2
        alpha, beta = near ** 2, far ** 2
        factor = (-alpha * beta, alpha + beta, -np.ones_like(r))
        coef = [np.ones_like(r)]
        for _ in range(n):
            nxt = [np.zeros_like(r) for _ in range(len(coef) + 2)]
            for i, c in enumerate(coef):
                for k, q in enumerate(factor):
                    nxt[i + k] += c * q
            coef = nxt
        total = sum(c * d for c, d in zip(coef, diff))
        with np.errstate(divide="ignore", invalid="ignore"):
            pref = surface_area(self.dim - 1) * r ** (self.dim - 2) / rho \
                * (2.0 * rho * r) ** (-2 * n)
            return np.where(rho > 0, pref * total, 0.0)
