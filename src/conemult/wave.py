"""Wave kernels, their spherical-mean decomposition, and shell operators.

The band-limited half-wave kernel at dyadic frequency scale 2^n,

    K_n = inverse transform of  exp(i|xi|) theta(2^-n |xi|),

with theta the band cutoff ``bumps.band_cutoff``, concentrates on the unit
sphere.  Writing its restriction to the annulus 1/2 < |x| < 2 as a
superposition of sphere measures gives the exact split

    K_n = 2^(n(d-1)/2) * [density omega_n(|x|) on the annulus] + error,

because a superposition integral of sphere measures sigma_rho with weight
omega has Lebesgue density omega(|x|) (polar coordinates).  The module
verifies the two quantitative features that make the split useful: the
L1 mass of omega_n is uniformly bounded in n, and the error decays fast
in n away from the annulus.

Kernels are computed by the projection-slice theorem
(``radial.inverse_radial``): one 1-d cosine transform of the symbol's
projection onto a line gives every radius, so no Bessel function is
evaluated on the way.

Also here: smoothed spherical shells psi * sigma_r built from a compactly
supported kernel psi = psi0 * psi0 whose transform vanishes to high order
at the origin, and lower bounds for the norm of the shell superposition
operator

    h  |-->  integral h(y, r) (sigma_r * psi)(. - y) dr dy

from L^p(dy r^(d-1) dr) to L^p(R^d).  Every shell profile is a spherical
mean of a radial function with a closed-form transform, read from tables
of one inverse transform (``radial.SphericalMeans``) in every dimension.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bumps
from .bessel import bessel_j_scaled, surface_area
from .characterize import polar_sample_set
from .errors import BudgetError, DomainError
from .lorentz import lorentz_quasinorm, LorentzParams
from .opnorm import OpNormEstimate, _search
from .radial import (RadialProfile, SphericalMeans, inverse_radial,
                     inverse_radial_plan)

_GL32 = np.polynomial.legendre.leggauss(32)

MAX_WAVE_SCALE = 12
MAX_SHELLS = 64
# Largest dimension of the shell rows: doubling the band and halving the
# table step and the t-step moves them by at most 5e-9 of their peak up to
# d = 5 and by 3.6e-7 at d = 6.
MAX_SHELL_DIM = 5
# Radii of the shell profiles' grid: with MAX_SHELLS rows per spread the
# basis then stays under 40 MiB a spread (r_hi up to about 680 at the
# default radius0).
MAX_RHO_POINTS = 1 << 16

# Cells per radius0 of the spherical-mean tables: doubling the cells moves
# the shell rows by about 1e-10 of their peak in odd d, 5e-9 in even d.
_TABLE_CELLS = 1024

# decompose: the annulus of the spherical-mean density, and the regions
# of |x| where the error is sampled
_ANNULUS = (0.5, 2.0)
_ERROR_REGIONS = ((0.0, 0.25), (4.0, 8.0))


# ---------------------------------------------------------------------------
# smoothing kernel


def _laplacian_iterate(coeffs, dim, times):
    """Apply the radial Laplacian to a polynomial in u = |x|^2, ``times`` times."""
    c = np.asarray(coeffs, dtype=float)
    for _ in range(times):
        out = np.zeros(max(len(c) - 1, 1))
        for j in range(1, len(c)):
            out[j - 1] += c[j] * 2.0 * j * (2.0 * j - 2.0 + dim)
        c = out
    return c


def _bump_hat(dim, degree, radius, rho, scale=1.0):
    """Transform of scale (1 - |x/radius|^2)_+^degree at |xi| = rho."""
    pref = scale * radius ** dim * math.gamma(degree + 1) \
        * 2.0 ** (degree + dim / 2.0) * math.pi ** (dim / 2.0)
    return pref * bessel_j_scaled(dim / 2.0 + degree,
                                  radius * np.asarray(rho, float))


@dataclass
class SmoothingKernel:
    """psi0 = Delta^M applied to a polynomial bump; psi = psi0 * psi0.

    The bump (1 - |x/r0|^2)_+^K has the closed-form transform
    r0^d K! 2^(K+d/2) pi^(d/2) g_(d/2+K)(r0 |xi|), so

        psi0_hat(xi) = (-|xi|^2)^M * bump_hat(xi),

    which vanishes at the origin to order 2M and is nonzero wherever the
    bump factor is; that factor is checked to stay above a 1e-6 relative
    margin on the band 1/8 <= |xi| <= 8 at construction time.
    """

    dim: int
    radius0: float = 1.0 / 16.0
    vanishing_order: int = 5
    bump_degree: int = 16

    def __post_init__(self):
        if not 0.0 < self.radius0 < math.inf:
            raise DomainError(f"kernel radius {self.radius0} must be positive "
                              f"and finite")
        if self.vanishing_order < 0:
            raise DomainError(f"vanishing order {self.vanishing_order} < 0")
        if self.bump_degree < 2 * self.vanishing_order + 2:
            raise DomainError("bump degree too low for the requested Laplacian power")
        k = self.bump_degree
        binom = [math.comb(k, j) * (-1.0) ** j / self.radius0 ** (2 * j)
                 for j in range(k + 1)]
        self._psi0_coeffs = _laplacian_iterate(binom, self.dim,
                                               self.vanishing_order)
        # normalize to unit L1 mass so derived quantities sit near unit scale
        probe = np.linspace(0.0, self.radius0, 4097)
        mass = surface_area(self.dim) * np.trapezoid(
            np.abs(self.psi0_profile(probe)) * probe ** (self.dim - 1), probe)
        self._scale = 1.0 / mass
        self._psi0_coeffs = self._psi0_coeffs * self._scale
        band = np.linspace(0.125, 8.0, 400)
        margin = np.abs(self._bump_hat(band)).min() / abs(self._bump_hat0())
        if margin < 1e-6:
            raise DomainError(
                f"bump transform margin {margin:.2e} < 1e-6 on the band")
        # the frequency ``band`` returns, scanned once per kernel
        rho = np.geomspace(1.0 / self.radius0, 2.0 ** 16 / self.radius0, 1024)
        mag = np.abs(self.psi_hat(rho)) * rho ** self.dim
        last = np.flatnonzero(mag > 1e-16 * mag.max())[-1]
        if last == len(rho) - 1:
            raise DomainError("kernel transform does not decay in the scan range")
        self._band = float(rho[last + 1])

    # -- frequency side -----------------------------------------------------

    def _bump_hat(self, rho):
        return _bump_hat(self.dim, self.bump_degree, self.radius0, rho,
                         self._scale)

    def _bump_hat0(self):
        d, k, r0 = self.dim, self.bump_degree, self.radius0
        return self._scale * r0 ** d * math.pi ** (d / 2.0) \
            * math.gamma(k + 1) / math.gamma(d / 2.0 + k + 1)

    def psi0_hat(self, rho):
        rho = np.asarray(rho, dtype=float)
        return (-(rho ** 2)) ** self.vanishing_order * self._bump_hat(rho)

    def psi_hat(self, rho):
        return self.psi0_hat(rho) ** 2

    # -- space side ----------------------------------------------------------

    def psi0_profile(self, r):
        r = np.asarray(r, dtype=float)
        u = r ** 2
        out = np.zeros_like(u)
        inside = r <= self.radius0
        out[inside] = np.polynomial.polynomial.polyval(u[inside],
                                                       self._psi0_coeffs)
        return out

    @property
    def support_radius(self):
        """Radius of the support of psi = psi0 * psi0."""
        return 2.0 * self.radius0

    def band(self):
        """Frequency past which |psi_hat(rho)| rho^d stays below 1e-16 of its peak.

        Inverse transforms of symbols with the factor psi_hat are cut there;
        the weight rho^d makes 1e-16 about the share of the transform's
        mass that the cut drops.
        """
        return self._band


# Largest kernel radius0: radius0 ** (2 bump_degree), which divides the top
# coefficient of the kernel's polynomial, stays below 2^1024 (finite) up to
# 2^31.
MAX_RADIUS0 = 2 ** ((sys.float_info.max_exp - 1)
                    // (2 * SmoothingKernel.bump_degree))


# ---------------------------------------------------------------------------
# wave kernels and their decomposition

def _wave_grid(n):
    """Band and alias margin of the scale-n wave kernel (see ``wave_kernel``)."""
    if not 1 <= n <= MAX_WAVE_SCALE:
        raise DomainError(
            f"scale n = {n} outside the supported range 1..{MAX_WAVE_SCALE}")
    return 2.0 ** n * 8.0, 8.0 + 2.0 ** (8 - n)


def wave_kernel_plan(n, dim, radii):
    """Grids of one ``wave_kernel`` call, checked against its budget.

    Returns ``inverse_radial_plan`` of the scale-n band; raises DomainError
    for a scale outside 1..MAX_WAVE_SCALE or a dimension below 2, and
    BudgetError before anything larger than the radii is allocated.
    """
    return inverse_radial_plan(dim, radii, *_wave_grid(n))


def wave_kernel(n, dim, radii):
    """Radial profile of the band-limited half-wave kernel at scale 2^n.

    K_n(x) = (2 pi)^(-d) integral exp(i |xi|) theta(2^-n |xi|)
             exp(i <x, xi>) dxi,  theta = ``bumps.band_cutoff``, supported
    in the band (1/8, 8); the profile is tabulated at ``radii``.

    The symbol is supported in |xi| < 2^n 8 and goes through
    ``inverse_radial`` with the alias margin 8 + 2^(8-n): past max(radii)
    the kernel has decayed (the decay length shrinks like 2^-n; for the
    band cutoff the aliasing error stays below 1e-11 of the peak at every
    n).  The symbol is sampled about 30 * 2^n times in odd d; in even d its
    Abel rule samples it as often (twice at n = 3, where the cutoff's ramp
    needs the halved step) plus a few near-origin u-sum rows, and sums
    about 500 * 4^n weights, so a scale past 10 raises BudgetError before
    any array is built.
    """
    radii = np.asarray(radii, dtype=float)
    band, margin = _wave_grid(n)
    a, b = 2.0 ** n / 8.0, band

    def symbol(s):
        out = np.zeros(s.shape, dtype=complex)
        inside = (s > a) & (s < b)
        si = s[inside]
        out[inside] = np.exp(1j * si) * bumps.band_cutoff(si / 2.0 ** n)
        return out

    values = inverse_radial(symbol, dim, radii, band, margin)
    return RadialProfile(radii, values, int(dim))


@dataclass
class WaveDecomposition:
    """Spherical-mean split of one wave kernel: annulus density plus error."""

    n: int
    dim: int
    annulus_rho: np.ndarray
    omega: np.ndarray            # complex density on the annulus
    omega_l1: float
    error_rho: np.ndarray
    error_values: np.ndarray
    error_abs: np.ndarray        # |error_values|, the abs of each scalar
    error_sup: float             # max(error_abs)


def decompose_radii(n):
    """Annulus radii, error radii and their sorted union for scale n.

    The annulus ``_ANNULUS`` has a grid of step 2^-n / 8, centred in its
    cells; the ``_ERROR_REGIONS`` have step min(2^-n / 4, 0.02).  The union
    is a sort that keeps each value differing from its predecessor, as
    ``np.unique`` gives it without importing ``numpy.ma`` (10-16 ms, which
    every wave-check would pay in its option checks).
    """
    step = 2.0 ** (-n) / 8.0
    a_lo, a_hi = _ANNULUS
    ann_rho = np.arange(a_lo + step / 2, a_hi, step)
    err_rho = np.concatenate([
        np.arange(lo, hi + 1e-12, min(step * 2, 0.02)) for lo, hi in
        _ERROR_REGIONS])
    radii = np.sort(np.concatenate([ann_rho, err_rho]))
    keep = np.ones(len(radii), dtype=bool)
    keep[1:] = radii[1:] != radii[:-1]
    return ann_rho, err_rho, radii[keep]


def decompose(n, dim):
    """Split the scale-n wave kernel into annulus spherical means plus error.

    omega_n(rho) = 2^(-n(d-1)/2) K_n(rho) on the annulus (the extraction is
    exact: a superposition of sphere measures with weight omega has radial
    Lebesgue density omega(|x|)); the error is K_n off the annulus.

    The density grid resolves oscillations of wavelength 2^-n, so it has
    3 * 2^(n+2) points; ``wave_kernel`` evaluates each uniform grid with one
    chirp-z transform.  The cost therefore grows like 2^n in odd d (every
    scale up to the cap at 12 is cheap); in even d the Abel rule's
    multiply-adds grow like 4^n, under 0.1 s at n = 8 and under a second
    at n = 10, and past n = 10 their budget raises BudgetError.
    """
    step = 2.0 ** (-n) / 8.0
    ann_rho, err_rho, radii = decompose_radii(n)
    prof = wave_kernel(n, dim, radii)
    interp_r = prof.radii
    kvals = prof.values
    ann_idx = np.searchsorted(interp_r, ann_rho)
    err_idx = np.searchsorted(interp_r, err_rho)
    scale = 2.0 ** (-n * (dim - 1) / 2.0)
    omega = scale * kvals[ann_idx]
    omega_l1 = float(np.sum(np.abs(omega)) * step)
    err_vals = kvals[err_idx]
    # hypot, not np.abs, is the abs of each complex scalar bit for bit
    err_abs = np.hypot(err_vals.real, err_vals.imag)
    return WaveDecomposition(n, dim, ann_rho, omega, omega_l1, err_rho,
                             err_vals, err_abs, float(np.max(err_abs)))


def decompose_range(n_list, dim):
    """Decompose a range of scales, with the uniform-L1 ratio of their omegas
    and the dyadic decay rate of the error sup: the least-squares slope of
    -log2(error_sup) against n."""
    decs = [decompose(n, dim) for n in n_list]
    l1 = [d.omega_l1 for d in decs]
    rate = float("nan")   # a single scale cannot support a fit
    if len(decs) >= 2:
        ns = np.array([d.n for d in decs], dtype=float)
        sups = np.array([d.error_sup for d in decs])
        slope, _ = np.polyfit(ns, np.log2(np.maximum(sups, 1e-300)), 1)
        rate = float(-slope)
    return decs, float(max(l1) / min(l1)), rate


# ---------------------------------------------------------------------------
# shell superposition operator: lower bounds


def _ball_bump(a):
    def u(s):
        s = np.asarray(s, dtype=float)
        return np.clip(1.0 - (s / a) ** 2, 0.0, None) ** 2
    return u


def _ball_lp(a, dim, p):
    xs, ws = _GL32
    s = 0.5 * a * (xs + 1.0)
    sw = 0.5 * a * ws
    u = _ball_bump(a)(s)
    return (surface_area(dim) * float(np.sum(u ** p * s ** (dim - 1) * sw))) \
        ** (1.0 / p)


@dataclass
class _ShellBasis:
    """Precomputed spread-bump x shell convolution profiles on a global grid."""

    rho: np.ndarray     # rho[0] = 0, whose column is left zero
    profiles: dict      # spread radius a -> (n_shells, n_rho) array
    shell_radii: np.ndarray
    dr: float


def check_shell_grid(r_grid, radius0, spread_radii):
    """The outer radius of the shell profiles' grid, of step radius0 / 6
    (2 radius0 is the support radius of psi); BudgetError past
    MAX_RHO_POINTS radii."""
    rho_max = np.max(r_grid) + 2.0 * radius0 + max(spread_radii) + 0.5
    if rho_max / (radius0 / 6.0) > MAX_RHO_POINTS:
        raise BudgetError(f"shell profiles out to {rho_max:.4g} at step "
                          f"{radius0 / 6.0:.3g} exceed the cap of "
                          f"{MAX_RHO_POINTS} radii")
    return rho_max


def _spread_support(kernel, a):
    """Radii between which v_a = psi * u_a can be nonzero.

    u_a is a polynomial of degree 4 inside its ball and psi annihilates
    polynomials of degree below 4M, the order to which its transform
    vanishes; so for M >= 2 v_a vanishes for |x| < a - w.
    """
    w = kernel.support_radius
    lo = max(a - w, 0.0) if kernel.vanishing_order >= 2 else 0.0
    return lo, a + w


def _spread_means(dim, kernel, a):
    """Spherical means (v_a * sigma_r)(rho) of v_a = psi * u_a.

    v_a has the closed-form transform psi_hat times the K = 2 bump
    transform of radius a, so its tables come from one inverse transform
    (``radial.SphericalMeans``), with _TABLE_CELLS cells per radius0.
    """
    def symbol(rho):
        return kernel.psi_hat(rho) * _bump_hat(dim, 2, a, rho)
    return SphericalMeans(symbol, dim, _spread_support(kernel, a),
                          kernel.radius0 / _TABLE_CELLS, kernel.band())


def _build_shell_basis(dim, r_grid, kernel, spread_radii):
    """Rows u_a * (psi * sigma_r) = (psi * u_a) * sigma_r on a global rho grid.

    By associativity one profile v_a = psi * u_a per spread serves every
    shell: each row is the spherical mean of v_a (``_spread_means``),
    nonzero only where |rho - r| <= a + w, and taken at rho > 0 alone (no
    norm reads the centre, a set of measure zero).
    """
    r_grid = np.asarray(r_grid, dtype=float)
    w = kernel.support_radius
    dr = r_grid[1] - r_grid[0] if len(r_grid) > 1 else 1.0
    rho_max = check_shell_grid(r_grid, kernel.radius0, spread_radii)
    rho = np.arange(0.0, rho_max, kernel.radius0 / 6.0)
    means = {a: _spread_means(dim, kernel, a) for a in spread_radii}
    profiles = {}
    for a in spread_radii:
        shell, k = np.nonzero(np.abs(rho[1:] - r_grid[:, None]) <= a + w)
        k += 1
        rows = np.zeros((len(r_grid), len(rho)))
        rows[shell, k] = means[a](r_grid[shell], rho[k])
        profiles[a] = rows
    return _ShellBasis(rho, profiles, r_grid, dr)


def _shell_norms(basis, spec, p, dim):
    """(||h||_p, ||T h||_p) for the witness h = u_a w of ``spec``: each
    family's one definition of the shell weights w."""
    prm = spec["params"]
    radii = basis.shell_radii
    if spec["family"] == "single_shell":
        weights = np.zeros(len(radii))
        weights[prm["index"]] = 1.0
    elif spec["family"] == "coherent_profile":
        weights = radii ** prm["beta"]
    else:
        weights = np.asarray(prm["signs"]) * radii ** prm["beta"]
    a = prm["spread"]
    wnorm = float(np.sum(np.abs(weights) ** p * radii ** (dim - 1)
                         * basis.dr)) ** (1.0 / p)
    denom = _ball_lp(a, dim, p) * wnorm
    th = basis.dr * (weights @ basis.profiles[a])
    if not np.any(th != 0):
        return denom, 0.0
    return denom, lorentz_quasinorm(polar_sample_set(basis.rho[1:], th[1:],
                                                     dim), LorentzParams(p, p))


def shell_operator_lower_bound(dim, p, r_grid, kernel, budget, spread_radii,
                               seed=0):
    """Lower bound for the L^p norm of the shell superposition operator.

    Witnesses are separable h(y, r) = u(y) w(r) with u a fixed spread bump
    and w piecewise constant on the shell grid; three families are cycled:
    single shells, coherent power profiles w(r) = r^beta, and random-sign
    profiles.  The output field of every witness is radial, so norms are
    evaluated in polar coordinates; no d-dimensional grid is involved.
    The steps run on ``opnorm._search``, serially, and skip repeats.
    """
    LorentzParams(p, p)   # checked before any witness divides by p
    r_grid = np.asarray(r_grid, dtype=float)
    if len(r_grid) > MAX_SHELLS:
        raise BudgetError(f"{len(r_grid)} shells exceed the cap {MAX_SHELLS}")
    if len(r_grid) == 0 or not np.all(np.isfinite(r_grid)) \
            or np.any(r_grid < 1.0):
        raise DomainError("shell radii must be finite and start at 1")
    if not spread_radii or not all(0.0 < a < math.inf
                                   for a in spread_radii):
        raise DomainError(f"spread radii must be positive and finite, got "
                          f"{list(spread_radii)}")
    rng = np.random.default_rng(seed)
    basis = _build_shell_basis(dim, r_grid, kernel, spread_radii)
    nsh = len(r_grid)
    betas = [0.0, -(dim - 1) / p, -(dim - 1), 1.0 - dim / p]

    def propose(step, best):
        # the draws of the random-sign steps come in step order
        kind = step % 3
        if kind == 0:
            spec = {"family": "single_shell",
                    "params": {"index": (step // 3) % nsh}}
        elif kind == 1:
            spec = {"family": "coherent_profile",
                    "params": {"beta": betas[(step // 3) % len(betas)]}}
        else:
            spec = {"family": "random_signs",
                    "params": {"beta": betas[int(rng.integers(0, len(betas)))],
                               "signs": rng.choice([-1.0, 1.0],
                                                   size=nsh).tolist()}}
        spec["params"]["spread"] = spread_radii[step % len(spread_radii)]
        return spec

    best, spec, improvements = _search(
        propose, lambda worker, spec, beat: _shell_norms(basis, spec, p, dim),
        budget, 1, lambda: [])
    return OpNormEstimate(best, spec, p, float(p), budget, seed, improvements)


def shell_l1_ratios(dim, r_grid, kernel):
    """||psi * sigma_r||_1 r^-(d-1) over the shell grid (p = 1 diagnostics).

    The shells psi * sigma_r of the ``SmoothingKernel`` psi are its
    spherical means, from tables of its closed-form transform
    (``radial.SphericalMeans``).
    """
    out = {}
    w = kernel.support_radius
    shell = SphericalMeans(kernel.psi_hat, dim, (0.0, w),
                           kernel.radius0 / _TABLE_CELLS, kernel.band())
    for r in np.asarray(r_grid, dtype=float):
        window = np.linspace(max(r - w, 0.0), r + w, 513)
        # a window from the centre (r <= w) weighs it by rho^(d-1) = 0
        vals = np.zeros(window.shape)
        vals[window > 0] = shell(r, window[window > 0])
        mass = surface_area(dim) * np.trapezoid(np.abs(vals)
                                                * window ** (dim - 1), window)
        out[float(r)] = float(mass / r ** (dim - 1))
    return out
