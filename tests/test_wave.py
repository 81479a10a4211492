import functools
import json
import math

import numpy as np
import pytest

from conemult import bumps, cli, radial, wave
from conemult.bessel import bessel_j_scaled, surface_area
from conemult.bumps import band_cutoff
from conemult.errors import BudgetError, DomainError
from conemult.radial import RadialProfile, SphericalMeans, radial_transform
from conemult.util import CubicSpline1D, panel_nodes
from conemult.wave import (SmoothingKernel, decompose, decompose_range,
                           shell_l1_ratios, shell_operator_lower_bound,
                           wave_kernel)
from reference import abel_far_per_row, shell_lower_bound_every_step


@pytest.fixture(scope="module")
def kernel2():
    # gentle parameters keep the transform inside desk-scale grids
    return SmoothingKernel(2, radius0=0.3, vanishing_order=2, bump_degree=8)


@pytest.fixture(scope="module")
def kernel3():
    return SmoothingKernel(3)


def _psi_means(kernel):
    """Spherical means psi * sigma_r of the table route, as ``shell_l1_ratios``
    takes them."""
    return SphericalMeans(kernel.psi_hat, kernel.dim,
                          (0.0, kernel.support_radius),
                          kernel.radius0 / wave._TABLE_CELLS, kernel.band())


# ---------------------------------------------------------------------------
# the quadrature route of the shell rows, kept as the oracle of the table
# route: psi splined from a quadrature of psi0 * psi0, each v_a = psi * u_a
# splined from a quadrature of psi * u_a, and spherical means by the
# angular window rule

# Samples of the psi spline, samples of each spread profile psi * u_a across
# its support (of width 4 r0 at most unless the vanishing order is below
# 2), and nodes of its outer integral.
_PSI_SAMPLES = 1025
_SPREAD_SAMPLES = 257
_SPREAD_NODES = 96


def radial_convolution_values(f, f_support, g, g_support, dim, rho,
                              s_nodes=48):
    """(f * g)(rho) for radial f, g on R^dim.

    Integrates s over the narrower of the two supports (convolution is
    symmetric, and a narrow support resolves a cancelling profile with few
    nodes) and the polar angle over the exact window where
    |rho e_1 - s omega| lies in the other support:

        (f*g)(rho) = |S^(d-2)| int f(s) s^(d-1)
                     int_window g(dist(rho,s,theta)) sin^(d-2)(theta) dtheta ds.
    """
    if g_support[1] - g_support[0] < f_support[1] - f_support[0]:
        f, f_support, g, g_support = g, g_support, f, f_support
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    out = np.zeros(rho.shape)
    xs, ws = np.polynomial.legendre.leggauss(s_nodes)
    s = 0.5 * (f_support[0] + f_support[1]) + 0.5 * (f_support[1] -
                                                     f_support[0]) * xs
    sw = 0.5 * (f_support[1] - f_support[0]) * ws
    fs = np.asarray(f(s), dtype=float) * s ** (dim - 1) * sw
    area = surface_area(dim - 1)
    rows = max(1, radial._BLOCK // (s_nodes * len(radial._GL64[0])))
    for lo in range(0, len(rho), rows):
        inner = radial._window_integral(g, g_support[0], g_support[1], dim,
                                        rho[lo:lo + rows, None], s)
        out[lo:lo + rows] = area * inner @ fs
    return out


def spherical_mean_values(f, f_support, r, rho, dim):
    """(f * sigma_r)(rho) for radial f supported in f_support on R^dim.

    sigma_r is the surface measure of the sphere of radius r, so

        (f * sigma_r)(rho) = r^(d-1) |S^(d-2)|
                             int_window f(dist(rho,r,theta)) sin^(d-2)(theta) dtheta;

    r and rho broadcast.
    """
    r, rho = np.broadcast_arrays(np.asarray(r, dtype=float),
                                 np.asarray(rho, dtype=float))
    shape = r.shape
    r, rho = r.ravel(), rho.ravel()
    inner = np.empty(r.shape)
    rows = max(1, radial._BLOCK // len(radial._GL64[0]))
    for lo in range(0, len(r), rows):
        inner[lo:lo + rows] = radial._window_integral(
            f, f_support[0], f_support[1], dim, rho[lo:lo + rows],
            r[lo:lo + rows])
    return (r ** (dim - 1) * surface_area(dim - 1) * inner).reshape(shape)


@functools.lru_cache(maxsize=None)
def _psi_spline(dim, radius0, vanishing_order, bump_degree, samples):
    kernel = SmoothingKernel(dim, radius0, vanishing_order, bump_degree)
    grid = np.linspace(0.0, kernel.support_radius, samples)
    vals = radial_convolution_values(
        kernel.psi0_profile, (0.0, kernel.radius0),
        kernel.psi0_profile, (0.0, kernel.radius0), dim, grid)
    return CubicSpline1D(grid, vals)


def _psi_profile(kernel, samples=_PSI_SAMPLES):
    """Radial spline of psi = psi0 * psi0 by quadrature (cached per kernel)."""
    return _psi_spline(kernel.dim, kernel.radius0, kernel.vanishing_order,
                       kernel.bump_degree, samples)


def shell_profile_values(kernel, r, rho):
    """(psi * sigma_r)(rho): the smoothed shell, supported in |rho - r| <= 2 r0."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    return spherical_mean_values(_psi_profile(kernel),
                                 (0.0, kernel.support_radius), r, rho,
                                 kernel.dim)


def _quadrature_spread_means(dim, kernel, a, psi_samples=_PSI_SAMPLES,
                             spread_samples=_SPREAD_SAMPLES,
                             spread_nodes=_SPREAD_NODES):
    """Spherical means of v_a = psi * u_a by quadrature, any d.

    v_a is splined on ``spread_samples`` points of its support; its outer
    integral runs over the narrow support of psi, on ``spread_nodes``
    nodes.  At the defaults, the psi spline and those nodes leave errors of
    up to 7.1e-4 of a row's peak in d = 2, 2.4e-3 in d = 3, 1.8e-3 in
    d = 4 and 0.21 in d = 5, where the rows cancel more.
    """
    w = kernel.support_radius
    grid = np.linspace(*wave._spread_support(kernel, a), spread_samples)
    v = CubicSpline1D(grid, radial_convolution_values(
        _psi_profile(kernel, psi_samples), (0.0, w), wave._ball_bump(a),
        (0.0, a), dim, grid, s_nodes=spread_nodes))
    return lambda r, rho: spherical_mean_values(v, (grid[0], grid[-1]), r,
                                                rho, dim)


def test_kernel_transform_closed_form_vs_quadrature(kernel3):
    # peak of |psi0_hat| sets the scale the quadrature noise floor lives on
    scan = np.geomspace(1.0, 2000.0, 2000)
    peak = np.abs(kernel3.psi0_hat(scan)).max()
    rho = np.array([0.0, 1.0, 5.0, 20.0, 60.0, 150.0, 267.0])
    quad = radial_transform(kernel3.psi0_profile, 3, radii=rho,
                            support=(0.0, kernel3.radius0))
    closed = kernel3.psi0_hat(rho)
    assert np.allclose(quad.values.real, closed, rtol=1e-8,
                       atol=1e-8 * peak)
    # psi = psi0 * psi0 on the transform side, by the convolution theorem
    assert np.allclose(kernel3.psi_hat(rho), closed ** 2, rtol=1e-12)


def test_kernel_spatial_profile_consistent_with_transform(kernel2):
    # forward transform of the self-convolution profile vs psi0_hat^2
    psi = _psi_profile(kernel2)
    rho = np.array([0.0, 2.0, 10.0, 25.0])
    quad = radial_transform(lambda r: psi(r), 2, radii=rho,
                            support=(0.0, kernel2.support_radius))
    want = kernel2.psi_hat(rho)
    assert np.allclose(quad.values.real, want,
                       atol=1e-5 * np.abs(want).max())


def test_kernel_moment_vanishing_order(kernel3):
    # psi0_hat ~ rho^(2M) near zero: the log-log slope at small rho is 2M
    rho = np.array([1e-4, 2e-4])
    vals = np.abs(kernel3.psi0_hat(rho))
    slope = math.log(vals[1] / vals[0]) / math.log(2.0)
    assert abs(slope - 2 * kernel3.vanishing_order) <= 0.01


def test_kernel_band_margin_validation():
    with pytest.raises(DomainError):
        SmoothingKernel(3, radius0=4.0, vanishing_order=2, bump_degree=8)


def test_kernel_degree_validation():
    with pytest.raises(DomainError):
        SmoothingKernel(3, vanishing_order=8, bump_degree=16)


def test_sigma_superposition_has_radial_density():
    # int g d(int omega(rho) sigma_rho drho) = int g(x) omega(|x|) dx:
    # left side via independent angular quadrature of the sphere average
    from conemult.bumps import smooth_window
    omega = lambda r: smooth_window(np.asarray(r, float), 0.6, 0.9, 1.4, 1.8)
    g = lambda r: np.cos(2.0 * r) * np.exp(-0.5 * r ** 2)
    for d in (2, 3):
        rr = np.linspace(0.5, 2.0, 1001)
        # sphere average of a radial g is g itself; the measure weight is
        # rho^(d-1) |S^(d-1)|, which is what the density route integrates
        lhs = np.trapezoid(omega(rr) * rr ** (d - 1) * surface_area(d) * g(rr),
                           rr)
        rhs = np.trapezoid(g(rr) * omega(rr) * surface_area(d)
                           * rr ** (d - 1), rr)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)
    # the nontrivial content: a nonradial test function on R^2
    d = 2
    thetas = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    g2 = lambda x, y: np.exp(-0.5 * (x - 0.3) ** 2 - 0.4 * y ** 2)
    rr = np.linspace(0.5, 2.0, 801)
    sphere_avg = np.array([
        np.mean(g2(r * np.cos(thetas), r * np.sin(thetas))) for r in rr])
    lhs = np.trapezoid(omega(rr) * rr ** (d - 1) * surface_area(d)
                       * sphere_avg, rr)
    # density route: 2-d quadrature of g2(x) omega(|x|)
    xs = np.linspace(-2.2, 2.2, 1201)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    R = np.hypot(X, Y)
    img = g2(X, Y) * omega(R) * ((R >= 0.0))
    rhs = np.trapezoid(np.trapezoid(img, xs, axis=1), xs)
    assert abs(lhs - rhs) <= 5e-5 * abs(lhs)


def test_wave_kernel_peaks_on_unit_sphere():
    prof = wave_kernel(3, 3, radii=np.linspace(0.01, 4.0, 500))
    peak = prof.radii[np.argmax(np.abs(prof.values))]
    assert abs(peak - 1.0) <= 0.1


def _inverse_wave(n, dim, theta, sign, radii):
    """K_n of the symbol exp(i sign r) theta(2^-n r), by the route of
    ``wave_kernel``: ``radial.inverse_radial`` on the scale-n band."""
    band, margin = wave._wave_grid(n)
    a = 2.0 ** n / 8.0

    def symbol(s):
        out = np.zeros(s.shape, dtype=complex)
        inside = (s > a) & (s < band)
        si = s[inside]
        out[inside] = np.exp(1j * sign * si) * theta(si / 2.0 ** n)
        return out
    return radial.inverse_radial(symbol, dim, np.asarray(radii, dtype=float),
                                 band, margin)


def test_wave_kernel_linear_in_cutoff():
    radii = np.linspace(0.2, 3.0, 40)
    th1 = lambda s: band_cutoff(s)
    th2 = lambda s: 0.5 * band_cutoff(s) ** 2
    k1 = _inverse_wave(2, 2, th1, 1, radii)
    k2 = _inverse_wave(2, 2, th2, 1, radii)
    k12 = _inverse_wave(2, 2, lambda s: th1(s) + th2(s), 1, radii)
    assert np.allclose(k12, k1 + k2, rtol=1e-12)
    # the band cutoff at sign +1 is the wave kernel itself
    assert np.array_equal(k1, wave_kernel(2, 2, radii).values)


def test_wave_kernel_d3_matches_sine_kernel_oracle():
    # independent route: (2 pi)^-3 (4 pi / rho) * integral exp(ir) theta r
    # sin(r rho) dr by fine composite Simpson
    n = 3
    radii = np.array([0.6, 1.0, 1.4])
    prof = wave_kernel(n, 3, radii=radii)
    a, b = 2.0 ** n / 8.0, 2.0 ** n * 8.0
    r = np.linspace(a, b, 2 ** 17 + 1)
    h = r[1] - r[0]
    w = np.full(len(r), 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    base = np.exp(1j * r) * band_cutoff(r / 2.0 ** n) * r * (h / 3.0) * w
    for rho, got in zip(radii, prof.values):
        oracle = (2 * np.pi) ** -3 * (4 * np.pi / rho) \
            * np.sum(base * np.sin(r * rho))
        assert abs(got - oracle) <= 1e-6 * abs(oracle)


def _panel_wave_kernel(n, dim, theta=None, sign=1, radii=None,
                       nodes_per_period=16, panel_budget=2_000_000):
    """The Bessel panel-quadrature route for K_n, kept as the test oracle.

    K_n(x) = (2 pi)^(-d/2) integral exp(i sign r) theta(2^-n r)
             g_(d/2-1)(r |x|) r^(d-1) dr  over the band 2^n/8 < r < 2^n * 8,
    with Gauss-Legendre panels sized to the combined oscillation frequency
    1 + |x|, one node set per octave of radii.
    """
    theta = theta or bumps.band_cutoff
    if radii is None:
        radii = np.linspace(0.0, 8.0, 513)
    radii = np.asarray(radii, dtype=float)
    a, b = 2.0 ** n / 8.0, 2.0 ** n * 8.0
    nu = dim / 2.0 - 1.0
    pref = (2.0 * np.pi) ** (-dim / 2.0)
    values = np.empty(len(radii), dtype=complex)
    order = np.argsort(radii)
    lo = 0
    while lo < len(order):
        hi = lo
        rho_base = max(radii[order[lo]], 0.25)
        while hi < len(order) and radii[order[hi]] <= 2.0 * rho_base:
            hi += 1
        idx = order[lo:hi]
        rho_max = radii[idx].max()
        r, w = panel_nodes(a, b, 1.0 + rho_max, nodes_per_period, panel_budget)
        base = np.exp(1j * sign * r) * theta(r / 2.0 ** n) * r ** (dim - 1) * w
        for start in range(0, len(idx), 64):
            sub = idx[start:start + 64]
            args = radii[sub][:, None] * r[None, :]
            g = bessel_j_scaled(nu, args.ravel()).reshape(args.shape)
            values[sub] = pref * (g @ base)
        lo = hi
    return RadialProfile(radii, values, dim)


# At its default 16 nodes per period the panel route is itself off by up to
# 6e-7 of the peak at n = 2 (near rho = 0, against a 2^21-node Simpson rule
# of the d = 3 sine-kernel form); at 64 its error is below 1e-9 there.
ORACLE_NODES_PER_PERIOD = 64


def _oracle(n, dim, theta=None, sign=1, radii=None):
    return _panel_wave_kernel(n, dim, theta, sign, radii,
                              nodes_per_period=ORACLE_NODES_PER_PERIOD)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wave_kernel_matches_panel_oracle_on_decompose_grid(n, dim,
                                                            monkeypatch):
    dec = decompose(n, dim)
    radii = np.unique(np.concatenate([dec.annulus_rho, dec.error_rho]))
    want = _oracle(n, dim, radii=radii)

    def oracle_on_grid(n_, dim_, radii):
        assert np.array_equal(radii, want.radii)
        return want

    monkeypatch.setattr(wave, "wave_kernel", oracle_on_grid)
    ref = decompose(n, dim)
    got = wave_kernel(n, dim, radii=radii).values
    assert np.abs(got - want.values).max() <= 1e-7 * np.abs(want.values).max()
    assert math.isclose(dec.omega_l1, ref.omega_l1, rel_tol=1e-6)
    assert math.isclose(dec.error_sup, ref.error_sup, rel_tol=1e-4)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_wave_kernel_matches_panel_oracle_sign_and_cutoff(dim):
    # the route of wave_kernel, on the conjugate sign and a custom cutoff
    radii = np.concatenate([[0.0, 0.3], np.linspace(0.5, 2.0, 40),
                            [3.0, 5.5, 8.0]])
    custom = lambda s: bumps.smooth_window(s, 0.25, 0.75, 2.5, 6.0) ** 2
    for theta, sign in ((band_cutoff, -1), (custom, 1), (custom, -1)):
        got = _inverse_wave(3, dim, theta, sign, radii)
        want = _oracle(3, dim, theta, sign, radii).values
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()


def test_wave_kernel_budget_checked_before_work():
    # even d at scale 11 needs ~2e9 Abel multiply-adds, and nothing of its
    # 62910-point t-line is allocated; radii out to 1e6 need a t-grid far
    # beyond the cap
    import tracemalloc
    radii = np.linspace(0.0, 8.0, 513)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            wave_kernel(11, 4, radii)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 16
    finally:
        tracemalloc.stop()
    with pytest.raises(BudgetError):
        wave_kernel(3, 3, radii=np.array([0.0, 1e6]))


def _lattice_projection(symbol, dim, h, nt):
    """The (t, u) lattice route for P_d, kept as the oracle of the Abel rule.

    In even d, P_2(t) = 2 int_0^inf m(sqrt(t^2 + u^2)) du by the trapezoid
    rule in u, in the t-step h, on every t-row: nt * nt symbol samples.
    """
    t = h * np.arange(nt)
    if dim % 2:
        proj = symbol(t)
    else:
        wu = np.full(nt, 2.0 * h)
        wu[0] = h
        proj = np.empty(nt, dtype=complex)
        for lo in range(0, nt, 16):
            tt = t[lo:lo + 16, None]
            proj[lo:lo + 16] = symbol(np.sqrt(tt ** 2 + t ** 2)) @ wu
    for _ in range((dim - 1) // 2):
        proj = radial._walk(proj, h)
    return proj


def _matches_lattice(n, dim, monkeypatch):
    radii = wave.decompose_radii(n)[2]
    got = wave_kernel(n, dim, radii=radii).values
    with monkeypatch.context() as m:
        m.setattr(radial, "_line_projection", _lattice_projection)
        want = wave_kernel(n, dim, radii=radii).values
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_wave_kernel_abel_matches_lattice(n, dim, monkeypatch):
    # seen: at most 3.1e-13 of the peak
    assert _matches_lattice(n, dim, monkeypatch) <= 1e-8


@pytest.mark.slow
@pytest.mark.parametrize("n", [7, 8])
def test_wave_kernel_abel_matches_lattice_large_scales(n, monkeypatch):
    # seen: 6.2e-12 and 1.2e-12 of the peak; the lattice takes seconds
    assert _matches_lattice(n, 4, monkeypatch) <= 1e-8


@pytest.mark.parametrize("dim", [4, 6])
def test_wave_kernel_abel_far_blocks_match_the_per_row_route(dim,
                                                             monkeypatch):
    # the row blocks sum in another order than one row at a time, and the
    # walk to d = 6 amplifies the difference; seen: at most 1.6e-14 (d = 4)
    # and 1.6e-12 (d = 6) of the kernel's peak
    for n in range(2, 7):
        radii = wave.decompose_radii(n)[2]
        got = wave_kernel(n, dim, radii=radii).values
        with monkeypatch.context() as m:
            m.setattr(radial, "_abel_far", abel_far_per_row)
            want = wave_kernel(n, dim, radii=radii).values
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), n


def test_wave_kernel_abel_steps_are_pinned(abel_steps):
    # the wave symbol is resolved on the t-grid from n = 4 on; at n = 3
    # the cutoff's ramp, which leaves zero at |xi| = 1, takes a halved step
    for n in range(3, 7):
        wave_kernel(n, 4, radii=wave.decompose_radii(n)[2])
    assert abel_steps == [2, 1, 1, 1]


def test_wave_kernel_scale_budget():
    radii = np.linspace(0.0, 8.0, 513)
    with pytest.raises(DomainError):
        wave_kernel(13, 3, radii)
    with pytest.raises(DomainError):
        wave_kernel(0, 3, radii)


@pytest.mark.parametrize("n", range(1, 13))
def test_decompose_radii_union_is_the_unique_sort(n):
    # the sort and its predecessor mask stand in for np.unique, which
    # imports numpy.ma on its first call
    ann_rho, err_rho, radii = wave.decompose_radii(n)
    want = np.unique(np.concatenate([ann_rho, err_rho]))
    assert radii.dtype == want.dtype
    assert np.array_equal(radii, want)


def test_decompose_reconstruction_is_definitional():
    dec = decompose(3, 2)
    # omega_3 is the kernel on the annulus, times 2^(-n(d-1)/2)
    radii = wave.decompose_radii(3)[2]
    kernel = wave_kernel(3, 2, radii).values
    at = np.searchsorted(radii, dec.annulus_rho)
    assert np.array_equal(dec.omega, 2.0 ** (-3 / 2.0) * kernel[at])
    assert dec.omega_l1 > 0
    assert dec.error_sup > 0
    assert np.all(dec.annulus_rho > 0.5) and np.all(dec.annulus_rho < 2.0)


def test_decompose_range_uniform_l1_and_decay_small():
    decs, l1_ratio, rate = decompose_range(range(2, 5), 2)
    assert l1_ratio <= 3.0


def test_shell_profile_support_and_cancellation(kernel2):
    rr = np.linspace(0.2, 2.0, 600)
    vals = _psi_means(kernel2)(1.0, rr)
    w = kernel2.support_radius
    outside = (rr < 1.0 - w - 1e-6) | (rr > 1.0 + w + 1e-6)
    assert np.max(np.abs(vals[outside])) <= 1e-12 * np.abs(vals).max()
    mass = surface_area(2) * np.trapezoid(vals * rr, rr)
    assert abs(mass) <= 1e-8 * surface_area(2) * np.trapezoid(np.abs(vals)
                                                              * rr, rr)


def test_radial_convolution_against_planar_limit(kernel2):
    # directly computable case: (f * f)(0) is the L2 pairing; for
    # f = (1 - (s/a)^2)_+ in the plane the closed form is pi a^2 / 3
    d = 2
    a = 0.5
    f = lambda s: np.clip(1.0 - (np.asarray(s, float) / a) ** 2, 0, None)
    val0 = radial_convolution_values(f, (0.0, a), f, (0.0, a), d,
                                     np.array([0.0]))[0]
    want = math.pi * a ** 2 / 3.0
    assert math.isclose(val0, want, rel_tol=1e-12)


def test_single_shell_witness_normalization(kernel3):
    # machinery ratio for a one-shell witness == independently composed ratio
    r_grid = np.linspace(1.0, 4.0, 7)
    d, p = 3, 1.3
    est = shell_operator_lower_bound(d, p, r_grid, kernel=kernel3, budget=1,
                                     seed=0, spread_radii=(0.5,))
    assert est.witness["family"] == "single_shell"
    j = est.witness["params"]["index"]
    a = est.witness["params"]["spread"]
    from conemult.wave import _ball_lp, _build_shell_basis
    from conemult.characterize import polar_sample_set
    from conemult.lorentz import LorentzParams, lorentz_quasinorm
    basis = _build_shell_basis(d, r_grid, kernel3, (a,))
    dr = r_grid[1] - r_grid[0]
    th = dr * basis.profiles[a][j]
    num = lorentz_quasinorm(polar_sample_set(basis.rho[1:], th[1:], d),
                            LorentzParams(p, p))
    denom = _ball_lp(a, d, p) * (r_grid[j] ** (d - 1) * dr) ** (1.0 / p)
    assert math.isclose(est.lower_bound, num / denom, rel_tol=1e-12)


def test_shell_l1_ratios_uniformly_bounded(kernel3):
    ratios = shell_l1_ratios(3, np.linspace(1.0, 16.0, 6), kernel3)
    vals = list(ratios.values())
    assert max(vals) / min(vals) <= 1.2
    assert max(vals) <= 10.0


def test_shell_cap_enforced(kernel3):
    with pytest.raises(BudgetError):
        shell_operator_lower_bound(3, 1.2, np.linspace(1, 16, 80),
                                   kernel=kernel3, budget=60,
                                   spread_radii=(0.25, 0.5, 1.0))


def _sph_probe_kernel(dim):
    """``sph-probe``'s kernel at its default options."""
    opts = {key: default for key, (default, _, _)
            in cli.DEFAULTS["sph-probe"].items()}
    return SmoothingKernel(dim, radius0=opts["radius0"],
                           vanishing_order=opts["vanishing_order"])


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("r_hi, shells, budget", [(8.0, 16, 36),
                                                  (16.0, 64, 200)])
def test_shell_search_equals_the_loop_of_every_step(dim, r_hi, shells,
                                                    budget):
    # sph-probe's defaults, and its run at 64 shells with budget 200
    kernel = _sph_probe_kernel(dim)
    r_grid = np.linspace(1.0, r_hi, shells)
    args = (dim, 1.2, r_grid, kernel, budget, (0.25, 1.0), 7)
    # == on every field of the two OpNormEstimates
    assert shell_operator_lower_bound(*args) == \
        shell_lower_bound_every_step(*args)


def test_shell_search_evaluates_each_distinct_witness_once(monkeypatch):
    calls = []
    norms = wave._shell_norms

    def counted(basis, spec, p, dim):
        calls.append(repr(spec))
        return norms(basis, spec, p, dim)
    monkeypatch.setattr(wave, "_shell_norms", counted)
    shell_operator_lower_bound(3, 1.2, np.linspace(1.0, 8.0, 16),
                               _sph_probe_kernel(3), 36, (0.25, 1.0), 7)
    # the 12 coherent steps take 4 (beta, spread) pairs: beta's index
    # (step // 3) % 4 fixes the parity of step, which picks the spread
    assert len(calls) == len(set(calls)) == 28


@pytest.mark.slow
def test_shell_bound_stable_under_rmax_doubling():
    d, p = 4, 1.15
    bounds = {}
    for rmax, nsh in ((8.0, 32), (16.0, 64)):
        est = shell_operator_lower_bound(d, p, np.linspace(1.0, rmax, nsh),
                                         SmoothingKernel(d), budget=36,
                                         spread_radii=(0.25, 0.5, 1.0),
                                         seed=7)
        bounds[rmax] = est.lower_bound
    assert abs(bounds[16.0] - bounds[8.0]) <= 0.2 * bounds[8.0]


# ---------------------------------------------------------------------------
# shell basis by associativity, against the direct route


class _SampledRadial:
    """Spline of a radial profile, zero outside its declared support."""

    def __init__(self, grid, values, support):
        self._spline = CubicSpline1D(grid, np.asarray(values, dtype=float))
        self.support = support

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = self._spline(np.clip(r, self.support[0], self.support[1]))
        return np.where((r >= self.support[0]) & (r <= self.support[1]),
                        out, 0.0)


def _direct_convolution_values(f, f_support, g, g_support, dim, rho,
                               s_nodes=48, theta_nodes=64, chunk=256):
    """(f * g)(rho) for radial f, g on R^dim.

    Integrates s over the support ball/shell of f and the polar angle over
    the exact window where |rho e_1 - s omega| lies in the support of g:

        (f*g)(rho) = |S^(d-2)| int f(s) s^(d-1)
                     int_window g(dist(rho,s,theta)) sin^(d-2)(theta) dtheta ds.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    out = np.zeros(rho.shape)
    xs, ws = np.polynomial.legendre.leggauss(s_nodes)
    s = 0.5 * (f_support[0] + f_support[1]) + 0.5 * (f_support[1] -
                                                     f_support[0]) * xs
    sw = 0.5 * (f_support[1] - f_support[0]) * ws
    fs = np.asarray(f(s), dtype=float) * s ** (dim - 1) * sw
    xt, wt = np.polynomial.legendre.leggauss(theta_nodes)
    glo, ghi = g_support
    area = surface_area(dim - 1)
    for start in range(0, len(rho), chunk):
        rr = rho[start:start + chunk][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = 2.0 * rr * s[None, :]
            cos_hi = np.where(denom > 0, (rr ** 2 + s[None, :] ** 2 - glo ** 2)
                              / denom, np.inf)
            cos_lo = np.where(denom > 0, (rr ** 2 + s[None, :] ** 2 - ghi ** 2)
                              / denom, -np.inf)
        # note cos decreasing in theta: dist = glo at the smaller angle
        th_lo = np.arccos(np.clip(cos_hi, -1.0, 1.0))
        th_hi = np.arccos(np.clip(cos_lo, -1.0, 1.0))
        # degenerate center: dist is the constant sqrt(rho^2+s^2)
        degenerate = denom <= 0
        if np.any(degenerate):
            const = np.sqrt(rr ** 2 + s[None, :] ** 2)
            inside = (const >= glo) & (const <= ghi)
            th_lo = np.where(degenerate, 0.0, th_lo)
            th_hi = np.where(degenerate, np.where(inside, np.pi, 0.0), th_hi)
        half = 0.5 * (th_hi - th_lo)
        theta = th_lo[..., None] + half[..., None] * (xt + 1.0)
        wth = half[..., None] * wt
        dist = np.sqrt(np.maximum(rr[..., None] ** 2 + s[None, :, None] ** 2
                                  - 2.0 * rr[..., None] * s[None, :, None]
                                  * np.cos(theta), 0.0))
        gv = np.asarray(g(dist.ravel()), dtype=float).reshape(dist.shape)
        inner = np.sum(gv * np.sin(theta) ** (dim - 2) * wth, axis=-1)
        out[start:start + chunk] = area * inner @ fs
    return out


def _direct_shell_rows(dim, r_grid, kernel, a, rho, s_nodes=48,
                       theta_nodes=64, chunk=256):
    """Rows u_a * (psi * sigma_r) by the direct route the basis used to take.

    Each shell psi * sigma_r is splined on 257 points, then convolved with
    the spread bump u_a, integrating over the support of u_a.
    """
    w = kernel.support_radius
    rows = np.zeros((len(r_grid), len(rho)))
    for j, r in enumerate(r_grid):
        window = np.linspace(max(r - w, 0.0) - 1e-9, r + w + 1e-9, 257)
        shell = _SampledRadial(window, shell_profile_values(kernel, r, window),
                               (window[0], window[-1]))
        sel = (rho >= r - w - a - 0.1) & (rho <= r + w + a + 0.1)
        rows[j, sel] = _direct_convolution_values(
            wave._ball_bump(a), (0.0, a), shell, shell.support, dim, rho[sel],
            s_nodes, theta_nodes, chunk)
    return rows


def _row_lp(rows, rho, dim, p):
    return np.sum(np.abs(rows) ** p * rho ** (dim - 1), axis=-1) ** (1.0 / p)


@pytest.mark.slow
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_shell_basis_matches_direct_route(dim):
    r_grid = np.array([1.0, 4.0, 16.0])
    a = 0.25
    kernel = SmoothingKernel(dim)
    basis = wave._build_shell_basis(dim, r_grid, kernel, (a,))
    direct = _direct_shell_rows(dim, r_grid, kernel, a, basis.rho,
                                s_nodes=384, theta_nodes=256, chunk=8)
    new = _row_lp(basis.profiles[a], basis.rho, dim, 1.2)
    old = _row_lp(direct, basis.rho, dim, 1.2)
    assert np.all(np.abs(new - old) <= 1e-2 * old), (new, old)


def test_shell_basis_plateau_vanishes_in_dim3(kernel3):
    # inside |rho - r| < a - w the sphere of radius rho meets all of the
    # support of psi * u_a, and in d = 3 that spherical mean is
    # (2 pi r / rho) int v_a(s) s ds = 0 by the vanishing moments of psi
    r_grid = np.array([1.0, 4.0, 16.0])
    a = 1.0
    basis = wave._build_shell_basis(3, r_grid, kernel3, (a,))
    inner = a - kernel3.support_radius - 0.05
    for r, row in zip(r_grid, basis.profiles[a]):
        plateau = np.abs(basis.rho - r) < inner
        assert np.abs(row[plateau]).max() <= 5e-3 * np.abs(row).max(), r


def test_spherical_mean_dim3_closed_form():
    # (f * sigma_r)(rho) = (2 pi r / rho) int_|rho-r|^(rho+r) f(s) s ds in d = 3
    lo, hi = 0.75, 1.25
    poly = np.polynomial.Polynomial.fromroots([lo, lo, hi, hi])
    f = lambda s: np.where((s >= lo) & (s <= hi), poly(s), 0.0)
    anti = (poly * np.polynomial.Polynomial([0.0, 1.0])).integ()
    r = np.array([0.5, 1.0, 3.0])[:, None]
    rho = np.linspace(0.0, 4.5, 301)[None, :]
    got = spherical_mean_values(f, (lo, hi), r, rho, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.clip(np.abs(rho - r), lo, hi)
        b = np.clip(rho + r, lo, hi)
        want = np.where(rho > 0, 2.0 * np.pi * r / rho * (anti(b) - anti(a)),
                        4.0 * np.pi * r ** 2 * f(r))
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_radial_convolution_argument_order_agrees(kernel3):
    # psi * u_a with either argument first: the outer integral runs over the
    # narrow support of psi, which resolves the cancellation of psi
    d, w = 3, kernel3.support_radius
    psi = _psi_profile(kernel3)
    for a in (0.05, 1.0):
        grid = np.linspace(max(a - w, 0.0), a + w, 65)
        u = wave._ball_bump(a)
        fg = radial_convolution_values(psi, (0.0, w), u, (0.0, a), d, grid)
        gf = radial_convolution_values(u, (0.0, a), psi, (0.0, w), d, grid)
        ref = radial_convolution_values(psi, (0.0, w), u, (0.0, a), d, grid,
                                        s_nodes=192)
        scale = np.abs(ref).max()
        assert np.abs(fg - gf).max() <= 1e-12 * scale
        assert np.abs(fg - ref).max() <= 1e-2 * scale, a


def test_shell_basis_without_vanishing_moments():
    # M = 0: psi * u_a does not vanish inside the ball, and nothing cancels,
    # so the direct route at its default nodes is accurate
    kernel = SmoothingKernel(3, vanishing_order=0)
    r_grid = np.array([1.0, 4.0])
    a = 0.25
    basis = wave._build_shell_basis(3, r_grid, kernel, (a,))
    direct = _direct_shell_rows(3, r_grid, kernel, a, basis.rho)
    scale = np.abs(direct).max(axis=1, keepdims=True)
    assert np.all(np.abs(basis.profiles[a] - direct) <= 1e-6 * scale)


# ---------------------------------------------------------------------------
# shell rows from closed-form symbols, against the quadrature route


def _quadrature_rows(dim, r_grid, kernel, a, rho, **nodes):
    """Rows of the basis by the quadrature route, on the basis's pairs."""
    means = _quadrature_spread_means(dim, kernel, a, **nodes)
    shell, k = np.nonzero(np.abs(rho - r_grid[:, None])
                          <= a + kernel.support_radius)
    rows = np.zeros((len(r_grid), len(rho)))
    rows[shell, k] = means(r_grid[shell], rho[k])
    return rows


def _refine_closed_form(monkeypatch):
    """Double the band, halve the table step and the t-step of the tables."""
    band = SmoothingKernel.band
    monkeypatch.setattr(SmoothingKernel, "band",
                        lambda self: 2.0 * band(self))
    monkeypatch.setattr(wave, "_TABLE_CELLS", 2 * wave._TABLE_CELLS)
    inverse = radial.inverse_radial
    monkeypatch.setattr(
        radial, "inverse_radial",
        lambda symbol, dim, radii, band, margin: inverse(
            symbol, dim, radii, band, 2.0 * radii.max() + 2.0 * margin))


def _peak_error(rows, ref):
    return (np.abs(rows - ref).max(axis=1) / np.abs(ref).max(axis=1)).max()


@pytest.mark.parametrize("a", [0.25, 1.0])
def test_closed_form_rows_match_quadrature_route_dim3(kernel3, a):
    # the quadrature route at its own nodes is off by up to 2.4e-3 of a
    # row's peak (a = 1), the closed-form route by about 1e-10
    r_grid = np.array([1.0, 4.0, 16.0])
    basis = wave._build_shell_basis(3, r_grid, kernel3, (a,))
    oracle = _quadrature_rows(3, r_grid, kernel3, a, basis.rho[1:])
    assert _peak_error(basis.profiles[a][:, 1:], oracle) <= 5e-3


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("a", [0.25, 1.0])
def test_window_rows_match_quadrature_route_even_dim(dim, a):
    # in even d the rows come from the window rule on the spline of one
    # table; the quadrature route at its own nodes is off by up to 1.8e-3
    # of a row's peak (d = 4, a = 1) and 7.1e-4 (d = 2), the table route by
    # at most 7e-7 (its 64 angular nodes against 256)
    kernel = SmoothingKernel(dim)
    r_grid = np.array([1.0, 4.0, 16.0])
    basis = wave._build_shell_basis(dim, r_grid, kernel, (a,))
    oracle = _quadrature_rows(dim, r_grid, kernel, a, basis.rho[1:])
    assert _peak_error(basis.profiles[a][:, 1:], oracle) <= 5e-3


@pytest.mark.slow
@pytest.mark.parametrize("a", [0.25, 1.0])
def test_closed_form_rows_match_refined_quadrature_route_dim5(a):
    # in d = 5 the rows cancel more: at its own nodes the quadrature route
    # is off by up to 0.21 of a row's peak (a = 1, r = 16), so the oracle
    # is that route with a 4097-point psi, 192 outer nodes and 1025 samples
    # of v_a, which brings it within 6.1e-4
    kernel = SmoothingKernel(5)
    r_grid = np.array([1.0, 4.0, 16.0])
    basis = wave._build_shell_basis(5, r_grid, kernel, (a,))
    oracle = _quadrature_rows(5, r_grid, kernel, a, basis.rho[1:],
                              psi_samples=4097, spread_nodes=192,
                              spread_samples=1025)
    assert _peak_error(basis.profiles[a][:, 1:], oracle) <= 5e-3


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_closed_form_rows_converged(monkeypatch, dim):
    kernel = SmoothingKernel(dim)
    r_grid = np.array([1.0, 4.0, 16.0])
    spreads = (0.25, 1.0)
    basis = wave._build_shell_basis(dim, r_grid, kernel, spreads)
    _refine_closed_form(monkeypatch)
    fine = wave._build_shell_basis(dim, r_grid, kernel, spreads)
    for a in spreads:
        assert _peak_error(basis.profiles[a], fine.profiles[a]) <= 1e-7, a


@pytest.mark.parametrize("dim", [2, 4])
def test_window_rows_converged_in_angular_nodes(monkeypatch, dim):
    # even d integrates each row over its angular window with 64
    # Gauss-Legendre nodes; 256 nodes move a row by at most 6.9e-7 of its
    # peak (d = 2, a = 1) and 4.4e-7 (d = 4)
    kernel = SmoothingKernel(dim)
    r_grid = np.array([1.0, 4.0, 16.0])
    basis = wave._build_shell_basis(dim, r_grid, kernel, (1.0,))
    monkeypatch.setattr(radial, "_GL64",
                        np.polynomial.legendre.leggauss(256))
    fine = wave._build_shell_basis(dim, r_grid, kernel, (1.0,))
    rows, ref = basis.profiles[1.0], fine.profiles[1.0]
    # a row's peak is its sup over rho >= 0: the row at r = 1 peaks at the
    # centre, where it is not taken, so its limit there joins the peak
    peak = np.maximum(np.abs(ref).max(axis=1),
                      np.abs(_centre_limits(dim, kernel, 1.0, r_grid)))
    assert (np.abs(rows - ref).max(axis=1) / peak).max() <= 1e-6


def _centre_limits(dim, kernel, a, r_grid):
    """(v_a * sigma_r)(0) = |S^(d-1)| r^(d-1) v_a(r) of each shell radius r,
    v_a(r) from a direct transform."""
    v = radial.inverse_radial(
        lambda s: kernel.psi_hat(s) * wave._bump_hat(dim, 2, a, s), dim,
        r_grid, kernel.band(), 8.0).real
    return surface_area(dim) * r_grid ** (dim - 1) * v


@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("order, tol", [(0, 1e-6), (1, 5e-3)])
def test_closed_form_rows_without_enough_vanishing_moments(dim, order, tol):
    # M < 2: v_a does not vanish inside the ball, so its tables start at 0
    # and the rows do not vanish on the plateau |rho - r| < a - w
    kernel = SmoothingKernel(dim, vanishing_order=order)
    r_grid = np.array([1.0, 4.0])
    w = kernel.support_radius
    for a in (0.25, 1.0):
        basis = wave._build_shell_basis(dim, r_grid, kernel, (a,))
        rows = basis.profiles[a][:, 1:]
        oracle = _quadrature_rows(dim, r_grid, kernel, a, basis.rho[1:])
        assert _peak_error(rows, oracle) <= tol, a
        plateau = np.abs(basis.rho[1:] - r_grid[1]) < a - w - 0.05
        assert np.abs(rows[1, plateau]).max() >= 1e-2 * np.abs(rows[1]).max()


def test_closed_form_shell_l1_ratios_match_quadrature(kernel3):
    r_grid = np.array([1.0, 4.0, 16.0])
    got = shell_l1_ratios(3, r_grid, kernel3)
    w = kernel3.support_radius
    for r in r_grid:
        window = np.linspace(r - w, r + w, 513)
        vals = shell_profile_values(kernel3, r, window)
        mass = surface_area(3) * np.trapezoid(np.abs(vals) * window ** 2,
                                              window)
        assert math.isclose(got[float(r)], mass / r ** 2, rel_tol=1e-6)


def _exact_spread_profile(kernel, a, rhos):
    """v_a = psi * u_a in d = 3 at 50 digits, from piecewise polynomials.

    In d = 3, (f * g)(rho) = (2 pi / rho) int f(s) s [G(rho + s) - G(|rho - s|)] ds
    with G(x) = int_0^x g(t) t dt.  psi0, G0 and u_a's G are polynomials on
    their supports, so psi (2 pieces) and then v_a are integrals of
    polynomials between known breakpoints, which 32-node Gauss-Legendre
    rules take exactly.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 50
    nodes, weights = mp.gauss_quadrature(32, "legendre")

    def integral(f, lo, hi, breaks):
        pts = sorted({lo, hi, *[b for b in breaks if lo < b < hi]})
        total = mp.mpf(0)
        for x0, x1 in zip(pts[:-1], pts[1:]):
            half, mid = (x1 - x0) / 2, (x1 + x0) / 2
            total += half * sum(w * f(mid + half * x)
                                for x, w in zip(nodes, weights))
        return total

    def poly(coeffs, x):
        acc = mp.mpf(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    r0, a = mp.mpf(kernel.radius0), mp.mpf(a)
    c = [mp.mpf(float(x)) for x in kernel._psi0_coeffs]  # in u = s^2
    g = [cj / (2 * j + 2) for j, cj in enumerate(c)]      # G0 / x^2

    def psi0(s):
        return poly(c, s * s) if s <= r0 else mp.mpf(0)

    def big_g0(x):
        y = min(abs(x), r0)
        return poly(g, y * y) * y * y

    def s_psi(s):            # s psi(s)
        return 2 * mp.pi * integral(
            lambda t: psi0(t) * t * (big_g0(s + t) - big_g0(s - t)),
            mp.mpf(0), r0, (r0 - s, s - r0))

    def big_u(x):
        y = min(abs(x), a)
        return y ** 2 / 2 - y ** 4 / (2 * a * a) + y ** 6 / (6 * a ** 4)

    out = []
    for rho in rhos:
        rho = mp.mpf(float(rho))
        val = integral(lambda s: s_psi(s) * (big_u(rho + s) - big_u(rho - s)),
                       mp.mpf(0), 2 * r0, (r0, a - rho, rho - a, rho + a))
        out.append(float(2 * mp.pi / rho * val))
    return np.array(out)


@pytest.mark.slow
@pytest.mark.parametrize("a", [0.25, 1.0])
def test_closed_form_spread_profile_matches_exact_convolution(kernel3, a):
    means = wave._spread_means(3, kernel3, a)
    x = means.lo + means.step * np.arange(len(means.values))
    idx = np.searchsorted(x, [a - 0.05, a, a + 0.04])
    exact = _exact_spread_profile(kernel3, a, x[idx])
    peak = np.abs(means.values).max()
    assert np.abs(means.values[idx] - exact).max() <= 1e-7 * peak
    assert np.abs(exact).min() >= 1e-3 * peak


# Default sph-probe bounds (d = 3, and d = 4 for the window rule of even d)
# from a run with twice the band, half the table step and half the t-step of
# the table route.
_PINNED_BOUNDS = {(): 1.108153554268738e-06,
                  ("--shells", "64", "--r-hi", "16"): 1.0814941629162192e-06,
                  ("--dim", "4"): 1.614006361775632e-07}


@pytest.mark.parametrize("args", list(_PINNED_BOUNDS))
def test_default_sph_probe_bound_is_pinned(tmp_path, args):
    from conemult.cli import main
    out = tmp_path / "s"
    assert main(["sph-probe", *args, "--out", str(out)]) == 0
    with open(out / "summary.json") as fh:
        bound = json.load(fh)["estimate"]["lower_bound"]
    assert math.isclose(bound, _PINNED_BOUNDS[args], rel_tol=1e-8)
