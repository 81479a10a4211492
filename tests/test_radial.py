import math

import numpy as np
import pytest

from conemult import characterize, radial, wave
from conemult.bessel import surface_area
from conemult.bumps import smooth_window, tent_profile
from conemult.characterize import LineSamples
from conemult.cli import KERNEL_SUPPORT
from conemult.errors import BudgetError, DomainError
from conemult.lorentz import (WeightedSampleSet, decreasing_rearrangement,
                              subset_rearrangements)
from conemult.radial import (RadialProfile, SphericalMeans, fourier_1d,
                             inverse_radial, radial_transform, space_grid)
from conemult.util import dyadic_envelope_fit, next_pow2, panel_nodes
from reference import (abel_samples_resampled, plancherel_radial,
                       radial_transform_per_radius, sphere_hat)


def test_tent_transform_closed_form():
    tent = lambda s: np.clip(1.0 - np.abs(s), 0.0, None)
    sigma, vals = fourier_1d(tent, 8.0, 2 ** 14)
    keep = (np.abs(sigma) <= 128) & (np.abs(sigma) > 1e-9)
    exact = (np.sin(sigma[keep] / 2) / (sigma[keep] / 2)) ** 2
    assert np.max(np.abs(vals[keep] - exact)) <= 1e-6


def test_zero_transforms_to_zero():
    sigma, vals = fourier_1d(lambda s: np.zeros_like(s), 4.0, 2 ** 10)
    assert np.max(np.abs(vals)) == 0.0


def test_gaussian_self_transform_1d():
    sigma, vals = fourier_1d(lambda s: np.exp(-0.5 * s ** 2), 10.0, 2 ** 12)
    keep = np.abs(sigma) <= 10
    exact = math.sqrt(2 * math.pi) * np.exp(-0.5 * sigma[keep] ** 2)
    assert np.max(np.abs(vals[keep] - exact)) <= 1e-8


def test_fourier_1d_linearity():
    f = lambda s: np.exp(-s ** 2)
    g = lambda s: np.clip(1 - np.abs(s), 0, None)
    s1, v1 = fourier_1d(f, 6.0, 2 ** 10)
    _, v2 = fourier_1d(g, 6.0, 2 ** 10)
    _, v12 = fourier_1d(lambda s: 2 * f(s) - 3 * g(s), 6.0, 2 ** 10)
    assert np.allclose(v12, 2 * v1 - 3 * v2, atol=1e-12)


def test_real_even_gives_real_even():
    sigma, vals = fourier_1d(lambda s: np.exp(-np.abs(s)) * (1 + s ** 2) ** -1,
                             24.0, 2 ** 13)
    assert np.max(np.abs(vals.imag)) <= 1e-10 * np.max(np.abs(vals.real))
    half = len(sigma) // 2
    # sigma grid is asymmetric by one bin; compare matched pairs, which a
    # real profile's line makes exact conjugates
    assert np.array_equal(vals[half + 1:], np.conj(vals[1:half][::-1]))


def _complex_fourier_1d(f, truncation, resolution, buffers=None):
    """The complex-FFT route fourier_1d took for every profile (oracle).

    It takes ``buffers`` as ``fourier_1d`` does, so that it can stand in
    for it in a scan, and returns new arrays all the same.
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


# a smooth bump, an off-centre kink and a one-sided edge profile: no
# transform of these is real, and the last decays slowly
_REAL_PROFILES = [
    lambda s: np.exp(-s ** 2) + np.clip(1.0 - np.abs(s - 0.3), 0, None),
    lambda s: np.where(s < 0, np.abs(s) ** 0.7 * np.exp(-s ** 2), 0.0),
]


@pytest.mark.parametrize("f", _REAL_PROFILES)
def test_complex_samples_take_the_complex_route_bit_for_bit(f):
    g = lambda s: f(s) * np.exp(1j * 3.0 * s)
    for k in range(1, 15):
        sigma, vals = fourier_1d(g, 3.0, 2 ** k)
        sigma0, vals0 = _complex_fourier_1d(g, 3.0, 2 ** k)
        assert np.array_equal(sigma, sigma0)
        assert np.array_equal(vals, vals0)


@pytest.mark.parametrize("f", _REAL_PROFILES)
def test_real_samples_match_the_complex_route(f):
    for k in range(1, 17):
        n = 2 ** k
        sigma, vals = fourier_1d(f, 3.0, n)
        sigma0, vals0 = _complex_fourier_1d(f, 3.0, n)
        assert np.array_equal(sigma, sigma0)
        assert np.max(np.abs(vals - vals0)) <= 1e-12 * np.max(np.abs(vals0))
        # exactly Hermitian: values(-sigma_m) = conj(values(sigma_m))
        m = np.arange(1, n // 2)
        assert np.array_equal(vals[n // 2 - m], np.conj(vals[n // 2 + m]))
        assert vals[n // 2].imag == 0.0 and vals[0].imag == 0.0


def _separate_spectrum_mirror(samples, truncation):
    """The real FFT into an array of its own, mirrored into a new line:
    the route fourier_1d took for real samples before it mirrored in
    place (oracle)."""
    n = len(samples)
    vals = np.fft.rfft(samples)
    vals *= 2.0 * truncation / n
    odd = vals[1::2]
    np.negative(odd, out=odd)
    mid = n // 2
    out = np.empty(n, dtype=complex)
    out[mid:] = vals[:mid]
    np.conjugate(vals[mid:0:-1], out=out[:mid])
    return out


@pytest.mark.parametrize("f", _REAL_PROFILES)
def test_in_place_mirror_equals_the_separate_spectrum(f):
    for k in range(1, 17):
        n = 2 ** k
        want = _separate_spectrum_mirror(f(space_grid(3.0, n)), 3.0)
        buf = radial.LineBuffers(n)
        for got in (fourier_1d(f, 3.0, n)[1], fourier_1d(f, 3.0, n, buf)[1]):
            # bit for bit, the signs of zeros included
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _full_line_rearrangement(sigma, ghat, dim, lo, hi):
    """The unfolded weighted samples on the window lo <= |s| <= hi
    (oracle)."""
    a = np.abs(sigma)
    keep = (a >= lo) & (a <= hi)
    return decreasing_rearrangement(WeightedSampleSet(
        np.abs(ghat[keep]) / (1.0 + a[keep]) ** ((dim - 1) / 2.0),
        (sigma[1] - sigma[0]) * (1.0 + a[keep]) ** (dim - 1)))


def _rearranged_with_count(monkeypatch, line, ghat):
    """``line.rearrangements(ghat)``, and the samples its one sort took."""
    counts = []

    def counted(samples, masks):
        counts.append(len(samples.values))
        return subset_rearrangements(samples, masks)
    monkeypatch.setattr(characterize, "subset_rearrangements", counted)
    return line.rearrangements(ghat), counts


@pytest.mark.parametrize("f", _REAL_PROFILES)
@pytest.mark.parametrize("dim", [2, 4])
def test_line_fold_matches_the_full_line_exactly(monkeypatch, f, dim):
    sigma, ghat = fourier_1d(f, 3.0, 2 ** 12)
    windows = [(0.0, 150.0), (0.0, 600.0), (40.0, 300.0)]
    line = LineSamples(sigma, dim, windows)
    got, counts = _rearranged_with_count(monkeypatch, line, ghat)
    # the s >= 0 half of the line |s| <= 600, from s = 0
    assert counts == [(np.sum(np.abs(sigma) <= 600.0) + 1) // 2]
    assert line.abs_s[line.half][0] == 0.0
    # each window of the one sort, the whole line among them, against
    # its full line
    for (lo, hi), r in zip(windows, got):
        want = _full_line_rearrangement(sigma, ghat, dim, lo, hi)
        assert np.array_equal(r.levels, want.levels)
        assert np.array_equal(r.breakpoints, want.breakpoints)


def test_line_with_one_perturbed_value_is_not_folded(monkeypatch):
    sigma, ghat = fourier_1d(_REAL_PROFILES[0], 3.0, 2 ** 12)
    ghat = ghat.copy()
    ghat[len(ghat) // 2 + 7] *= 1.0 + 2.0 ** -40
    line = LineSamples(sigma, 3, [(0.0, 600.0)])
    [got], counts = _rearranged_with_count(monkeypatch, line, ghat)
    assert counts == [np.sum(np.abs(sigma) <= 600.0)]
    want = _full_line_rearrangement(sigma, ghat, 3, 0.0, 600.0)
    assert np.array_equal(got.levels, want.levels)
    assert np.array_equal(got.breakpoints, want.breakpoints)


@pytest.mark.parametrize("f", _REAL_PROFILES)
def test_transform_in_line_buffers_equals_new_arrays(f):
    n = 2 ** 12
    buf = radial.LineBuffers(n)
    for scale in (1.0, 0.5, 2.0):
        g = lambda s: f(scale * s)
        sigma, want = fourier_1d(g, 3.0, n)
        got = fourier_1d(g, 3.0, n, buf)[1]
        assert got is buf.values and np.array_equal(got, want)
        # complex samples take new arrays and leave the buffers alone
        kept = buf.values.copy()
        h = lambda s: g(s) * np.exp(1j * s)
        got = fourier_1d(h, 3.0, n, buf)[1]
        assert not np.shares_memory(got, buf.values)
        assert np.array_equal(got, fourier_1d(h, 3.0, n)[1])
        assert np.array_equal(buf.values, kept)


def test_line_grids_are_shared_and_read_only():
    seen = []
    def f(s):
        seen.append(s)
        return np.exp(-s ** 2)
    sigma1, _ = fourier_1d(f, 4.0, 2 ** 8)
    sigma2, _ = fourier_1d(f, 4.0, 2 ** 8)
    assert sigma1 is sigma2 and seen[0] is seen[1]
    assert np.array_equal(seen[0], space_grid(4.0, 2 ** 8))
    with pytest.raises(ValueError):
        sigma1[0] = 0.0
    with pytest.raises(ValueError):
        seen[0][0] = 0.0


def _exp_phase_fourier_1d(f, truncation, resolution):
    """The computed-phase route fourier_1d used to take (oracle)."""
    n = int(resolution)
    x = space_grid(truncation, n)
    samples = np.asarray(f(x), dtype=complex)
    h = 2.0 * truncation / n
    sigma = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    vals = h * np.exp(1j * truncation * sigma) * np.fft.fft(samples)
    order = np.argsort(sigma)
    return sigma[order], vals[order]


def test_exact_phase_matches_exp_phase_oracle():
    # a smooth bump plus an off-centre kink, so no transform is real
    f = lambda s: np.exp(-s ** 2) + np.clip(1.0 - np.abs(s - 0.3), 0, None)
    for k in range(1, 15):
        n = 2 ** k
        sigma, vals = fourier_1d(f, 3.0, n)
        sigma0, vals0 = _exp_phase_fourier_1d(f, 3.0, n)
        assert np.array_equal(sigma, sigma0)
        assert np.max(np.abs(vals - vals0)) <= 1e-9 * np.max(np.abs(vals0))


def test_exact_phase_sign_at_two_points():
    # N = 2: x = (-R, 0), sigma = (-pi/R, 0); the sign at sigma_-1 is -1
    sigma, vals = fourier_1d(np.array([2.0, 5.0]), 1.0, 2)
    assert np.array_equal(sigma, [-np.pi, 0.0])
    assert np.array_equal(vals, [5.0 - 2.0, 5.0 + 2.0])


@pytest.mark.parametrize("truncation", [math.inf, math.nan, 0.0, -1.0])
def test_non_finite_truncation_rejected_before_sampling(truncation):
    def f(s):
        raise AssertionError("sampled on an invalid grid")
    with pytest.raises(DomainError, match="finite and positive"):
        fourier_1d(f, truncation, 2 ** 4)


def test_power_of_two_required():
    with pytest.raises(DomainError):
        fourier_1d(lambda s: s, 1.0, 1000)


def test_samples_array_accepted():
    x = space_grid(4.0, 2 ** 10)
    sig1, v1 = fourier_1d(np.exp(-x ** 2), 4.0, 2 ** 10)
    sig2, v2 = fourier_1d(lambda s: np.exp(-s ** 2), 4.0, 2 ** 10)
    assert np.allclose(v1, v2)


def test_gaussian_radial_transform_all_dims():
    xi = np.linspace(0.0, 10.0, 81)
    for d in (2, 3, 4):
        out = radial_transform(lambda r: np.exp(-0.5 * r ** 2), d, radii=xi,
                               support=(0.0, 14.0))
        exact = (2 * math.pi) ** (d / 2.0) * np.exp(-0.5 * xi ** 2)
        # pointwise relative check with an absolute floor at the peak scale
        assert np.allclose(out.values.real, exact, rtol=1e-6,
                           atol=1e-12 * exact.max())
        assert np.max(np.abs(out.values.imag)) <= 1e-12 * exact.max()


def test_gaussian_total_integral_d2():
    out = radial_transform(lambda r: np.exp(-0.5 * r ** 2), 2,
                           radii=np.array([0.0]), support=(0.0, 14.0))
    assert math.isclose(out.values[0].real, 2 * math.pi, rel_tol=1e-10)


def test_dilation_covariance():
    xi = np.linspace(0.0, 6.0, 31)
    d = 3
    base = radial_transform(lambda r: np.exp(-0.5 * r ** 2), d, radii=xi,
                            support=(0.0, 16.0))
    for t in (0.5, 2.0):
        dil = radial_transform(lambda r: np.exp(-0.5 * (t * r) ** 2), d,
                               radii=xi * t, support=(0.0, 16.0 / min(t, 1.0)))
        want = t ** (-d) * base.values
        scale = np.abs(base.values).max() * t ** (-d)
        assert np.allclose(dil.values, want, rtol=1e-6, atol=1e-9 * scale)


def test_plancherel_smoothed_indicator():
    d = 3
    m0 = lambda r: smooth_window(r, 0.0 - 1e-9, 1e-9, 0.8, 1.0)
    rho = np.concatenate(([0.0], np.geomspace(1e-2, 300.0, 700)))
    out = radial_transform(m0, d, radii=rho, support=(0.0, 1.0))
    rr = np.linspace(0, 1.0, 2001)
    space_side = surface_area(d) * np.trapezoid(m0(rr) ** 2 * rr ** (d - 1), rr)
    freq_side = plancherel_radial(out.values, rho, d) / (2 * math.pi) ** d
    assert abs(space_side - freq_side) <= 1e-4 * space_side


def test_sphere_transform_d3_closed_form():
    xi = np.concatenate(([0.0], np.linspace(1e-3, 40.0, 400)))
    want = np.empty_like(xi)
    want[0] = 4 * math.pi
    want[1:] = 4 * math.pi * np.sin(xi[1:]) / xi[1:]
    assert np.max(np.abs(sphere_hat(1.0, 3, xi) - want)) <= 1e-9


def test_sphere_mass_at_origin():
    for d in (2, 3, 4):
        for r in (0.5, 1.0, 3.0):
            want = r ** (d - 1) * surface_area(d)
            assert math.isclose(sphere_hat(r, d, np.array([0.0]))[0], want,
                                rel_tol=1e-12)


def test_sphere_decay_envelope():
    xi = np.geomspace(10.0, 1000.0, 4000)
    for d in (2, 3, 4):
        vals = sphere_hat(1.0, d, xi)
        slope = dyadic_envelope_fit(xi, vals, 10.0, 1000.0)
        assert abs(-slope - (d - 1) / 2.0) <= 0.05


def test_unreliable_points_flagged_not_silent():
    prof = radial_transform(lambda r: np.exp(-r), 2,
                            radii=np.array([1.0, 5.0e5]), support=(0.0, 10.0),
                            panel_budget=2000)
    assert prof.reliable[0]
    assert not prof.reliable[1]
    assert np.isnan(prof.values[1])


def _kernel_side_transform(transform, dim, rho_max):
    """``transform`` as the kernel side of ``characterize`` calls it, on
    its default profile."""
    return transform(tent_profile, dim, characterize._kernel_radii(rho_max),
                     support=KERNEL_SUPPORT, inverse=True)


def _assert_same_profile(got, want):
    assert np.array_equal(got.radii, want.radii)
    assert np.array_equal(got.values, want.values, equal_nan=True)
    assert np.array_equal(got.reliable, want.reliable)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
def test_batched_bessel_rows_equal_per_radius_calls(dim):
    # the characterize defaults: every octave group in one Bessel call
    _assert_same_profile(
        _kernel_side_transform(radial_transform, dim, 256.0),
        _kernel_side_transform(radial_transform_per_radius, dim, 256.0))


def test_batched_bessel_rows_equal_per_radius_calls_in_chunks():
    # at rho_max 4096 a group's rows pass 2^14 arguments and are split;
    # radii of 2e4-3e4 have node sets of more than 2^14 nodes, one radius
    # per call; the last radius is past the panel budget
    for radii in (characterize._kernel_radii(4096.0),
                  np.array([1.0, 2.0e4, 2.5e4, 3.0e4, 5.0e6])):
        got, want = (transform(lambda r: np.exp(-r), 3, radii,
                               support=(0.0, 0.3), panel_budget=4000)
                     for transform in (radial_transform,
                                       radial_transform_per_radius))
        _assert_same_profile(got, want)
    assert not got.reliable[-1]


def _bessel_calls(monkeypatch):
    """The argument count of each Bessel call radial_transform makes."""
    calls = []
    scaled = radial.bessel_j_scaled

    def counted(order, x):
        calls.append(np.size(x))
        return scaled(order, x)

    monkeypatch.setattr(radial, "bessel_j_scaled", counted)
    return calls


def test_kernel_side_makes_one_bessel_call_per_node_group(monkeypatch):
    calls = _bessel_calls(monkeypatch)
    prof = _kernel_side_transform(radial_transform, 4, 256.0)
    # 705 radii in 16 octave groups
    assert len(prof.radii) == 705
    assert len(calls) == 16
    assert sum(calls) == 53056


def test_bessel_calls_are_bounded_by_the_larger_of_a_cap_and_a_node_set(
        monkeypatch):
    calls = _bessel_calls(monkeypatch)
    radii = np.concatenate([characterize._kernel_radii(4096.0), [3.0e4]])
    radial_transform(lambda r: np.exp(-r), 3, radii, support=(0.0, 0.3))
    nodes = len(panel_nodes(0.0, 0.3, 3.0e4)[0])
    assert nodes > radial._BESSEL_ARGS
    assert max(calls[:-1]) <= radial._BESSEL_ARGS
    assert calls[-1] == nodes


def test_profile_validation():
    with pytest.raises(DomainError):
        RadialProfile(np.array([0.2, 0.1]), np.array([1.0, 2.0]), 3)
    with pytest.raises(DomainError):
        RadialProfile(np.array([0.1, 0.2]), np.array([1.0, 2.0]), 1)


# ---------------------------------------------------------------------------
# inverse transforms of closed-form symbols, spherical means in odd d


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_inverse_radial_gaussian_closed_form(dim):
    # F^-1[exp(-|xi|^2 / 2)] = (2 pi)^(-d/2) exp(-|x|^2 / 2); a uniform run
    # goes through chirp-z, the short tail of radii through direct sums
    radii = np.concatenate([np.linspace(0.0, 6.0, 97), [6.5, 7.25, 9.0]])
    got = inverse_radial(lambda s: np.exp(-0.5 * s ** 2), dim, radii, 40.0,
                         8.0)
    want = (2.0 * np.pi) ** (-dim / 2.0) * np.exp(-0.5 * radii ** 2)
    assert np.abs(got - want).max() <= 1e-12 * want.max()


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("margin", [0.5, 1.0, 2.0])
def test_inverse_radial_bump_closed_form(dim, margin):
    # (1 - |x|^2)_+^8 from its closed-form transform; its support radius 1
    # exceeds the margin 0.5, which the near-origin u-sum rows of even d
    # must not alias
    radii = np.linspace(0.0, 1.2, 49)
    got = inverse_radial(lambda s: wave._bump_hat(dim, 8, 1.0, s), dim,
                         radii, 400.0, margin)
    want = np.clip(1.0 - radii ** 2, 0.0, None) ** 8
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("r_max", [2.0, 40.0])
def test_abel_projection_gaussian_closed_form(r_max):
    # P_2(t) = 2 int_0^inf exp(-(t^2 + u^2) / 2) du = sqrt(2 pi) exp(-t^2 / 2),
    # on a coarse t-grid (h = 0.5) and a fine one (h = 0.07)
    h, nt, _ = radial.inverse_radial_plan(2, np.array([0.0, r_max]), 40.0,
                                          8.5)
    got = radial._line_projection(lambda s: np.exp(-0.5 * s ** 2), 2, h, nt)
    want = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (h * np.arange(nt)) ** 2)
    assert np.abs(got - want).max() <= 1e-12 * want.max()


def test_abel_weights_match_mpmath():
    # zeta(1/2 - p) as stored, and the correction weights
    # A[i, m] = (-1)^m (1/2)_m / m! sum_r L[r, i] zeta(1/2 - r - m) of
    # both stencils, L the inverse Vandermonde matrix, at 40 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        zeta = [mpmath.zeta(mpmath.mpf(1) / 2 - p)
                for p in range(len(radial._ZETA_HALF))]
        assert [float(z) for z in zeta] == list(radial._ZETA_HALF)
        for nodes, weights in (radial._ABEL_RULE, radial._ABEL_CHECK):
            width, powers = weights.shape
            inv = mpmath.matrix([[mpmath.mpf(int(i)) ** r
                                  for r in range(width)] for i in nodes]) ** -1
            want = np.array([[float(
                (-1) ** m * mpmath.rf(0.5, m) / mpmath.factorial(m)
                * mpmath.fsum(inv[r, i] * zeta[r + m] for r in range(width)))
                for m in range(powers)] for i in range(width)])
            assert np.abs(weights - want).max() <= 1e-15 * np.abs(want).max()


def test_abel_step_for_bump_is_pinned(abel_steps):
    # the bump's transform oscillates once per 2 pi, on a t-step of 1.85
    inverse_radial(lambda s: wave._bump_hat(2, 8, 1.0, s), 2,
                   np.linspace(0.0, 1.2, 49), 400.0, 1.0)
    assert abel_steps == [4]


_ABEL_SYMBOLS = {
    "bump": (lambda dim: lambda s: wave._bump_hat(dim, 8, 1.0, s), 400.0),
    # a jump is never resolved: the ladder runs to the cap
    "jump": (lambda dim: lambda s: (s < 10.0).astype(float), 40.0),
}


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("kind, steps", [("bump", 4),
                                         ("jump", radial._ABEL_Q_CAP)])
def test_abel_refinement_equals_resampling_every_node(dim, kind, steps):
    build, band = _ABEL_SYMBOLS[kind]
    symbol = build(dim)
    h, nt, _ = radial.inverse_radial_plan(dim, np.linspace(0.0, 1.2, 49),
                                          band, 1.0)
    q, samples, correction = radial._abel_samples(symbol, h, nt)
    want_q, want = abel_samples_resampled(symbol, h, nt)
    assert q == want_q == steps
    assert np.array_equal(samples, want)
    # the rule's correction on those samples, as the projection once formed it
    assert np.array_equal(correction, radial._abel_correction(
        want, q, radial._abel_rows(q, nt), radial._ABEL_RULE))


def test_abel_refinement_checked_against_budget():
    # a jump in the symbol is never resolved, so q doubles until the
    # next step's far-field sums pass the cap
    step = lambda s: (s < 100.0).astype(float)
    radii = np.linspace(0.0, 8.0, 64)
    nt = radial.inverse_radial_plan(4, radii, 9000.0, 8.0)[1]
    assert radial._abel_terms(nt, 1) <= radial.INVERSE_ABEL_BUDGET \
        < radial._abel_terms(nt, 2)
    with pytest.raises(BudgetError):
        inverse_radial(step, 4, radii, 9000.0, 8.0)


def _complex_line_walk(proj, h):
    """The walk as a complex FFT of s P_d(s) on the zero-padded line."""
    nt = len(proj)
    size = next_pow2(2 * nt)
    line = np.zeros(size, dtype=complex)
    line[:nt] = proj
    line[size - nt + 1:] = proj[:0:-1]
    spec = np.fft.fft(h * np.fft.fftfreq(size, 1.0 / size) * line)
    omega = 2.0 * np.pi * np.fft.fftfreq(size, h)
    spec[0] = 0.0
    spec[1:] /= 1j * omega[1:]
    anti = np.fft.ifft(spec)
    return 2.0 * np.pi * (anti[size // 2] - anti[:nt])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_walk_matches_complex_line_oracle(dim, monkeypatch):
    for n in range(3, 7):
        radii = wave.decompose_radii(n)[2]
        got = wave.wave_kernel(n, dim, radii=radii).values
        with monkeypatch.context() as m:
            m.setattr(radial, "_walk", _complex_line_walk)
            want = wave.wave_kernel(n, dim, radii=radii).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), n


def test_inverse_radial_budget_checked_before_allocation():
    import tracemalloc
    gauss = lambda s: np.exp(-0.5 * s ** 2)
    tracemalloc.start()
    try:
        # a t-line far past the cap: nothing of its length is allocated
        with pytest.raises(BudgetError):
            inverse_radial(gauss, 3, np.array([0.0, 1e7]), 10.0, 8.0)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 16
    finally:
        tracemalloc.stop()
    with pytest.raises(BudgetError):               # longest chirp past the cap
        inverse_radial(gauss, 3, np.linspace(0.0, 1.0, 2_500_000), 10.0,
                       8.0)
    with pytest.raises(BudgetError):               # Abel multiply-adds, even d
        inverse_radial(gauss, 4, np.linspace(0.0, 8.0, 64), 3e4, 8.0)
    with pytest.raises(DomainError):
        inverse_radial(gauss, 3, np.array([1.0, 0.5]), 10.0, 8.0)


def _ball_bump_means(dim, a, r, rho):
    """(u * sigma_r)(rho) for u = (1 - |x/a|^2)_+^4 by 400-node angular quadrature."""
    theta, w = np.polynomial.legendre.leggauss(400)
    theta = 0.5 * np.pi * (theta + 1.0)
    dist2 = rho ** 2 + r ** 2 - 2.0 * rho * r * np.cos(theta)
    u = np.clip(1.0 - dist2 / a ** 2, 0.0, None) ** 4
    return r ** (dim - 1) * surface_area(dim - 1) * 0.5 * np.pi * np.sum(
        u * np.sin(theta) ** (dim - 2) * w)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
def test_spherical_means_against_angular_quadrature(dim):
    # u = (1 - |x|^2)_+^4 is C^3 with the closed-form K = 4 bump transform,
    # so its tables converge
    a, k = 1.0, 4
    from conemult.bessel import bessel_j_scaled

    def symbol(s):
        return a ** dim * math.factorial(k) * 2.0 ** (k + dim / 2.0) \
            * np.pi ** (dim / 2.0) * bessel_j_scaled(dim / 2.0 + k, a * s)

    means = SphericalMeans(symbol, dim, (0.0, a), 1.0 / 2048, 4000.0)
    pairs = [(0.5, 0.2), (1.0, 0.4), (3.0, 2.5), (3.0, 3.6), (0.3, 1.1)]
    got = means(np.array([r for r, _ in pairs]),
                np.array([rho for _, rho in pairs]))
    want = np.array([_ball_bump_means(dim, a, r, rho) for r, rho in pairs])
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
    with pytest.raises(DomainError):
        SphericalMeans(symbol, 1, (0.0, a), 1e-3, 100.0)


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("r, rho", [(0.0, 0.5), (-1.0, 0.5), (0.5, 0.0),
                                    (0.5, -0.2), (math.nan, 0.5)])
def test_spherical_means_take_positive_radii_only(dim, r, rho):
    # the means are tabled for r > 0 and rho > 0 alone, odd d and even d
    means = SphericalMeans(lambda s: np.exp(-s ** 2), dim, (0.0, 1.0),
                           1.0 / 256, 16.0)
    with pytest.raises(DomainError, match="r > 0 and rho > 0"):
        means(np.array([1.0, r]), np.array([0.5, rho]))
