import math

import numpy as np
import pytest

from conemult.bessel import surface_area
from conemult.bumps import smooth_window
from conemult.errors import ConfigError, DomainError
from conemult.radial import (RadialProfile, fourier_1d, plancherel_radial,
                             radial_transform, space_grid,
                             sphere_hat_values, sphere_measure_transform)
from conemult.util import dyadic_envelope_fit


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
    # sigma grid is asymmetric by one bin; compare matched pairs
    assert np.allclose(vals[half + 1:].real, vals[1:half][::-1].real,
                       atol=1e-10 * np.max(np.abs(vals.real)))


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
    prof = sphere_measure_transform(1.0, 3, radii=xi)
    want = np.empty_like(xi)
    want[0] = 4 * math.pi
    want[1:] = 4 * math.pi * np.sin(xi[1:]) / xi[1:]
    assert np.max(np.abs(prof.values.real - want)) <= 1e-9


def test_sphere_mass_at_origin():
    for d in (2, 3, 4):
        for r in (0.5, 1.0, 3.0):
            prof = sphere_measure_transform(r, d, radii=np.array([0.0]))
            want = r ** (d - 1) * surface_area(d)
            assert math.isclose(prof.values[0].real, want, rel_tol=1e-12)


def test_sphere_radius_validation():
    with pytest.raises(DomainError):
        sphere_measure_transform(0.0, 3)


def test_sphere_decay_envelope():
    xi = np.geomspace(10.0, 1000.0, 4000)
    for d in (2, 3, 4):
        vals = sphere_hat_values(1.0, d, xi)
        slope, _ = dyadic_envelope_fit(xi, vals, 10.0, 1000.0)
        assert abs(-slope - (d - 1) / 2.0) <= 0.05


def test_unreliable_points_flagged_not_silent():
    prof = radial_transform(lambda r: np.exp(-r), 2,
                            radii=np.array([1.0, 5.0e5]), support=(0.0, 10.0),
                            panel_budget=2000)
    assert prof.reliable[0]
    assert not prof.reliable[1]
    assert np.isnan(prof.values[1])


def test_profile_roundtrip_csv(tmp_path):
    prof = RadialProfile(np.array([0.1, 0.5, 1.0]),
                         np.array([1 + 2j, 0.5, -0.25j]), 3)
    path = tmp_path / "prof.csv"
    prof.to_csv(path)
    back = RadialProfile.from_csv(path, 3)
    assert np.allclose(back.radii, prof.radii)
    assert np.allclose(back.values, prof.values)


@pytest.mark.parametrize("row, what", [
    ("0.5,1.0\n", "2 cells"),
    ("0.5,one,0.0\n", "'one' is not a number"),
])
def test_profile_csv_malformed_row_names_file_and_line(tmp_path, row, what):
    path = tmp_path / "prof.csv"
    path.write_text("radius,re,im\n0.1,1.0,0.0\n" + row)
    with pytest.raises(ConfigError, match=f"prof.csv:3: {what}"):
        RadialProfile.from_csv(path, 3)


def test_profile_validation():
    with pytest.raises(DomainError):
        RadialProfile(np.array([0.2, 0.1]), np.array([1.0, 2.0]), 3)
    with pytest.raises(DomainError):
        RadialProfile(np.array([0.1, 0.2]), np.array([1.0, 2.0]), 1)
