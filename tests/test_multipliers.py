import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conemult import bochner, cli, multipliers
from conemult.errors import DomainError
from conemult.multipliers import (Axis, GridField, apply_multiplier,
                                  build_dyadic_cone_multiplier,
                                  export_field_csv, freq_magnitude,
                                  load_field, save_field, wraparound_fraction)
from conemult.util import CubicSpline1D
from reference import apply_full_transforms


def tent(u):
    return np.clip(1.0 - 4.0 * np.abs(np.asarray(u, dtype=float)), 0.0, None)


def cone_axes(extent=16.0, res=32, ndim=3):
    return tuple(Axis(extent, res) for _ in range(ndim))


def dft_oracle(values):
    """Direct DFT sum, no FFT: V[m] = sum_j v[j] exp(-2 pi i <j, m>/N)."""
    out = values.astype(complex)
    for axis in range(values.ndim):
        n = values.shape[axis]
        w = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        out = np.moveaxis(np.tensordot(w, np.moveaxis(out, axis, 0),
                                       axes=(1, 0)), 0, axis)
    return out


def idft_oracle(values):
    out = values.astype(complex)
    for axis in range(values.ndim):
        n = values.shape[axis]
        w = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / n
        out = np.moveaxis(np.tensordot(w, np.moveaxis(out, axis, 0),
                                       axes=(1, 0)), 0, axis)
    return out


# -- dyadic cone builder ------------------------------------------------------


def test_dyadic_point_value():
    axes = cone_axes()
    cone = build_dyadic_cone_multiplier(tent, axes)
    tau = axes[-1].freq_coords()
    xi = freq_magnitude(axes[:-1])
    # pick a grid point in the k = 1 slab and check the formula directly
    kslab = np.where((tau >= 2.0) & (tau < 4.0))[0][0]
    t = tau[kslab]
    idx = np.unravel_index(np.argmin(np.abs(xi - 1.125 * t)), xi.shape)
    u = (xi[idx] - t) / 2.0
    assert cone.values[idx + (kslab,)] == pytest.approx(tent(u))


def test_dyadic_zero_family_gives_zero_field():
    cone = build_dyadic_cone_multiplier(
        lambda u: np.zeros_like(np.asarray(u, float)), cone_axes())
    assert np.max(np.abs(cone.values)) == 0.0


def test_dyadic_sampled_profile_matches_pointwise_oracle():
    rng = np.random.default_rng(5)
    u_pts = np.linspace(-0.25, 0.25, 41)
    vals = np.sin(6 * u_pts) * tent(u_pts)
    spline = CubicSpline1D(u_pts, vals)

    def prof(u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) < 0.25, spline(u), 0.0)
    axes = cone_axes()
    cone = build_dyadic_cone_multiplier(prof, axes)
    tau = axes[-1].freq_coords()
    xi = freq_magnitude(axes[:-1])
    # random collection of grid points, reevaluated one by one
    for _ in range(400):
        i = tuple(rng.integers(0, 32, size=3))
        t = tau[i[-1]]
        got = cone.values[i]
        if t <= 0:
            assert got == 0.0
            continue
        k = math.floor(math.log2(t))
        want = prof((xi[i[:-1]] - t) / 2.0 ** k)
        assert abs(got - want) <= 1e-9


def test_support_bookkeeping_every_nonzero_point():
    axes = cone_axes()
    cone = build_dyadic_cone_multiplier(tent, axes)
    tau = axes[-1].freq_coords()
    xi = freq_magnitude(axes[:-1])
    nz = np.argwhere(np.abs(cone.values) > 0)
    assert len(nz) > 0
    for idx in nz:
        t = tau[idx[-1]]
        assert t > 0
        k = math.floor(math.log2(t))
        assert 2.0 ** k <= t < 2.0 ** (k + 1)
        assert abs(xi[tuple(idx[:-1])] - t) < 2.0 ** (k - 2)


def test_family_support_violation_rejected():
    wide = lambda u: np.clip(1.0 - np.abs(u), 0.0, None)  # supported (-1, 1)
    with pytest.raises(DomainError, match="edge profile does not vanish"):
        build_dyadic_cone_multiplier(wide, cone_axes())


# -- operators ----------------------------------------------------------------


def test_apply_identity_and_scalar():
    axes = cone_axes(ndim=2)
    rng = np.random.default_rng(0)
    f = GridField(axes, rng.standard_normal((32, 32))
                  + 1j * rng.standard_normal((32, 32)))
    ones = GridField(axes, np.ones((32, 32), complex), rep="frequency")
    assert np.allclose(apply_multiplier(f, ones).values, f.values,
                       atol=1e-13)
    half = GridField(axes, 0.5j * np.ones((32, 32), complex), rep="frequency")
    assert np.allclose(apply_multiplier(f, half).values, 0.5j * f.values,
                       atol=1e-13)


def test_apply_matches_direct_dft_sum_oracle_16_cubed():
    rng = np.random.default_rng(21)
    axes = cone_axes(res=16)
    f = rng.standard_normal((16,) * 3) + 1j * rng.standard_normal((16,) * 3)
    m = rng.standard_normal((16,) * 3) + 1j * rng.standard_normal((16,) * 3)
    out = apply_multiplier(GridField(axes, f),
                           GridField(axes, m, rep="frequency"))
    want = idft_oracle(m * dft_oracle(f))
    assert np.max(np.abs(out.values - want)) <= 1e-9


def test_grid_mismatch_rejected():
    f = GridField(cone_axes(ndim=2), np.zeros((32, 32)))
    m = GridField(cone_axes(extent=8.0, ndim=2), np.zeros((32, 32)),
                  rep="frequency")
    with pytest.raises(DomainError):
        apply_multiplier(f, m)


def test_energy_bound_and_constant_equality():
    rng = np.random.default_rng(2)
    axes = cone_axes(ndim=2)
    f = GridField(axes, rng.standard_normal((32, 32)) + 0j)
    m_vals = rng.uniform(0.2, 1.0, (32, 32)).astype(complex)
    out = apply_multiplier(f, GridField(axes, m_vals, rep="frequency"))
    assert out.l2_norm() <= np.abs(m_vals).max() * f.l2_norm() * (1 + 1e-12)
    const = GridField(axes, np.full((32, 32), 0.77, dtype=complex),
                      rep="frequency")
    out = apply_multiplier(f, const)
    assert math.isclose(out.l2_norm(), 0.77 * f.l2_norm(), rel_tol=1e-12)


def test_translation_covariance_circular():
    rng = np.random.default_rng(4)
    axes = cone_axes(ndim=2)
    f = rng.standard_normal((32, 32)) + 0j
    m = GridField(axes, (rng.standard_normal((32, 32))
                         + 1j * rng.standard_normal((32, 32))),
                  rep="frequency")
    out1 = apply_multiplier(GridField(axes, np.roll(f, (3, -5), (0, 1))), m)
    out2 = apply_multiplier(GridField(axes, f), m)
    assert np.allclose(out1.values, np.roll(out2.values, (3, -5), (0, 1)),
                       atol=1e-12)


def test_radial_symbol_on_radial_input_stays_radial():
    axes = (Axis(20.0, 64), Axis(20.0, 64))
    x = axes[0].space_coords()
    rsq = x[:, None] ** 2 + x[None, :] ** 2
    f = GridField(axes, np.exp(-0.5 * rsq).astype(complex))
    out = apply_multiplier(f, lambda r: np.exp(-0.25 * r ** 2))
    mag = np.abs(out.values)

    groups = {}
    for i in range(64):
        for j in range(64):
            key = round(float(rsq[i, j]), 9)
            groups.setdefault(key, []).append(mag[i, j])
    mean_scale = mag.max()
    worst = 0.0
    for key, vals in groups.items():
        if len(vals) > 1:
            worst = max(worst, float(np.ptp(vals)) / mean_scale)
    assert worst <= 1e-8


# -- wraparound and serialization --------------------------------------------


def test_wraparound_warning_fires(tmp_path):
    axes = (Axis(4.0, 32), Axis(4.0, 32))
    x = axes[0].space_coords()
    f = GridField(axes, np.exp(-0.1 * (x[:, None] ** 2 + x[None, :] ** 2))
                  .astype(complex))
    assert wraparound_fraction(f) > 1e-6
    tight = GridField(axes, np.exp(-40.0 * (x[:, None] ** 2
                                            + x[None, :] ** 2))
                      .astype(complex))
    assert wraparound_fraction(tight) <= 1e-6
    # apply reports the fraction past wrap_threshold as one stderr line; a
    # fresh process shows what a user sees, Python warnings included
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), os.pardir, "src"))
    for width, lines in (("4.0", 1), ("1.0", 0)):
        out = tmp_path / width
        res = subprocess.run([sys.executable, "-m", "conemult", "apply",
                              "--input", f"gauss:{width}", "--out", str(out)],
                             env=env, capture_output=True, text=True)
        assert res.returncode == 0
        assert res.stderr.count("\n") == lines
        frac = json.loads((out / "summary.json").read_text())[
            "wraparound_fraction"]
        if lines:
            assert res.stderr == (
                f"warning: boundary shell carries {frac:.3e} of the field "
                f"mass (threshold 1.0e-06); enlarge the box extent\n")
        else:
            assert frac <= 1e-6


def test_single_axis_field_operator():
    ax = (Axis(8.0, 64),)
    rng = np.random.default_rng(6)
    f = GridField(ax, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    out = apply_multiplier(f, lambda r: 1.0 / (1.0 + np.asarray(r) ** 2))
    sym = 1.0 / (1.0 + freq_magnitude(ax) ** 2)
    want = np.fft.ifft(sym * np.fft.fft(f.values))
    assert np.allclose(out.values, want, atol=1e-13)


def test_four_axis_cone_field():
    axes = tuple(Axis(8.0, 16) for _ in range(4))
    cone = build_dyadic_cone_multiplier(tent, axes)
    tau = axes[-1].freq_coords()
    xi = freq_magnitude(axes[:-1])
    nz = np.argwhere(np.abs(cone.values) > 0)
    assert len(nz) > 0
    for idx in nz[:200]:
        t = tau[idx[-1]]
        k = math.floor(math.log2(t))
        assert abs(xi[tuple(idx[:-1])] - t) < 2.0 ** (k - 2)
    with pytest.raises(DomainError):
        GridField(tuple(Axis(4.0, 4) for _ in range(5)),
                  np.zeros((4,) * 5, complex))


def test_field_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(33)
    axes = (Axis(8.0, 16), Axis(4.0, 32))
    f = GridField(axes, (rng.standard_normal((16, 32))
                         + 1j * rng.standard_normal((16, 32))).astype(
        np.complex64).astype(complex), rep="frequency")
    path = tmp_path / "field.cmf"
    save_field(f, path)
    g = load_field(path)
    assert g.rep == "frequency"
    assert g.axes[0].extent == 8.0 and g.axes[1].resolution == 32
    assert np.array_equal(g.values, f.values)


def _set_ndim(data, ndim):
    return data[:9] + bytes([ndim]) + data[10:]      # header byte 9


@pytest.mark.parametrize("mutate", [
    lambda d: d[:8],                  # header cut inside the fixed part
    lambda d: d[:12 + 20],            # header cut inside the axis table
    lambda d: d[:-8],                 # payload one value short
    lambda d: d + b"\0",              # trailing byte
    lambda d: _set_ndim(d, 0),
    lambda d: _set_ndim(d, 5),
    lambda d: _set_ndim(d, 1),        # axis table read as payload
], ids=["short-fixed", "short-table", "short-payload", "trailing",
        "ndim0", "ndim5", "ndim-mismatch"])
def test_field_load_rejects_malformed_files(tmp_path, mutate):
    path = tmp_path / "field.cmf"
    save_field(GridField((Axis(8.0, 16), Axis(4.0, 8)),
                         np.ones((16, 8), complex)), path)
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(DomainError):
        load_field(path)


def test_field_csv_export(tmp_path):
    axes = (Axis(2.0, 4), Axis(2.0, 4))
    f = GridField(axes, np.arange(16, dtype=float).reshape(4, 4) + 0j)
    path = tmp_path / "f.csv"
    export_field_csv(f, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x0,x1,re,im"
    assert len(lines) == 17


@pytest.mark.parametrize("shape", [(64,), (16, 32), (8, 8, 16)])
def test_apply_in_place_chain_equals_product_route(shape):
    # a complex symbol: the operand order of the product must be kept
    rng = np.random.default_rng(len(shape))
    axes = tuple(Axis(8.0, n) for n in shape)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sym = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = apply_multiplier(GridField(axes, vals),
                           GridField(axes, sym, rep="frequency"))
    assert np.array_equal(out.values, np.fft.ifftn(sym * np.fft.fftn(vals)))


@pytest.mark.parametrize("extent", [0.0, -1.0, math.inf, math.nan])
def test_axis_extent_positive_and_finite(extent):
    with pytest.raises(DomainError, match="positive and finite"):
        Axis(extent, 8)


def _csv_writer_export(f, path):
    """The CSV export as it was: a csv.writer row per cell (oracle)."""
    import csv
    coords = [ax.space_coords() if f.rep == "space" else ax.freq_coords()
              for ax in f.axes]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(f.ndim)] + ["re", "im"])
        for idx in np.ndindex(*f.values.shape):
            row = [repr(float(coords[i][j])) for i, j in enumerate(idx)]
            v = f.values[idx]
            w.writerow(row + [repr(float(v.real)), repr(float(v.imag))])


@pytest.mark.parametrize("shape, rep", [((8,), "space"),
                                        ((4, 8), "frequency"),
                                        ((8, 4, 16), "space"),
                                        ((2, 4, 2, 4), "frequency")])
def test_field_csv_export_equals_csv_writer_bytes(tmp_path, shape, rep):
    rng = np.random.default_rng(len(shape))
    axes = tuple(Axis(3.0 + i, n) for i, n in enumerate(shape))
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape) \
        + 1j * rng.standard_normal(shape)
    vals.flat[:3] = [0.0, -0.0, complex(-0.0, -0.0)]
    f = GridField(axes, vals, rep=rep)
    export_field_csv(f, tmp_path / "got.csv")
    _csv_writer_export(f, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("shape", [(64,), (16, 32), (8, 8, 16)])
def test_apply_to_a_spectrum_equals_the_space_route(shape):
    # a field in frequency form is taken as the forward DFT of the input
    rng = np.random.default_rng(len(shape))
    axes = tuple(Axis(8.0, n) for n in shape)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sym = GridField(axes, rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape), rep="frequency")
    spectrum = GridField(axes, np.fft.fftn(vals), rep="frequency")
    kept = spectrum.values.copy()
    out = apply_multiplier(spectrum, sym)
    assert out.rep == "space"
    assert np.array_equal(out.values,
                          apply_multiplier(GridField(axes, vals), sym).values)
    assert np.array_equal(spectrum.values, kept)


# -- the one grid operator against the full-transform oracle -----------------


GRID_MULTIPLIERS = ["one", "scalar:-0.5", "scalar:0", "br:1.0", "br:2.0",
                    "gauss", "indicator", "oscillatory:3", "halfspace",
                    "cone_br:1.0", "cone_tent"]
GRID_SHAPES = [(64,), (16, 32), (8, 8, 16), (4, 8, 4, 8)]


@pytest.mark.parametrize("spec, shape", [
    (spec, shape) for spec in GRID_MULTIPLIERS for shape in GRID_SHAPES
    # cone multipliers need at least (xi, tau) axes
    if len(shape) > 1 or not spec.startswith("cone_")])
def test_apply_equals_the_full_transform_oracle(spec, shape):
    # the support-box chain skips lines, never values: T f equals the full
    # fftn / product / ifftn route under == (which ignores the sign of 0),
    # and a symbol that vanishes everywhere gives +0
    axes = tuple(Axis(16.0, n) for n in shape)
    m = cli.grid_multiplier(spec, axes)
    rng = np.random.default_rng(len(shape))
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for rep in ("space", "frequency"):
        f = GridField(axes, vals, rep=rep)
        got = apply_multiplier(f, m)
        assert got.rep == "space"
        assert np.array_equal(got.values,
                              apply_full_transforms(f, m.values).values)
        if not m.values.any():
            assert not np.signbit(got.values.real).any()
            assert not np.signbit(got.values.imag).any()


def test_cone_multiplier_on_one_axis_is_rejected_before_any_array(
        tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a grid array was built")
    monkeypatch.setattr(multipliers, "freq_magnitude", unreachable)
    monkeypatch.setattr(bochner, "freq_magnitude", unreachable)
    axes = (Axis(16.0, 64),)
    for spec in ("cone_tent", "cone_br:1.0"):
        with pytest.raises(DomainError, match=r"at least \(xi, tau\) axes"):
            cli.grid_multiplier(spec, axes)
        for command in ("opnorm", "apply"):
            out = tmp_path / command
            assert cli.main([command, "--multiplier", spec, "--ndim", "1",
                             "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == "domain error: cone multipliers need at least " \
                "(xi, tau) axes\n"
            assert not out.exists()


def test_cone_tent_on_a_grid_without_positive_tau_runs(tmp_path):
    # at resolution 2 the tau axis holds 0 and -pi / step only: the dyadic
    # cone has no octave there and vanishes
    out = tmp_path / "a"
    assert cli.main(["apply", "--multiplier", "cone_tent", "--resolution",
                     "2", "--out", str(out)]) == 0
    assert not load_field(out / "output_field.cmf").values.any()
