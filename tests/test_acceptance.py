"""Acceptance gate: one test per shipping criterion, with stated tolerances.

Each test prints a single PASS line (visible under pytest -s or -v with
-rP) including its elapsed time; the numeric assertions are the criteria
themselves.
"""

import glob
import math
import os
import time

import numpy as np

from conemult.bochner import critical_scan, edge_decay_fit
from conemult.characterize import fourier_side_quantity, kernel_side_quantity
from conemult.cli import main as cli_main
from conemult.lorentz import (LorentzParams, WeightedSampleSet,
                              lorentz_quasinorm)
from conemult.multipliers import (Axis, GridField, apply_multiplier,
                                  build_dyadic_cone_multiplier,
                                  freq_magnitude)
from conemult.opnorm import scaling_sweep_experiment
from conemult.radial import radial_transform
from conemult.wave import decompose_range
from conemult.bumps import smooth_window
from reference import plancherel_radial, sphere_hat, weighted_lp_norm


def _report(num, text, t0):
    print(f"ACCEPTANCE {num} PASS: {text} [{time.time() - t0:.1f}s]")


def test_acceptance_1_lorentz_kernel():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        s = WeightedSampleSet(rng.uniform(0, 10, n), rng.uniform(0.01, 3, n))
        p = float(rng.uniform(0.4, 4.0))
        a = lorentz_quasinorm(s, LorentzParams(p, p))
        b = weighted_lp_norm(s, p)
        assert abs(a - b) <= 1e-10 * max(b, 1e-12)
    for p in (0.7, 1.0, 8.0 / 7.0, 2.0, 3.5):
        for m in (0.3, 1.0, 2.0, 11.0):
            weak = lorentz_quasinorm(WeightedSampleSet([1.0], [m]),
                                     LorentzParams(p, math.inf))
            assert abs(weak - m ** (1.0 / p)) <= 1e-9 * m ** (1.0 / p)
            for nu in (p, 2.0 * p, 7.0):
                got = lorentz_quasinorm(WeightedSampleSet([1.0], [m]),
                                        LorentzParams(p, nu))
                want = (p / nu) ** (1.0 / nu) * m ** (1.0 / p)
                assert abs(got - want) <= 1e-9 * want
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(1, "p=nu matches weighted lp on 1000 random sets (1e-10), "
               "indicator closed forms (1e-9)", t0)


def test_acceptance_2_radial_transforms():
    t0 = time.time()
    # Gaussian self-transform, d = 2, 3, 4; pointwise relative 1e-6 with an
    # absolute floor 1e-12 of the peak (float64 cannot certify relative
    # accuracy at exp(-50) magnitudes)
    xi = np.linspace(0.0, 10.0, 101)
    for d in (2, 3, 4):
        out = radial_transform(lambda r: np.exp(-0.5 * r ** 2), d, radii=xi,
                               support=(0.0, 14.0))
        exact = (2 * math.pi) ** (d / 2.0) * np.exp(-0.5 * xi ** 2)
        assert np.allclose(out.values.real, exact, rtol=1e-6,
                           atol=1e-12 * exact.max())
        assert np.max(np.abs(out.values.imag)) <= 1e-12 * exact.max()
    # sphere transform closed form in d = 3
    grid = np.concatenate(([0.0], np.linspace(1e-3, 40.0, 800)))
    want = np.empty_like(grid)
    want[0] = 4 * math.pi
    want[1:] = 4 * math.pi * np.sin(grid[1:]) / grid[1:]
    assert np.max(np.abs(sphere_hat(1.0, 3, grid) - want)) <= 1e-9
    # Plancherel for a smoothed indicator, d = 3
    from conemult.bessel import surface_area
    m0 = lambda r: smooth_window(r, -1e-9, 1e-9, 0.8, 1.0)
    rho = np.concatenate(([0.0], np.geomspace(1e-2, 300.0, 700)))
    out = radial_transform(m0, 3, radii=rho, support=(0.0, 1.0))
    rr = np.linspace(0, 1.0, 2001)
    space_side = surface_area(3) * np.trapezoid(m0(rr) ** 2 * rr ** 2, rr)
    freq_side = plancherel_radial(out.values, rho, 3) / (2 * math.pi) ** 3
    assert abs(space_side - freq_side) <= 1e-4 * space_side
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(2, "Gaussian self-transform d=2,3,4 (1e-6), sphere d=3 vs "
               "4*pi*sin/|xi| (1e-9), Plancherel (1e-4)", t0)


def test_acceptance_3_multiplier_operators():
    t0 = time.time()
    rng = np.random.default_rng(7)
    axes = tuple(Axis(16.0, 16) for _ in range(3))
    f = rng.standard_normal((16,) * 3) + 1j * rng.standard_normal((16,) * 3)
    m = rng.standard_normal((16,) * 3) + 1j * rng.standard_normal((16,) * 3)
    out = apply_multiplier(GridField(axes, f),
                           GridField(axes, m, rep="frequency"))
    # direct DFT sums, axis by axis, no FFT
    def dft(values, sign):
        res = values.astype(complex)
        for axis in range(3):
            n = values.shape[axis]
            w = np.exp(sign * 2j * np.pi * np.outer(np.arange(n),
                                                    np.arange(n)) / n)
            if sign > 0:
                w = w / n
            res = np.moveaxis(np.tensordot(w, np.moveaxis(res, axis, 0),
                                           axes=(1, 0)), 0, axis)
        return res
    want = dft(m * dft(f, -1), +1)
    assert np.max(np.abs(out.values - want)) <= 1e-9

    tent = lambda u: np.clip(1 - 4 * np.abs(np.asarray(u, float)), 0, None)
    big = tuple(Axis(16.0, 32) for _ in range(3))
    cone = build_dyadic_cone_multiplier(tent, big)
    tau = big[-1].freq_coords()
    xi = freq_magnitude(big[:-1])
    nz = np.argwhere(np.abs(cone.values) > 0)
    assert len(nz) > 500
    for idx in nz:
        t = tau[idx[-1]]
        assert t > 0
        k = math.floor(math.log2(t))
        assert 2.0 ** k <= t < 2.0 ** (k + 1)
        assert abs(xi[tuple(idx[:-1])] - t) < 2.0 ** (k - 2)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(3, "16^3 grid matches direct DFT-sum oracle (1e-9); slab/annulus "
               "bookkeeping at every nonzero point", t0)


def test_acceptance_4_edge_decay():
    t0 = time.time()
    for lam in (0.5, 1.0, 1.5):
        exponent = edge_decay_fit(lam)
        assert exponent >= lam + 0.9, (lam, exponent)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(4, "edge transform envelope exponents >= lam + 0.9 for "
               "lam in {1/2, 1, 3/2}", t0)


def test_acceptance_5_critical_exponent_scan():
    t0 = time.time()
    lam_grid = [round(0.6 + 0.05 * i, 10) for i in range(25)]
    results = critical_scan(4, [1.05, 8.0 / 7.0], lam_grid)
    predictions = {1.05: 4.0 / 1.05 - 2.5, 8.0 / 7.0: 1.0}
    for res in results:
        want = predictions[res.p]
        assert abs(res.prediction - want) <= 1e-12
        assert abs(res.estimate - res.prediction) <= 0.15, \
            (res.p, res.estimate, res.prediction)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(5, "estimated thresholds within +-0.15 of {1.3095, 1.0} at d=4",
            t0)


def test_acceptance_6_wave_decomposition():
    t0 = time.time()
    decs, l1_ratio, rate = decompose_range(range(3, 9), 3)
    assert l1_ratio <= 3.0, l1_ratio
    assert rate >= 2.0, rate
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(6, f"annulus density L1 ratio {l1_ratio:.3f} <= 3; error decay "
               f"rate {rate:.2f} >= 2 dyadic orders per scale", t0)


def test_acceptance_7_equivalence_probes():
    t0 = time.time()

    def annulus_bump(center, width, freq=0.0):
        def f(u):
            u = np.asarray(u, dtype=float)
            out = smooth_window(u, center - width, center - width / 2,
                                center + width / 2, center + width)
            return out * np.cos(freq * u) if freq else out
        return f

    profiles = [annulus_bump(1.0, 0.5), annulus_bump(0.8, 0.3),
                annulus_bump(1.2, 0.6), annulus_bump(1.5, 0.4),
                annulus_bump(1.0, 0.25), annulus_bump(0.9, 0.35, 3.0),
                annulus_bump(1.3, 0.5, 6.0), annulus_bump(1.1, 0.45, 10.0),
                annulus_bump(0.7, 0.2), annulus_bump(1.6, 0.3, 4.0)]
    bands = {}
    for nu in (1.2, math.inf):
        params = LorentzParams(1.2, nu)
        # the smallest c with every fourier/kernel ratio in [1/c, c]
        band = 1.0
        for gamma in profiles:
            ratio = fourier_side_quantity(gamma, 3, params).value \
                / kernel_side_quantity(gamma, 3, params,
                                       support=(0.25, 2.25)).value
            band = max(band, ratio, 1.0 / ratio)
        assert band <= 20.0, (nu, band)
        bands[nu] = band

    # scaling sweep containment: exact whenever the dilated family is in
    # the witness set
    axes = (Axis(16.0, 64), Axis(16.0, 64))
    for spec, nu in ((lambda r: np.clip(1 - np.asarray(r, float) ** 2, 0,
                                        None) ** 2.0, math.inf),
                     (lambda r: np.ones_like(np.asarray(r, float)), 2.0)):
        m = GridField(axes, spec(freq_magnitude(axes)), rep="frequency")
        out = scaling_sweep_experiment(m, axes, 1.2, nu, budget=36, seed=0)
        assert out["containment_ok"]
    elapsed = time.time() - t0
    assert elapsed < 900.0
    _report(7, f"two-sided bands {bands[1.2]:.2f} (nu=p) and "
               f"{bands[math.inf]:.2f} (weak) <= 20; sweep containment exact",
            t0)


def test_acceptance_8_cli_determinism(tmp_path):
    t0 = time.time()
    sample = tmp_path / "in.csv"
    sample.write_text("value,weight\n1,1\n2,1\n0.5,3\n")
    field_args = ["--ndim", "2", "--extent", "8", "--resolution", "16"]
    cases = {
        "lorentz-norm": ["--input", str(sample), "--p", "1.5", "--nu", "inf"],
        "characterize": ["--mode", "profile", "--profile", "tent",
                         "--dim", "3", "--p", "1.2", "--nu", "1.2",
                         "--truncation", "512", "--resolution", "16384",
                         "--kernel-rho-max", "64"],
        "br-scan": ["--p-list", "1.2", "--dim", "3", "--lam-lo", "0.3",
                    "--lam-hi", "1.1", "--lam-step", "0.2",
                    "--truncation", "8192", "--resolution", "65536",
                    "--decay-fit", "false"],
        "wave-check": ["--dim", "2", "--n-lo", "2", "--n-hi", "3"],
        "sph-probe": ["--dim", "2", "--shells", "6", "--r-hi", "3",
                      "--budget", "9", "--radius0", "0.125"],
        "opnorm": ["--mode", "sweep", "--multiplier", "br:2.0",
                   "--ndim", "2", "--extent", "12", "--resolution", "32",
                   "--budget", "12"],
        "apply": ["--input", "gauss:0.5", "--multiplier", "one"] + field_args,
    }
    for command, extra in cases.items():
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            code = cli_main([command, "--out", str(out), "--seed", "17"]
                            + extra)
            assert code == 0, command
            blob = {}
            for path in sorted(glob.glob(str(out / "*.json"))
                               + glob.glob(str(out / "*.csv"))
                               + glob.glob(str(out / "*.cfg"))):
                if os.path.basename(path) == "run_meta.json":
                    continue  # volatile by design
                with open(path, "rb") as fh:
                    blob[os.path.basename(path)] = fh.read()
            digests.append(blob)
        assert digests[0].keys() == digests[1].keys(), command
        for name in digests[0]:
            assert digests[0][name] == digests[1][name], (command, name)
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(8, "all seven subcommands byte-identical across reruns "
               "(summaries, CSVs, config echo)", t0)
