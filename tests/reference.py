"""Reference functions the tests check the package against.

Each is a direct formula, written without the package's own shortcuts.
"""

import numpy as np

from conemult import radial, wave
from conemult.bessel import bessel_j_scaled, surface_area
from conemult.bumps import BumpPhi
from conemult.characterize import polar_sample_set
from conemult.errors import BudgetError
from conemult import opnorm
from conemult.lorentz import (LorentzParams, RearrangedFunction,
                              WeightedSampleSet, lorentz_quasinorm,
                              rounded_up)
from conemult.multipliers import GridField, field_symbol
from conemult.opnorm import OpNormEstimate
from conemult.radial import RadialProfile, fourier_1d
from conemult.util import panel_nodes


def apply_full_transforms(f, sym):
    """The grid operator of the symbol array ``sym`` on the field ``f``:
    the full ``fftn`` (skipped for a field in frequency form), the product
    ``sym * F`` and the full ``ifftn``, as a field in space."""
    spectrum = f.values if f.rep == "frequency" else np.fft.fftn(f.values)
    return GridField(f.axes, np.fft.ifftn(sym * spectrum))


def witness_norms_eager(mult, spec, axes, p, nu, beat=0.0):
    """``opnorm._witness_norms`` of the multiplier field ``mult`` evaluated
    eagerly: ||f||_p first and F over the whole grid (``witness_input``
    without a workspace), the full product and transforms, and every
    witness through the rearrangement of all its samples.  The second
    entry is None when the sorted quasi-norm of ``rounded_up(|T f|)``
    shows the ratio cannot exceed ``beat > 0``."""
    denom, f = opnorm.witness_input(spec, axes, p)
    if denom == 0.0:
        return 0.0, None
    tf = apply_full_transforms(f, field_symbol(mult, axes))
    mags = np.abs(tf.values).ravel()
    if not np.any(mags > 0):
        return denom, 0.0
    samples = WeightedSampleSet(mags, tf.cell_volume())
    params = LorentzParams(p, nu)
    if beat > 0.0 and lorentz_quasinorm(rounded_up(samples), params) \
            <= beat * denom * (1.0 - opnorm._MAJORANT_SLACK):
        return denom, None
    return denom, lorentz_quasinorm(samples, params)


def critical_exponent_alt(dim, p):
    """The critical Bochner-Riesz order written as d(1/p - 1/2) - 1/2."""
    return dim * (1.0 / p - 0.5) - 0.5


def weighted_lp_norm(samples, p):
    """Plain weighted l^p norm; equals lorentz_quasinorm at nu = p."""
    peak = samples.values.max()
    if peak == 0.0:
        return 0.0
    return float(peak * np.sum((samples.values / peak) ** p
                               * samples.weights) ** (1.0 / p))


def weighted_line_samples(f, weight_exponent, truncation, resolution):
    """|f| on a symmetric midpoint grid of [-R, R] under (1 + |s|)^a ds.

    Cell i centred at s_i carries weight cell_width * (1 + |s_i|)^a.
    """
    h = 2.0 * truncation / resolution
    s = -truncation + (np.arange(resolution) + 0.5) * h
    return WeightedSampleSet(np.abs(np.asarray(f(s), dtype=float)),
                             h * (1.0 + np.abs(s)) ** weight_exponent)


def symbol_scan_per_t(m0, dim, params, t_grid, truncation,
                      spatial_truncation, resolution):
    """t -> the symbol scan's value at each dilation t of ``t_grid``.

    The windowed dilate phi(r) m0(t r) is transformed, and the quasi-norm
    taken of the full line's samples |g_hat(s)| (1+|s|)^(-(d-1)/2) on
    |s| <= R, each cell h (1+|s|)^(d-1): no fold, one dilation at a time.
    """
    phi = BumpPhi()
    per_t = {}
    for t in t_grid:
        sigma, ghat = fourier_1d(lambda r: phi(r) * m0(t * r),
                                 spatial_truncation, resolution)
        keep = np.abs(sigma) <= truncation
        s = np.abs(sigma[keep])
        samples = WeightedSampleSet(
            np.abs(ghat[keep]) / (1.0 + s) ** ((dim - 1) / 2.0),
            (sigma[1] - sigma[0]) * (1.0 + s) ** (dim - 1))
        per_t[float(t)] = lorentz_quasinorm(samples, params)
    return per_t


def sphere_hat(radius, dim, xi):
    """Fourier transform of the surface measure of the sphere of ``radius``.

    F[sigma_r](xi) = (2 pi)^(d/2) r^(d-1) g_{d/2-1}(r|xi|); the value at the
    origin is the total mass r^(d-1) |S^(d-1)|.
    """
    z = radius * np.asarray(xi, dtype=float)
    return (2.0 * np.pi) ** (dim / 2.0) * radius ** (dim - 1) \
        * bessel_j_scaled(dim / 2.0 - 1.0, z)


def plancherel_radial(profile_values, radii, dim):
    """Weighted l2 mass |S^{d-1}| * integral |f(r)|^2 r^(d-1) dr (trapezoid)."""
    r = np.asarray(radii, dtype=float)
    f2 = np.abs(np.asarray(profile_values)) ** 2 * r ** (dim - 1)
    return surface_area(dim) * float(np.trapezoid(f2, r))


def radial_transform_per_radius(m0, dim, radii, support, inverse=False,
                                panel_budget=400_000):
    """``radial_transform`` with one Bessel call per radius: each radius's
    node-set sum of m0(r) r^(d-1) w g_nu(r rho), on the node set of its
    octave group."""
    a, b = float(support[0]), float(support[1])
    radii = np.asarray(radii, dtype=float)
    nu = dim / 2.0 - 1.0
    pref = (2.0 * np.pi) ** (dim / 2.0)
    if inverse:
        pref *= (2.0 * np.pi) ** (-dim)
    values = np.empty(len(radii), dtype=complex)
    reliable = np.ones(len(radii), dtype=bool)
    order = np.argsort(radii)
    for sel in radial._dyadic_groups(radii[order]):
        idx = order[sel]
        try:
            r, w = panel_nodes(a, b, radii[idx].max(),
                               radial._NODES_PER_PERIOD, panel_budget)
        except BudgetError:
            values[idx] = np.nan
            reliable[idx] = False
            continue
        mvals = np.asarray(m0(r), dtype=complex) * r ** (dim - 1) * w
        for i in idx:
            values[i] = pref * np.sum(mvals * bessel_j_scaled(nu, r * radii[i]))
    return RadialProfile(radii, values, dim, reliable)


def abel_samples_resampled(symbol, h, nt):
    """``radial._abel_samples`` sampling the symbol afresh on every node
    of each step h/q, q = 1, 2, 4, ..."""
    q = 1
    while True:
        s = h / q * np.arange(q * (nt - 1) + radial._ABEL_REACH)
        samples = np.asarray(symbol(s), dtype=complex)
        rows = radial._abel_rows(q, nt)
        error = np.abs(
            radial._abel_correction(samples, q, rows, radial._ABEL_RULE)
            - radial._abel_correction(samples, q, rows, radial._ABEL_CHECK))
        scale = 0.5 * np.pi / q * (np.abs(samples) @ np.arange(len(s)))
        if error.sum() <= radial._ABEL_TOL * scale \
                or q == radial._ABEL_Q_CAP:
            return q, samples
        q *= 2


def abel_far_per_row(values, q, rows):
    """``radial._abel_far`` one row at a time: at each row K = q k, the
    weights (j - K)^(-1/2) (j + K)^(-1/2), j > K, as the product of two
    slices of one table, in columns of 2^14 weights, each one matrix
    product added to the row."""
    n = len(values)
    inv_sqrt = np.zeros(2 * n)
    inv_sqrt[1:] = 1.0 / np.sqrt(np.arange(1.0, 2 * n))
    out = np.zeros((len(rows), values.shape[1]))
    for i, k in enumerate(q * rows):
        for lo in range(k + 1, n, 1 << 14):
            hi = min(lo + (1 << 14), n)
            out[i] += (inv_sqrt[lo - k:hi - k] * inv_sqrt[lo + k:hi + k]) \
                @ values[lo:hi]
    return out


def tie_merged_bincount(values, weights, order, keep):
    """``lorentz._tie_merged`` with every piece's measure summed by
    ``bincount``, ties or none."""
    v = values[order]
    start = np.empty(len(v), dtype=bool)
    start[0] = True
    start[1:] = v[1:] != v[:-1]
    group = np.empty(len(values), dtype=np.intp)
    group[order] = np.cumsum(start) - 1
    if keep is not None:
        group, weights = group[keep], weights[keep]
    merged = np.bincount(group, weights=weights)[::-1]
    breakpoints = np.concatenate(([0.0], np.cumsum(merged)))
    return RearrangedFunction(breakpoints, v[start][::-1])


def _shell_witness_ratio(basis, weights, a, p, dim):
    th = basis.dr * (weights @ basis.profiles[a])
    if not np.any(th != 0):
        return 0.0
    num = lorentz_quasinorm(polar_sample_set(basis.rho[1:], th[1:], dim),
                            LorentzParams(p, p))
    wnorm = float(np.sum(np.abs(weights) ** p * basis.shell_radii ** (dim - 1)
                         * basis.dr)) ** (1.0 / p)
    return num / (wave._ball_lp(a, dim, p) * wnorm)


def shell_lower_bound_every_step(dim, p, r_grid, kernel, budget,
                                 spread_radii, seed):
    """``wave.shell_operator_lower_bound`` as its own serial loop, which
    evaluates the witness of every step, a repeated one too."""
    rng = np.random.default_rng(seed)
    basis = wave._build_shell_basis(dim, r_grid, kernel, spread_radii)
    nsh = len(r_grid)
    best, best_spec = 0.0, None
    improvements = []
    betas = [0.0, -(dim - 1) / p, -(dim - 1), 1.0 - dim / p]
    for step in range(budget):
        kind = step % 3
        if kind == 0:
            j = (step // 3) % nsh
            weights = np.zeros(nsh)
            weights[j] = 1.0
            spec = {"family": "single_shell", "params": {"index": int(j)}}
        elif kind == 1:
            beta = betas[(step // 3) % len(betas)]
            weights = basis.shell_radii ** beta
            spec = {"family": "coherent_profile", "params": {"beta": beta}}
        else:
            beta = betas[int(rng.integers(0, len(betas)))]
            signs = rng.choice([-1.0, 1.0], size=nsh)
            weights = signs * basis.shell_radii ** beta
            spec = {"family": "random_signs",
                    "params": {"beta": beta, "signs": signs.tolist()}}
        a = spread_radii[step % len(spread_radii)]
        spec["params"]["spread"] = a
        ratio = _shell_witness_ratio(basis, weights, a, p, dim)
        if ratio > best:
            best, best_spec = ratio, spec
            improvements.append((step, float(ratio)))
    return OpNormEstimate(float(best), best_spec, p, float(p), budget, seed,
                          improvements)
