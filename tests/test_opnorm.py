import functools
import itertools
import math
import sys

import numpy as np
import pytest

from conemult import cli, multipliers, opnorm, util
from conemult.errors import DomainError
from conemult.multipliers import Axis, GridField, apply_multiplier, \
    field_symbol, freq_magnitude
from conemult.opnorm import (estimate_lower, evaluate_witness,
                             scaling_sweep_experiment)
from conemult.report import fields_dict


def axes2(extent=16.0, res=64):
    return (Axis(extent, res), Axis(extent, res))


def radial_field(m0, axes):
    """The radial symbol ``m0`` as a multiplier field on the grid."""
    return GridField(axes, m0(freq_magnitude(axes)), rep="frequency")


def test_identity_operator_unit_norm():
    ax = axes2(res=32)
    est = estimate_lower(lambda f: f, ax, 1.5, 1.5, budget=6, seed=0)
    assert abs(est.lower_bound - 1.0) <= 1e-9


def test_scalar_operator():
    ax = axes2(res=32)
    op = lambda f: GridField(f.axes, -2.5j * f.values)
    est = estimate_lower(op, ax, 2.0, 2.0, budget=6, seed=0)
    assert abs(est.lower_bound - 2.5) <= 1e-9


def test_zero_norm_witness_skipped():
    ax = axes2(res=32)
    # operator annihilating everything: ratios all zero but no crash
    op = lambda f: GridField(f.axes, 0.0 * f.values)
    est = estimate_lower(op, ax, 1.5, math.inf, budget=5, seed=0)
    assert est.lower_bound == 0.0


def test_budget_monotonicity_same_seed():
    ax = axes2(res=32)
    xi = freq_magnitude(ax)
    sym = GridField(ax, np.exp(-0.1 * (xi - 2.0) ** 2).astype(complex),
                    rep="frequency")
    op = lambda f: apply_multiplier(f, sym)
    prev = 0.0
    for budget in (3, 6, 12, 24, 48):
        est = estimate_lower(op, ax, 1.3, math.inf, budget=budget, seed=11)
        assert est.lower_bound >= prev - 1e-15
        prev = est.lower_bound


def test_witness_reevaluation_reproduces_ratio():
    ax = axes2(res=32)
    xi = freq_magnitude(ax)
    sym = GridField(ax, (1.0 / (1.0 + xi ** 2)).astype(complex),
                    rep="frequency")
    op = lambda f: apply_multiplier(f, sym)
    est = estimate_lower(op, ax, 1.2, math.inf, budget=30, seed=3)
    again = evaluate_witness(op, est.witness, ax, 1.2, math.inf)
    assert abs(again - est.lower_bound) <= 1e-10 * est.lower_bound


def test_halfspace_vs_random_search_oracle():
    ax = axes2(extent=8.0, res=32)
    xi1 = ax[0].freq_coords()
    sym = np.broadcast_to((xi1 >= 0)[:, None], (32, 32)).astype(complex)
    m = GridField(ax, sym.copy(), rep="frequency")
    op = lambda f: apply_multiplier(f, m)
    est = estimate_lower(op, ax, 2.0, 2.0, budget=60, seed=1)
    # brute-force random search at tiny scale (an independent lower bound);
    # the structured search must not trail it by more than 25%, and both
    # stay below the exact operator norm sup|m| = 1
    rng = np.random.default_rng(99)
    best = 0.0
    for _ in range(20000):
        f = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        fh = np.fft.fftn(f)
        num = np.linalg.norm(sym * fh)
        best = max(best, num / np.linalg.norm(fh))
    assert est.lower_bound >= 0.75 * best
    assert est.lower_bound <= 1.0 + 1e-9
    assert best <= 1.0 + 1e-9


def test_dilation_identity_discrete_gap():
    # t^{d/p} ||eta(t.)||_p = ||eta||_p on the continuum; on the grid the
    # norms are those the search takes of a dilated bump
    ax = axes2(extent=24.0, res=128)
    vol = math.prod(a.step for a in ax)

    def norm(t):
        return opnorm._separable_lp_norm(
            opnorm._bump_factors(ax, {"t": t}), vol, 1.4)
    for t in (0.5, 1.0, 2.0):
        assert abs(t ** (2 / 1.4) * norm(t) - norm(1.0)) / norm(1.0) <= 0.01


def test_sweep_constant_symbol_two_routes_agree():
    ax = axes2(extent=16.0, res=64)
    one = radial_field(lambda r: np.ones_like(np.asarray(r, float)), ax)
    out = scaling_sweep_experiment(one, ax, 1.3, 2.0, budget=18, seed=0)
    assert out["containment_ok"]
    # for the identity both routes compute the same dilation-invariant size
    eta = _oracle_witness({"family": "dilated_bump", "params": {"t": 1.0}},
                          ax)
    eta_norm, eta_lor = _oracle_lp_norm(eta, 1.3), \
        _oracle_lorentz_norm(eta, 1.3, 2.0)
    assert abs(out["rhs_sup"] - eta_lor) <= 0.02 * eta_lor
    assert out["lower_bound"] >= eta_lor / eta_norm * (1 - 1e-9)


def test_sweep_cone_mean_symbol_band():
    ax = axes2(extent=16.0, res=64)
    br = lambda r: np.clip(1.0 - np.asarray(r, float) ** 2, 0.0, None) ** 2.0
    out = scaling_sweep_experiment(radial_field(br, ax), ax, 1.2, math.inf,
                                   budget=48, seed=2)
    assert out["containment_ok"]
    assert 1.0 - 1e-9 <= out["ratio_band"] <= 10.0


def test_no_admissible_dilation_rejected():
    ax = (Axis(4.0, 4), Axis(4.0, 4))
    with pytest.raises(DomainError):
        scaling_sweep_experiment(
            radial_field(lambda r: np.ones_like(np.asarray(r, float)), ax),
            ax, 1.2, math.inf, budget=48)


def test_budget_validation():
    with pytest.raises(DomainError):
        estimate_lower(lambda f: f, axes2(res=32), 2.0, 2.0, budget=0)


def _double_evaluation_sweep(m0, axes, p, nu, budget, seed):
    """The sweep as it was: the search evaluates the swept dilations again."""
    d = len(axes)
    tmin, tmax = opnorm._dilation_bounds(axes)
    t_used = [float(t) for t in np.geomspace(tmin, tmax, 13)]
    operator = lambda f: _oracle_apply(f, m0)
    rhs_per_t, scale_per_t = {}, {}
    for t in t_used:
        f = _oracle_witness({"family": "dilated_bump", "params": {"t": t}},
                            axes)
        denom = _oracle_lp_norm(f, p)
        num = _oracle_lorentz_norm(operator(f), p, nu)
        rhs_per_t[t] = t ** (d / p) * num
        scale_per_t[t] = t ** (d / p) * denom
    rhs = max(rhs_per_t.values())
    scale_sup = max(scale_per_t.values())
    est = _oracle_estimate_lower(operator, axes, p, nu, budget=budget,
                                 seed=seed, swept=[(t, None) for t in t_used])
    contained = rhs <= est.lower_bound * scale_sup * (1.0 + 1e-12)
    return {
        "p": p, "nu": nu, "dim": d,
        "rhs_sup": rhs, "rhs_per_t": rhs_per_t,
        "lower_bound": est.lower_bound, "witness": est.witness,
        "scale_sup": scale_sup, "containment_ok": bool(contained),
        "ratio_band": est.lower_bound * scale_sup / rhs if rhs > 0 else
        float("inf"),
        "t_excluded": [], "seed": seed, "improvements": est.improvements,
    }


# outputs of a sweep or an estimate that are ratios of norms (or their
# sups); everything else must agree exactly
_RATIO_KEYS = ("rhs_sup", "lower_bound", "scale_sup", "ratio_band")


def _assert_same_up_to_ratios(got, want, rel=1e-12):
    """Equal outputs, except the ratios, which agree to ``rel`` relative."""
    close = lambda x: pytest.approx(x, rel=rel, abs=0.0)
    exact = set(want) - set(_RATIO_KEYS) - {"rhs_per_t", "improvements"}
    assert set(got) == set(want)
    assert {k: got[k] for k in exact} == {k: want[k] for k in exact}
    for key in set(_RATIO_KEYS) & set(want):
        assert got[key] == close(want[key])
    if "rhs_per_t" in want:
        assert list(got["rhs_per_t"]) == list(want["rhs_per_t"])
        assert list(got["rhs_per_t"].values()) == \
            close(list(want["rhs_per_t"].values()))
    assert [step for step, _ in got["improvements"]] == \
        [step for step, _ in want["improvements"]]
    assert [r for _, r in got["improvements"]] == \
        close([r for _, r in want["improvements"]])


def _oracle_apply(f, m):
    """The multiplier as the oracles apply it."""
    return apply_multiplier(f, m)


def _counting_multiplier(monkeypatch):
    """Count the multiplier applications of the search (the apply step of
    its workspace) and of the oracles (``_oracle_apply``)."""
    calls = []
    apply = opnorm._Workspace.apply

    def counted(work, f):
        calls.append(1)
        return apply(work, f)

    def counted_oracle(f, m):
        calls.append(1)
        return apply_multiplier(f, m)
    monkeypatch.setattr(opnorm._Workspace, "apply", counted)
    monkeypatch.setattr(sys.modules[__name__], "_oracle_apply", counted_oracle)
    return calls


@pytest.mark.parametrize("nu", [math.inf, 2.0])
def test_sweep_evaluates_each_dilation_once(monkeypatch, nu):
    ax = axes2(extent=16.0, res=64)
    xi = freq_magnitude(ax)
    m = GridField(ax, np.clip(1.0 - xi ** 2, 0.0, None) ** 2.0,
                  rep="frequency")
    calls = _counting_multiplier(monkeypatch)
    out = scaling_sweep_experiment(m, ax, 1.2, nu, budget=48, seed=3)
    assert len(out["rhs_per_t"]) == 13 and not out["t_excluded"]
    # 13 swept steps come free and 11 refinements repeat an earlier witness
    assert len(calls) == 37
    calls.clear()
    # the search goes through the witnesses' spectra, the oracle through
    # their space values: the ratios agree to rounding
    _assert_same_up_to_ratios(out, _double_evaluation_sweep(m, ax, 1.2, nu,
                                                            48, 3))
    assert len(calls) == 13 + 48


def test_sweep_budget_below_dilation_count_fills_every_dilation(monkeypatch):
    ax = axes2(extent=16.0, res=64)
    m0 = lambda r: np.exp(-0.5 * np.asarray(r, float) ** 2)
    calls = _counting_multiplier(monkeypatch)
    out = scaling_sweep_experiment(radial_field(m0, ax), ax, 1.2, math.inf,
                                   budget=5, seed=0)
    assert len(out["rhs_per_t"]) == 13
    assert all(v > 0 for v in out["rhs_per_t"].values())
    # the 13 dilations, then the refinement at step 2; the other 4 steps
    # reuse swept dilations
    assert len(calls) == 13 + 1


def _oracle_estimate_lower(operator, axes, p, nu, budget=48, seed=0,
                           swept=None):
    """The search as it was: no seen-set, no majorant, no leftover scoring."""
    if budget < 1:
        raise DomainError("budget must be at least 1")
    rng = np.random.default_rng(seed)
    stream = opnorm._WitnessStream(axes, rng, swept)
    best_ratio = 0.0
    best_spec = None
    improvements = []
    for step in range(budget):
        if best_spec is not None and step % 3 == 2:
            spec = opnorm._refine(best_spec, rng, stream.tmin, stream.tmax)
            norms = None
        else:
            spec, norms = next(stream)
        denom, num = norms or opnorm._witness_norms(operator, spec, axes, p,
                                                    nu)
        if denom == 0.0:
            continue
        ratio = num / denom
        if ratio > best_ratio:
            best_ratio = ratio
            best_spec = spec
            improvements.append((step, float(ratio)))
    return opnorm.OpNormEstimate(float(best_ratio), best_spec, p, nu, budget,
                                 seed, improvements)


def _full_grid_modulation(axes, freqs):
    """exp(i freqs . x) from the phase summed over the full grid."""
    coords = np.meshgrid(*[ax.space_coords() for ax in axes],
                         indexing="ij", sparse=True)
    phase = sum(w * c for w, c in zip(freqs, coords))
    return np.exp(1j * phase)


def _oracle_radius_sq(axes, center=None, scale=1.0):
    """|scale (x - center)|^2 on the full grid."""
    coords = np.meshgrid(*[ax.space_coords() for ax in axes],
                         indexing="ij", sparse=True)
    if center is None:
        center = [0.0] * len(axes)
    return sum(((c - c0) * scale) ** 2 for c, c0 in zip(coords, center))


def _oracle_witness(spec, axes):
    """The witness of ``spec`` in space, each family from its formula on
    the full grid."""
    family = spec["family"]
    prm = spec["params"]
    if family == "dilated_bump":
        vals = opnorm.default_eta(_oracle_radius_sq(
            axes, prm.get("center"), prm["t"])).astype(complex)
        if prm.get("freqs"):
            vals = vals * _full_grid_modulation(axes, prm["freqs"])
        return GridField(axes, vals)
    if family == "random_superposition":
        vals = np.zeros([ax.resolution for ax in axes], dtype=complex)
        for piece in prm["pieces"]:
            bump = opnorm.default_eta(_oracle_radius_sq(
                axes, piece["center"], piece["t"]))
            vals += (piece["coef_re"] + 1j * piece["coef_im"]) * bump \
                * _full_grid_modulation(axes, piece["freqs"])
        return GridField(axes, vals)
    if family == "radial_focus":
        rad = np.sqrt(_oracle_radius_sq(axes))
        vals = np.exp(-0.5 * ((rad - prm["a"]) / prm["s"]) ** 2)
        return GridField(axes, vals.astype(complex))
    if family == "annulus_knapp":
        return GridField(axes, np.fft.ifftn(_oracle_knapp_window(axes, prm)))
    raise ValueError(family)


def _oracle_knapp_window(axes, prm):
    """The spectrum of an annulus-Knapp witness, from new full-grid arrays."""
    xi_mag = freq_magnitude(axes)
    window = np.exp(-0.5 * ((xi_mag - prm["r0"]) / prm["w"]) ** 2)
    if prm.get("sector_width") and len(axes) >= 2:
        coords = np.meshgrid(*[ax.freq_coords() for ax in axes],
                             indexing="ij", sparse=True)
        angle = np.arctan2(coords[1], coords[0] + 1e-300)
        delta = np.angle(np.exp(1j * (angle - prm["sector_angle"])))
        window = window * np.exp(-0.5 * (delta / prm["sector_width"]) ** 2)
    return window.astype(complex)


def _oracle_outer(factors):
    """The full-grid outer product of per-axis factors, as a new array."""
    grids = np.meshgrid(*factors, indexing="ij", sparse=True)
    return functools.reduce(np.multiply, grids)


def _grid_multiplier(spec, res=32):
    axes = cli.build_axes(16.0, res, 3)
    return axes, cli.grid_multiplier(spec, axes)


def _grid_operator(spec, res=32):
    axes, mult = _grid_multiplier(spec, res)
    return axes, lambda f: apply_multiplier(f, mult)


@pytest.mark.parametrize("spec", ["cone_tent", "br:2.0", "oscillatory:3",
                                  "halfspace"])
def test_search_matches_the_plain_loop(monkeypatch, spec):
    axes, mult = _grid_multiplier(spec)
    space_calls = []

    def op(f):
        space_calls.append(1)
        return apply_multiplier(f, mult)
    spectrum_calls = _counting_multiplier(monkeypatch)
    for nu in (math.inf, 2.0):
        for budget in (1, 5, 48):
            # the multiplier itself: each witness enters by its spectrum,
            # with the same operator calls
            space_calls.clear()
            spectrum_calls.clear()
            by_spectrum = estimate_lower(mult, axes, 1.2, nu, budget=budget,
                                         seed=7)
            got = estimate_lower(op, axes, 1.2, nu, budget=budget, seed=7)
            assert len(spectrum_calls) == len(space_calls)
            _assert_same_up_to_ratios(fields_dict(by_spectrum), fields_dict(got))
            want = _oracle_estimate_lower(op, axes, 1.2, nu, budget=budget,
                                          seed=7)
            assert got == want


def test_search_skips_repeated_witnesses():
    axes, op = _grid_operator("cone_tent")
    calls = []

    def counted(f):
        calls.append(1)
        return op(f)
    got = estimate_lower(counted, axes, 1.2, math.inf, budget=48, seed=7)
    new_calls = len(calls)
    calls.clear()
    want = _oracle_estimate_lower(counted, axes, 1.2, math.inf, budget=48,
                                  seed=7)
    assert got == want
    assert new_calls < len(calls) == 48


def test_majorant_rejects_losers_without_the_exact_norm(monkeypatch):
    axes, op = _grid_operator("cone_tent")
    exact = []
    norm = opnorm.lorentz_quasinorm

    def counted(samples, params):
        if len(samples.values) == 32 ** 3:
            exact.append(1)
        return norm(samples, params)
    monkeypatch.setattr(opnorm, "lorentz_quasinorm", counted)
    spec = {"family": "dilated_bump", "params": {"t": 1.0}}
    denom, num = opnorm._witness_norms(op, spec, axes, 1.2, math.inf)
    assert len(exact) == 1
    # a ratio to beat just below the witness's own keeps the exact norm
    assert opnorm._witness_norms(op, spec, axes, 1.2, math.inf,
                                 0.5 * num / denom) == (denom, num)
    assert len(exact) == 2
    # one 1.1 times above it is out of reach of the 17/16 majorant
    assert opnorm._witness_norms(op, spec, axes, 1.2, math.inf,
                                 1.1 * num / denom) == (denom, None)
    assert len(exact) == 2


def test_sweep_scores_dilations_the_budget_does_not_reach(monkeypatch):
    axes = cli.build_axes(16.0, 64, 2)
    m = cli.grid_multiplier("oscillatory:3", axes)
    calls = _counting_multiplier(monkeypatch)
    out = scaling_sweep_experiment(m, axes, 1.2, math.inf, budget=3, seed=0)
    assert out["containment_ok"]
    assert out["ratio_band"] >= 1.0 - 1e-12
    # the 13 swept dilations, then one refinement at step 2; the 11 swept
    # dilations left over are scored as steps 3 .. 13
    assert len(calls) == 13 + 1
    steps = [step for step, _ in out["improvements"]]
    assert 3 <= max(steps) <= 13


def _family_specs(axes, family, count=4, seed=0):
    stream = opnorm._WitnessStream(axes, np.random.default_rng(seed))
    stream.queue = []
    specs = []
    for _ in range(count):
        stream.counter = opnorm.FAMILIES.index(family)   # the next draw's
        specs.append(stream._draw())
    if family == "dilated_bump":
        # the swept form: no center, no modulation
        specs.append({"family": family, "params": {"t": stream.tmax}})
    return specs


@pytest.mark.parametrize("family", opnorm.FAMILIES)
@pytest.mark.parametrize("axes", [cli.build_axes(16.0, 32, 3), axes2(),
                                  (Axis(8.0, 32), Axis(16.0, 64),
                                   Axis(12.0, 16))])
def test_witness_spectrum_matches_space_witness_and_fftn(family, axes):
    for spec in _family_specs(axes, family):
        for p in (1.2, 2.0):
            denom, f = opnorm.witness_input(spec, axes, p)
            space = _oracle_witness(spec, axes)
            want_denom = _oracle_lp_norm(space, p)
            assert denom == pytest.approx(want_denom, rel=1e-12, abs=0.0)
            if family == "radial_focus":
                # no cheaper form: the space witness itself
                assert f.rep == "space"
                assert np.array_equal(f.values, space.values)
                continue
            want = np.fft.fftn(space.values)
            assert f.rep == "frequency" and f.axes == space.axes
            err = np.max(np.abs(f.values - want)) / np.max(np.abs(want))
            assert err <= 1e-12


def test_general_operators_take_the_space_route(monkeypatch):
    axes, mult = _grid_multiplier("br:2.0")
    seen, spectra = [], []
    spectrum = opnorm.witness_input

    def counted_spectrum(spec, ax, p, work=None):
        spectra.append(spec["family"])
        return spectrum(spec, ax, p, work)
    monkeypatch.setattr(opnorm, "witness_input", counted_spectrum)
    applied = _counting_multiplier(monkeypatch)

    def op(f):
        seen.append(f.rep)
        return apply_multiplier(f, mult)
    by_space = estimate_lower(op, axes, 1.2, math.inf, budget=24, seed=7)
    # a general operator sees each witness of witness_input in space
    assert not applied and set(seen) == {"space"}
    assert set(spectra) == set(opnorm.FAMILIES)
    assert len(spectra) >= len(seen) > 0
    n_spectra = len(spectra)
    spectra.clear()
    by_spectrum = estimate_lower(mult, axes, 1.2, math.inf, budget=24, seed=7)
    assert len(applied) == len(seen) and len(spectra) == n_spectra
    _assert_same_up_to_ratios(fields_dict(by_spectrum),
                              fields_dict(by_space))
    # the witnesses as they were built in space give the same search
    with monkeypatch.context() as mp:
        mp.setattr(opnorm, "_witness_norms", _space_route)
        want = estimate_lower(op, axes, 1.2, math.inf, budget=24, seed=7)
    _assert_same_up_to_ratios(fields_dict(by_space), fields_dict(want))
    # a multiplier GridField must be in frequency form
    space_field = GridField(axes, mult.values)
    with pytest.raises(DomainError, match="frequency form"):
        estimate_lower(space_field, axes, 1.2, math.inf, budget=1)


@pytest.mark.parametrize("family", opnorm.FAMILIES)
@pytest.mark.parametrize("spec", ["cone_tent", "br:2.0"])
def test_witness_check_agrees_with_the_multiplier_route(family, spec):
    # a witness re-evaluated through apply_multiplier, as an outside check
    # does, gives the ratio of the multiplier route.  The space route's
    # extra DFT round trip errs by about 1e-16 ||f||, so a witness that T
    # nearly annihilates (ratio 6e-100 for one Knapp witness off the br:2.0
    # support) agrees only to 1e-12 of sup |m|, not of its own ratio
    axes, mult = _grid_multiplier(spec)
    scale = float(np.abs(field_symbol(mult, axes)).max())
    for witness in _family_specs(axes, family):
        want = evaluate_witness(mult, witness, axes, 1.2, math.inf)
        got = evaluate_witness(lambda f: apply_multiplier(f, mult), witness,
                               axes, 1.2, math.inf)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


@pytest.mark.parametrize("spec", ["cone_tent", "br:2.0"])
def test_recorded_witness_check_reproduces_the_lower_bound(spec):
    # the best witness of a search, re-evaluated through apply_multiplier
    axes, mult = _grid_multiplier(spec)
    for seed in (0, 7):
        est = estimate_lower(mult, axes, 1.2, math.inf, budget=24, seed=seed)
        got = evaluate_witness(lambda f: apply_multiplier(f, mult),
                               est.witness, axes, 1.2, math.inf)
        assert got == pytest.approx(est.lower_bound, rel=1e-12, abs=0.0)


def _spectrum_route_input(spec, axes, p):
    """witness_input as it was: new arrays for every witness."""
    family = spec["family"]
    prm = spec["params"]
    if family == "dilated_bump":
        factors = opnorm._bump_factors(axes, prm)
        spectrum = _oracle_outer([np.fft.fft(g) for g in factors])
        denom = opnorm._separable_lp_norm(
            factors, math.prod(ax.step for ax in axes), p)
        return denom, GridField(axes, spectrum, rep="frequency")
    if family == "random_superposition":
        shape = [ax.resolution for ax in axes]
        space = np.zeros(shape, dtype=complex)
        spectrum = np.zeros(shape, dtype=complex)
        for piece in prm["pieces"]:
            factors = opnorm._bump_factors(axes, piece, piece["coef_re"]
                                           + 1j * piece["coef_im"])
            space += _oracle_outer(factors)
            spectrum += _oracle_outer([np.fft.fft(g) for g in factors])
        denom = _oracle_lp_norm(GridField(axes, space), p)
        return denom, GridField(axes, spectrum, rep="frequency")
    if family == "annulus_knapp":
        window = _oracle_knapp_window(axes, prm)
        denom = _oracle_lp_norm(GridField(axes, np.fft.ifftn(window)), p)
        return denom, GridField(axes, window, rep="frequency")
    f = _oracle_witness(spec, axes)
    return _oracle_lp_norm(f, p), f


def _oracle_lp_norm(f, p):
    """||f||_p with cell-volume weights, from new arrays."""
    vals = np.abs(f.values).ravel()
    if not np.any(vals > 0):
        return 0.0
    vol = f.cell_volume()
    return float(np.sum((vals / vals.max()) ** p) * vol) ** (1.0 / p) \
        * vals.max()


def _oracle_lorentz_norm(f, p, nu):
    """||f||_{p,nu} with cell-volume weights, from new arrays."""
    return _oracle_numerator(f, 1.0, p, nu, 0.0)


def _lp_norm(f, p):
    return opnorm._lp_norm(np.abs(f.values).ravel(), f.cell_volume(), p)


def test_grid_norms_equal_the_new_array_route():
    rng = np.random.default_rng(8)
    for axes in (axes2(res=32), cli.build_axes(16.0, 16, 3)):
        shape = [ax.resolution for ax in axes]
        field = GridField(axes, rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))
        for p in (1.2, 2.0, 3.0):
            assert _lp_norm(field, p) == _oracle_lp_norm(field, p)
    assert _lp_norm(GridField(axes, np.zeros(shape)), 1.2) == 0.0


def _oracle_numerator(tf, denom, p, nu, beat):
    """_witness_norms' ||T f||_{p,nu} from new arrays: None when the
    rounded-up majorant shows the ratio cannot exceed ``beat > 0``."""
    vals = np.abs(tf.values).ravel()
    if not np.any(vals > 0):
        return 0.0
    samples = opnorm.WeightedSampleSet(vals, tf.cell_volume())
    params = opnorm.LorentzParams(p, nu)
    if beat > 0.0 and opnorm.lorentz_quasinorm(
            opnorm.rounded_up(samples), params) \
            <= beat * denom * (1.0 - opnorm._MAJORANT_SLACK):
        return None
    return opnorm.lorentz_quasinorm(samples, params)


def _spectrum_route(mult):
    """_witness_norms of the multiplier ``mult`` as it was: the witness's
    spectrum through apply_multiplier, and new arrays at every step."""
    def norms(operator, spec, axes, p, nu, beat=0.0):
        denom, f = _spectrum_route_input(spec, axes, p)
        if denom == 0.0:
            return 0.0, None
        return denom, _oracle_numerator(apply_multiplier(f, mult), denom, p,
                                        nu, beat)
    return norms


def _space_route(operator, spec, axes, p, nu, beat=0.0):
    """_witness_norms of a general operator as it was: the operator called
    on the witness built in space (``_oracle_witness``)."""
    f = _oracle_witness(spec, axes)
    denom = _oracle_lp_norm(f, p)
    if denom == 0.0:
        return 0.0, None
    return denom, _oracle_numerator(operator(f), denom, p, nu, beat)


@pytest.mark.parametrize("spec", ["cone_tent", "br:2.0", "oscillatory:3",
                                  "halfspace"])
def test_workspace_search_equals_the_spectrum_route(monkeypatch, spec):
    axes, mult = _grid_multiplier(spec)
    for nu in (math.inf, 2.0):
        for budget in (1, 5, 48):
            got = estimate_lower(mult, axes, 1.2, nu, budget=budget, seed=7)
            sweep = scaling_sweep_experiment(mult, axes, 1.2, nu,
                                             budget=budget, seed=7)
            with monkeypatch.context() as mp:
                mp.setattr(opnorm, "_witness_norms", _spectrum_route(mult))
                want = estimate_lower(mult, axes, 1.2, nu, budget=budget,
                                      seed=7)
                want_sweep = scaling_sweep_experiment(mult, axes, 1.2, nu,
                                                      budget=budget, seed=7)
            assert got == want
            assert sweep == want_sweep


def _boxed_symbol(rng, shape, cut):
    """A random complex symbol whose support box is a cyclic run of indices
    on each axis in ``cut``, strictly shorter than the axis, and the whole
    of every other axis; returns the symbol and the runs."""
    sym = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sym[rng.random(shape) < 0.3] = 0.0   # zeros inside the box too
    runs, kept = [], []
    for k, n in enumerate(shape):
        start, length = int(rng.integers(n)), int(rng.integers(1, n))
        runs.append((start, length) if k in cut else None)
        kept.append((start + np.arange(length)) % n if k in cut
                    else np.arange(n))
    keep = np.zeros(shape, dtype=bool)
    keep[np.ix_(*kept)] = True
    sym[~keep] = 0.0
    # every kept hyperplane of every axis carries a nonzero value
    for k, indices in enumerate(kept):
        point = [int(other[0]) for other in kept]
        for i in indices:
            point[k] = int(i)
            sym[tuple(point)] = 1.0
    return sym, runs


def _run_indices(slices, n):
    return np.concatenate([np.arange(n)[s] for s in slices])


@pytest.mark.parametrize("shape", [(16,), (8, 16), (4, 8, 16), (8, 4, 4, 8)])
def test_pruned_inverse_equals_ifftn(shape):
    rng = np.random.default_rng(len(shape))
    ndim = len(shape)
    cuts = [set(c) for r in range(ndim + 1)
            for c in itertools.combinations(range(ndim), r)]
    for cut in cuts:
        for _ in range(3):
            sym, runs = _boxed_symbol(rng, shape, cut)
            box = multipliers._support_box(sym)
            for k, n in enumerate(shape):
                if runs[k] is None:
                    assert box[k] == [slice(None)]
                else:
                    start, length = runs[k]
                    want = (start + np.arange(length)) % n
                    assert np.array_equal(_run_indices(box[k], n), want)
            spectrum = rng.standard_normal(shape) \
                + 1j * rng.standard_normal(shape)
            got = np.multiply(sym, spectrum)
            multipliers._inverse_in_place(got, box)
            assert np.array_equal(got, np.fft.ifftn(sym * spectrum))
    # the zero field, and a symbol nonzero everywhere
    for sym in (np.zeros(shape, dtype=complex),
                1.0 + rng.random(shape) + 0j):
        spectrum = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = np.multiply(sym, spectrum)
        multipliers._inverse_in_place(got, multipliers._support_box(sym))
        assert np.array_equal(got, np.fft.ifftn(sym * spectrum))


@pytest.mark.parametrize("shape", [(16,), (8, 16), (4, 8, 16), (8, 4, 4, 8)])
def test_pruned_forward_equals_fftn_inside_the_box(shape):
    rng = np.random.default_rng(10 + len(shape))
    ndim = len(shape)
    cuts = [set(c) for r in range(ndim + 1)
            for c in itertools.combinations(range(ndim), r)]
    for cut in cuts:
        for _ in range(3):
            sym, _ = _boxed_symbol(rng, shape, cut)
            box = multipliers._support_box(sym)
            inside = np.ix_(*[_run_indices(b, n) for b, n in zip(box, shape)])
            values = rng.standard_normal(shape) \
                + 1j * rng.standard_normal(shape)
            got = values.copy()
            multipliers._forward_in_place(got, box)
            want = np.fft.fftn(values)
            assert np.array_equal(got[inside], want[inside])
            # through the symbol and back, |T f| is that of the full route
            np.multiply(sym, got, out=got)
            multipliers._inverse_in_place(got, box)
            assert np.array_equal(np.abs(got),
                                  np.abs(np.fft.ifftn(sym * want)))


def test_radial_focus_magnitudes_equal_the_full_transform(monkeypatch):
    axes, mult = _grid_multiplier("br:2.0")
    work = opnorm._Workspace(axes, mult)
    for spec in _family_specs(axes, "radial_focus"):
        _, f = opnorm.witness_input(spec, axes, 1.2, work)
        got = work.apply(f).values.copy()
        _, f = opnorm.witness_input(spec, axes, 1.2, work)
        with monkeypatch.context() as mp:
            mp.setattr(multipliers, "_forward_in_place",
                       lambda values, box: np.fft.fftn(values, out=values))
            want = work.apply(f).values
        assert np.array_equal(got, want)


@pytest.mark.parametrize("axes", [(Axis(8.0, 16),), axes2(res=16),
                                  (Axis(8.0, 32), Axis(16.0, 64),
                                   Axis(12.0, 16)),
                                  cli.build_axes(16.0, 16, 4)])
def test_buffer_built_witnesses_equal_their_full_grid_formulas(axes):
    shape = [ax.resolution for ax in axes]
    for rep in ("space", "frequency"):
        coords = opnorm._sparse_coords(axes, rep)
        got = opnorm._radius_sq(coords, np.empty(shape))
        assert np.array_equal(got, sum(c ** 2 for c in coords))
    for spec in _family_specs(axes, "annulus_knapp"):
        prm = spec["params"]
        got = opnorm._knapp_window(axes, prm, opnorm._knapp_sector(axes, prm),
                                   np.empty(shape))
        want = _oracle_knapp_window(axes, spec["params"])
        assert np.array_equal(got, want.real) and not want.imag.any()
    for spec in _family_specs(axes, "random_superposition"):
        got = np.zeros(shape, dtype=complex)
        want = np.zeros(shape, dtype=complex)
        for piece in spec["params"]["pieces"]:
            factors = opnorm._bump_factors(axes, piece, piece["coef_re"]
                                           + 1j * piece["coef_im"])
            opnorm._add_outer(factors, got)
            want += _oracle_outer(factors)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("path", ["exact", "rejected"])
@pytest.mark.parametrize("family", opnorm.FAMILIES)
def test_witness_allocates_less_than_a_grid_array(family, path):
    # a witness evaluation allocates no full-grid temporary, on either
    # path: only its workspace's buffers are grid-sized
    import tracemalloc
    axes, mult = _grid_multiplier("br:2.0", res=64)
    work = opnorm._Workspace(axes, mult)
    specs = _family_specs(axes, family, count=2)
    if family == "dilated_bump":
        specs.append({"family": "dilated_bump",
                      "params": {"t": 1.0, "center": [0.5, -0.25, 0.0],
                                 "freqs": [0.3, 0.0, -0.2]}})
    for nu in (math.inf, 2.0):
        for spec in specs:
            denom, num = opnorm._witness_norms(work, spec, axes, 1.2, nu)
            if path == "exact":
                beat, want = 0.0, (denom, num)
            else:
                if not num:
                    continue   # T f vanishes: there is no norm to reject
                beat, want = 1.1 * num / denom, (denom, None)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                assert opnorm._witness_norms(work, spec, axes, 1.2, nu,
                                             beat) == want
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < work.magnitude.nbytes


@pytest.mark.parametrize("spec", ["cone_tent", "br:2.0", "oscillatory:3",
                                  "halfspace"])
def test_search_does_not_depend_on_the_worker_count(monkeypatch, spec):
    import threading
    axes, mult = _grid_multiplier(spec)
    threads = threading.active_count()
    runs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(opnorm, "_worker_count",
                            lambda cells, w=workers: w)
        for nu in (math.inf, 2.0):
            for budget in (1, 5, 48):
                est = estimate_lower(mult, axes, 1.2, nu, budget=budget,
                                     seed=7)
                sweep = scaling_sweep_experiment(mult, axes, 1.2, nu,
                                                 budget=budget, seed=7)
                runs.setdefault((nu, budget), []).append(
                    (fields_dict(est), sweep))
                # no worker thread outlives its search
                assert threading.active_count() == threads
    for (nu, budget), (serial, *parallel) in runs.items():
        for got in parallel:
            assert got == serial


def test_worker_count_follows_the_cpus_and_the_memory_cap(monkeypatch):
    monkeypatch.setattr(util.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2, 3})
    assert opnorm._worker_count(util.PARALLEL_MIN_POINTS - 1) == 1
    assert opnorm._worker_count(util.PARALLEL_MIN_POINTS) == 4
    # at 2^20 cells a workspace is 24 MiB, so the 64 MiB cap allows two
    # extra ones; at 2^22 cells none
    assert opnorm._worker_count(2 ** 20) == 3
    assert opnorm._worker_count(2 ** 22) == 1
    monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {0})
    assert opnorm._worker_count(2 ** 18) == 1


def test_workspace_team_shares_the_symbol_and_not_the_buffers():
    axes, mult = _grid_multiplier("br:2.0")
    work = opnorm._Workspace(axes, mult)
    team = work.team(2)
    assert team[1].sym is work.sym and team[1].box is work.box
    assert not np.shares_memory(team[1].spectrum, work.spectrum)
    assert not np.shares_memory(team[1].magnitude, work.magnitude)
    assert work.team(2)[1] is team[1]
