import math

import numpy as np
import pytest

from conemult import cli, opnorm
from conemult.errors import DomainError
from conemult.multipliers import Axis, GridField, apply_multiplier, \
    freq_magnitude
from conemult.opnorm import (build_witness, dilation_identity_gap,
                             estimate_lower, evaluate_witness, grid_norms,
                             scaling_sweep_experiment)


def axes2(extent=16.0, res=64):
    return (Axis(extent, res), Axis(extent, res))


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
    ax = axes2(extent=24.0, res=128)
    for t in (0.5, 1.0, 2.0):
        assert dilation_identity_gap(ax, 1.4, t) <= 0.01


def test_sweep_constant_symbol_two_routes_agree():
    ax = axes2(extent=16.0, res=64)
    out = scaling_sweep_experiment(lambda r: np.ones_like(np.asarray(r, float)),
                                   ax, 1.3, 2.0, budget=18, seed=0)
    assert out["containment_ok"]
    # for the identity both routes compute the same dilation-invariant size
    eta_norm, eta_lor = grid_norms(
        build_witness({"family": "dilated_bump", "params": {"t": 1.0}}, ax),
        1.3, 2.0)
    assert abs(out["rhs_sup"] - eta_lor) <= 0.02 * eta_lor
    assert out["lower_bound"] >= eta_lor / eta_norm * (1 - 1e-9)


def test_sweep_cone_mean_symbol_band():
    ax = axes2(extent=16.0, res=64)
    br = lambda r: np.clip(1.0 - np.asarray(r, float) ** 2, 0.0, None) ** 2.0
    out = scaling_sweep_experiment(br, ax, 1.2, math.inf, budget=48, seed=2)
    assert out["containment_ok"]
    assert 1.0 - 1e-9 <= out["ratio_band"] <= 10.0


def test_sweep_oscillatory_symbol_tracks_grid_refinement():
    from conemult.bumps import smooth_window
    def m0(r):
        r = np.asarray(r, dtype=float)
        return np.exp(1j * r) * smooth_window(r, 0.25, 0.5, 2.0, 4.0)
    ax = axes2(extent=16.0, res=64)
    coarse = scaling_sweep_experiment(m0, ax, 1.2, math.inf, budget=24,
                                      seed=4, t_grid=np.geomspace(0.3, 3, 7))
    dense = scaling_sweep_experiment(m0, ax, 1.2, math.inf, budget=24,
                                     seed=4, t_grid=np.geomspace(0.3, 3, 25))
    assert dense["rhs_sup"] >= coarse["rhs_sup"] - 1e-12
    for out in (coarse, dense):
        assert out["containment_ok"]


def test_no_admissible_dilation_rejected():
    ax = (Axis(4.0, 4), Axis(4.0, 4))
    with pytest.raises(DomainError):
        scaling_sweep_experiment(lambda r: np.ones_like(np.asarray(r, float)),
                                 ax, 1.2, math.inf)


def test_budget_validation():
    with pytest.raises(DomainError):
        estimate_lower(lambda f: f, axes2(res=32), 2.0, 2.0, budget=0)


def _double_evaluation_sweep(m0, axes, p, nu, budget, seed):
    """The sweep as it was: the search evaluates the swept dilations again."""
    d = len(axes)
    tmin, tmax = opnorm._dilation_bounds(axes)
    t_used = [float(t) for t in np.geomspace(tmin, tmax, 13)]
    operator = lambda f: opnorm.apply_multiplier(f, m0)
    rhs_per_t, scale_per_t = {}, {}
    for t in t_used:
        f = build_witness({"family": "dilated_bump", "params": {"t": t}}, axes)
        denom, _ = grid_norms(f, p)
        _, num = grid_norms(operator(f), p, nu)
        rhs_per_t[t] = t ** (d / p) * num
        scale_per_t[t] = t ** (d / p) * denom
    rhs = max(rhs_per_t.values())
    scale_sup = max(scale_per_t.values())
    est = _oracle_estimate_lower(operator, axes, p, nu, budget=budget,
                                 seed=seed, swept=[(t, None) for t in t_used])
    contained = rhs <= est.lower_bound * scale_sup * (1.0 + 1e-12)
    return {
        "p": p, "nu": "inf" if math.isinf(nu) else nu, "dim": d,
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


def _counting_multiplier(monkeypatch):
    calls = []

    def counted(f, m):
        calls.append(1)
        return apply_multiplier(f, m)
    monkeypatch.setattr(opnorm, "apply_multiplier", counted)
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
    out = scaling_sweep_experiment(m0, ax, 1.2, math.inf, budget=5, seed=0)
    assert len(out["rhs_per_t"]) == 13
    assert all(v > 0 for v in out["rhs_per_t"].values())
    # the 13 dilations, then the refinement at step 2; the other 4 steps
    # reuse swept dilations
    assert len(calls) == 13 + 1


def _oracle_estimate_lower(operator, axes, p, nu, families=opnorm.FAMILIES,
                           budget=48, seed=0, swept=None):
    """The search as it was: no seen-set, no majorant, no leftover scoring."""
    if budget < 1:
        raise DomainError("budget must be at least 1")
    rng = np.random.default_rng(seed)
    stream = opnorm._WitnessStream(axes, families, rng, swept)
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
            _assert_same_up_to_ratios(by_spectrum.to_dict(), got.to_dict())
            # the oracle builds its modulated witnesses from the full-grid
            # phase, as the search did
            with monkeypatch.context() as mp:
                mp.setattr(opnorm, "_modulation", _full_grid_modulation)
                want = _oracle_estimate_lower(op, axes, 1.2, nu,
                                              budget=budget, seed=7)
            assert got.to_dict() == want.to_dict()


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
    assert got.to_dict() == want.to_dict()
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


def test_modulation_matches_full_grid_phase():
    rng = np.random.default_rng(5)
    for axes in (cli.build_axes(16.0, 64, 3), axes2(),
                 (Axis(8.0, 32), Axis(16.0, 64), Axis(12.0, 16))):
        for _ in range(4):
            freqs = [float(rng.uniform(-0.5, 0.5) * np.pi / ax.step)
                     for ax in axes]
            got = opnorm._modulation(axes, freqs)
            want = _full_grid_modulation(axes, freqs)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13


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
    stream = opnorm._WitnessStream(axes, [family], np.random.default_rng(seed))
    stream.queue = []
    specs = [stream._draw() for _ in range(count)]
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
            space = build_witness(spec, axes)
            want_denom, _ = grid_norms(space, p)
            assert denom == pytest.approx(want_denom, rel=1e-12, abs=0.0)
            if family == "radial_focus":
                # no cheaper form: the space witness itself
                assert f.rep == "space"
                assert np.array_equal(f.values, space.values)
                continue
            want = np.fft.fftn(space.values)
            assert f.rep == "frequency" and f.same_grid(space)
            err = np.max(np.abs(f.values - want)) / np.max(np.abs(want))
            assert err <= 1e-12


def test_general_operators_take_the_space_route(monkeypatch):
    axes, mult = _grid_multiplier("br:2.0")
    built, spectra, seen = [], [], []
    build, spectrum = opnorm.build_witness, opnorm.witness_input

    def counted_build(spec, ax):
        built.append(spec["family"])
        return build(spec, ax)

    def counted_spectrum(spec, ax, p):
        spectra.append(spec["family"])
        return spectrum(spec, ax, p)
    monkeypatch.setattr(opnorm, "build_witness", counted_build)
    monkeypatch.setattr(opnorm, "witness_input", counted_spectrum)

    def op(f):
        seen.append(f.rep)
        return apply_multiplier(f, mult)
    by_space = estimate_lower(op, axes, 1.2, math.inf, budget=24, seed=7)
    assert not spectra and set(seen) == {"space"}
    assert len(built) == len(seen) > 0
    n_space = len(built)
    built.clear()
    by_spectrum = estimate_lower(mult, axes, 1.2, math.inf, budget=24, seed=7)
    # the multiplier field takes the spectrum route; only a radial focus
    # is still built in space
    assert len(spectra) == n_space
    assert built == [f for f in spectra if f == "radial_focus"]
    assert set(spectra) == set(opnorm.FAMILIES)
    _assert_same_up_to_ratios(by_spectrum.to_dict(), by_space.to_dict())
    # a multiplier GridField must be in frequency form
    space_field = GridField(axes, mult.values)
    with pytest.raises(DomainError, match="frequency form"):
        estimate_lower(space_field, axes, 1.2, math.inf, budget=1)
