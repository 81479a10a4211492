import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemult import lorentz
from conemult.errors import DomainError
from conemult.lorentz import (LorentzParams, RearrangedFunction,
                              WeightedSampleSet,
                              decreasing_rearrangement, lorentz_quasinorm,
                              rearranged_quasinorm, rounded_up,
                              subset_rearrangements)
from reference import (tie_merged_bincount, uniform_pieces_sequential,
                       weighted_line_samples, weighted_lp_norm)


def samples(values, weights):
    return WeightedSampleSet(np.asarray(values, float),
                             np.asarray(weights, float))


def test_rearrangement_single_atom():
    r = decreasing_rearrangement(samples([1.0], [3.0]))
    assert np.allclose(r.breakpoints, [0.0, 3.0])
    assert np.allclose(r.levels, [1.0])


def test_rearrangement_two_atoms_sorted():
    r = decreasing_rearrangement(samples([1.0, 2.0], [1.0, 1.0]))
    assert np.allclose(r.levels, [2.0, 1.0])
    assert np.allclose(r.breakpoints, [0.0, 1.0, 2.0])


def test_rearrangement_merges_equal_values():
    r = decreasing_rearrangement(samples([2.0, 1.0, 2.0], [1.0, 4.0, 2.5]))
    assert np.allclose(r.levels, [2.0, 1.0])
    assert np.allclose(r.breakpoints, [0.0, 3.5, 7.5])


def test_equimeasurability_against_distribution_function():
    rng = np.random.default_rng(42)
    s = samples(rng.uniform(0, 5, 100), rng.uniform(0.1, 2.0, 100))
    r = decreasing_rearrangement(s)
    # brute-force distribution function oracle
    for lam in np.concatenate(([0.0], np.sort(s.values), [5.5])):
        direct = float(np.sum(s.weights[s.values > lam]))
        # the measure of {f* > lam}: the breakpoint past the levels > lam
        above = float(r.breakpoints[np.sum(r.levels > lam)])
        assert math.isclose(above, direct, rel_tol=1e-12, abs_tol=1e-12)


def test_total_measure_preserved():
    rng = np.random.default_rng(3)
    s = samples(rng.uniform(0, 1, 57), rng.uniform(0.5, 1.5, 57))
    r = decreasing_rearrangement(s)
    assert math.isclose(r.breakpoints[-1], s.total_measure, rel_tol=1e-13)


def test_empty_input_rejected():
    with pytest.raises(DomainError):
        WeightedSampleSet(np.array([]), np.array([]))


def test_indicator_weak_norm_closed_form():
    for p in (0.7, 1.0, 1.4, 2.0, 3.0):
        for m in (0.4, 1.0, 7.3):
            got = lorentz_quasinorm(samples([1.0], [m]),
                                    LorentzParams(p, math.inf))
            assert math.isclose(got, m ** (1.0 / p), rel_tol=1e-12)


def test_indicator_finite_nu_closed_form():
    for p in (0.8, 1.3, 2.0):
        for nu in (p, 2.0 * p, 5.0):
            for m in (0.5, 2.0):
                got = lorentz_quasinorm(samples([1.0], [m]),
                                        LorentzParams(p, nu))
                want = (p / nu) ** (1.0 / nu) * m ** (1.0 / p)
                assert math.isclose(got, want, rel_tol=1e-12)


def test_l2_identity():
    got = lorentz_quasinorm(samples([1.0, 2.0], [1.0, 1.0]),
                            LorentzParams(2.0, 2.0))
    assert math.isclose(got, math.sqrt(5.0), rel_tol=1e-13)


def test_p_eq_nu_matches_weighted_lp():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        s = samples(rng.uniform(0, 3, n), rng.uniform(0.01, 2.0, n))
        p = float(rng.uniform(0.5, 4.0))
        a = lorentz_quasinorm(s, LorentzParams(p, p))
        b = weighted_lp_norm(s, p)
        assert abs(a - b) <= 1e-10 * max(b, 1e-30)


def test_homogeneity():
    rng = np.random.default_rng(11)
    s = samples(rng.uniform(0, 1, 30), rng.uniform(0.1, 1, 30))
    params = LorentzParams(1.3, 2.6)
    base = lorentz_quasinorm(s, params)
    for c in (0.25, 3.0, 17.5):
        scaled = WeightedSampleSet(c * s.values, s.weights)
        assert math.isclose(lorentz_quasinorm(scaled, params), c * base,
                            rel_tol=1e-12)


def test_monotonicity_in_values():
    rng = np.random.default_rng(13)
    for params in (LorentzParams(1.2, 1.2), LorentzParams(1.2, math.inf),
                   LorentzParams(2.0, 3.0)):
        v1 = rng.uniform(0, 1, 50)
        v2 = v1 + rng.uniform(0, 0.5, 50)
        w = rng.uniform(0.1, 1, 50)
        assert lorentz_quasinorm(samples(v1, w), params) <= \
            lorentz_quasinorm(samples(v2, w), params) * (1 + 1e-12)


def test_joint_permutation_invariance():
    rng = np.random.default_rng(17)
    v = rng.uniform(0, 2, 41)
    w = rng.uniform(0.1, 1, 41)
    perm = rng.permutation(41)
    params = LorentzParams(1.7, math.inf)
    assert math.isclose(lorentz_quasinorm(samples(v, w), params),
                        lorentz_quasinorm(samples(v[perm], w[perm]), params),
                        rel_tol=1e-13)


def test_normalized_nu_monotone_on_indicators():
    # (nu/p)^(1/nu) * quasinorm is constant (= m^(1/p)) on indicator inputs
    p = 1.4
    prev = None
    for nu in (1.4, 2.0, 3.5, 8.0, 40.0):
        q = lorentz_quasinorm(samples([1.0], [2.7]), LorentzParams(p, nu))
        scaled = (nu / p) ** (1.0 / nu) * q
        if prev is not None:
            assert scaled <= prev * (1 + 1e-12)
        prev = scaled


def test_params_validation():
    with pytest.raises(DomainError):
        LorentzParams(0.0, 1.0)
    with pytest.raises(DomainError):
        LorentzParams(2.0, 1.0)  # nu < p
    LorentzParams(2.0, math.inf)


def _analytic_weak_norm_power_law(a, d, p, R):
    """Weak quasi-norm of (1+|s|)^(-a) on [-R, R] under (1+|s|)^(d-1) ds.

    The distribution function is exact: mu{f > t} = (2/d)(t^(-d/a) - 1)
    for f(R) < t < 1, capped at the full measure; the sup over t is
    maximized on a dense t-grid of the closed-form expression.
    """
    full = 2.0 * ((1.0 + R) ** d - 1.0) / d
    ts = np.geomspace((1.0 + R) ** (-a), 1.0, 4000)
    mu = np.minimum(2.0 * (ts ** (-d / a) - 1.0) / d, full)
    return float(np.max(ts * mu ** (1.0 / p)))


def test_power_law_weak_norm_vs_analytic_oracle():
    d, p = 4, 1.25
    for a, r in ((3.5, 200.0), (4.0, 200.0)):
        s = weighted_line_samples(lambda x, a=a: (1 + np.abs(x)) ** (-a),
                                  d - 1, r, 2 ** 17)
        got = lorentz_quasinorm(s, LorentzParams(p, math.inf))
        want = _analytic_weak_norm_power_law(a, d, p, r)
        assert abs(got - want) <= 0.02 * want


def test_power_law_divergence_rate():
    # below the integrability threshold a = d/p the truncated weak norm grows
    # like R^(d/p - a); check the measured doubling exponent
    d, p = 4, 1.25
    a = 2.6  # d/p = 3.2
    vals = []
    for r in (200.0, 400.0, 800.0):
        s = weighted_line_samples(lambda x: (1 + np.abs(x)) ** (-a),
                                  d - 1, r, 2 ** 16)
        vals.append(lorentz_quasinorm(s, LorentzParams(p, math.inf)))
    rate = math.log2(vals[2] / vals[1])
    assert abs(rate - (d / p - a)) < 0.05


def test_ghat_weak_norm_stabilizes_at_critical_order():
    from conemult.bochner import BRProfile
    from conemult.characterize import LineSamples
    from conemult.radial import fourier_1d
    sigma, ghat = fourier_1d(BRProfile(1.0), 4.0, 2 ** 16)
    d, p = 4, 8.0 / 7.0
    line = LineSamples(sigma, d, [(0.0, 1e2), (0.0, 1e3), (0.0, 1e4)])
    vals = [rearranged_quasinorm(r, LorentzParams(p, math.inf))
            for r in line.rearrangements(ghat)]
    assert max(vals) / min(vals) <= 1.05


def test_grid_samples_truncation_empty():
    from conemult.characterize import LineSamples
    line = LineSamples(np.linspace(-1, 1, 32), 1, [(0.0, 1e-9)])
    with pytest.raises(DomainError):
        line.rearrangements(np.ones(32))


def _stable_sort_rearrangement(samples):
    """The stable-sort route the rearrangement used to take (oracle)."""
    order = np.argsort(-samples.values, kind="stable")
    v = samples.values[order]
    w = samples.weights[order]
    keep = np.empty(len(v), dtype=bool)
    keep[0] = True
    keep[1:] = v[1:] != v[:-1]
    idx = np.cumsum(keep) - 1
    merged = np.zeros(int(keep.sum()))
    np.add.at(merged, idx, w)
    levels = v[keep]
    breakpoints = np.concatenate(([0.0], np.cumsum(merged)))
    return RearrangedFunction(breakpoints, levels)


def _assert_same_rearrangement(s):
    got = decreasing_rearrangement(s)
    want = _stable_sort_rearrangement(s)
    assert np.array_equal(got.levels, want.levels)
    assert np.array_equal(got.breakpoints, want.breakpoints)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rearrangement_equals_stable_sort_oracle_on_ties(data):
    # a few distinct levels plus zeros: nearly every sample ties with others
    atoms = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
    n = data.draw(st.integers(1, 300))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.choice(np.array(atoms + [0.0]), n)
    weights = rng.uniform(1e-3, 10.0, n) * 10.0 ** rng.integers(-3, 4, n)
    _assert_same_rearrangement(samples(values, weights))


def _grid_cases():
    # |T f| of a Gaussian on 64^3 (mirror ties) and a rounded field
    x = -8.0 + 0.25 * np.arange(64)
    c = np.meshgrid(x, x, x, indexing="ij", sparse=True)
    bump = np.exp(-0.5 * sum(ci ** 2 for ci in c))
    xi = np.fft.fftfreq(64, 0.25)
    k = np.meshgrid(xi, xi, xi, indexing="ij", sparse=True)
    sym = np.clip(1.0 - sum(ki ** 2 for ki in k), 0.0, None) ** 2
    tf = np.abs(np.fft.ifftn(sym * np.fft.fftn(bump))).ravel()
    vol = np.full(tf.shape, 0.25 ** 3)
    rng = np.random.default_rng(5)
    return [samples(bump.ravel(), vol),
            samples(tf, vol),
            samples(np.round(tf, 3), rng.uniform(0.1, 2.0, tf.shape))]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subset_rearrangements_equal_rearranging_each_subset(data):
    # tied levels, zeros and distinct values under mixed-magnitude weights
    atoms = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
    n = data.draw(st.integers(1, 300))
    n_masks = data.draw(st.integers(1, 6))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.choice(np.array(atoms + [0.0]), n)
    free = rng.random(n) < rng.random()
    values[free] = rng.uniform(0.0, 1e3, int(free.sum()))
    weights = rng.uniform(1e-3, 10.0, n) * 10.0 ** rng.integers(-3, 4, n)
    masks = rng.random((n_masks, n)) < rng.random((n_masks, 1))
    masks[np.arange(n_masks), rng.integers(0, n, n_masks)] = True
    s = samples(values, weights)
    for keep, got in zip(masks, subset_rearrangements(s, masks)):
        want = decreasing_rearrangement(samples(values[keep], weights[keep]))
        assert np.array_equal(got.levels, want.levels)
        assert np.array_equal(got.breakpoints, want.breakpoints)
    # a mask of None: the whole set
    [got] = subset_rearrangements(s, [None])
    want = decreasing_rearrangement(s)
    assert np.array_equal(got.levels, want.levels)
    assert np.array_equal(got.breakpoints, want.breakpoints)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tie_merge_equals_the_bincount_route(data):
    # distinct values (the no-tie path), a few tied levels, or mirror
    # pairs |x| = |-x| as on a Hermitian line; one weight or one per
    # sample; the whole set or a mask
    kind = data.draw(st.sampled_from(["distinct", "ties", "mirror"]))
    n = data.draw(st.integers(1, 300))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "distinct":
        values = rng.permutation(np.arange(n) + rng.random())
    elif kind == "ties":
        values = rng.choice(rng.uniform(0.0, 1e3, 4), n)
    else:
        half = rng.uniform(-1e3, 1e3, (n + 1) // 2)
        values = rng.permutation(np.abs(np.concatenate([half, -half])))[:n]
    if data.draw(st.booleans()):
        weights = np.broadcast_to(rng.uniform(1e-3, 10.0), n)
    else:
        weights = rng.uniform(1e-3, 10.0, n) * 10.0 ** rng.integers(-3, 4, n)
    order = np.argsort(values)
    keep = None
    if data.draw(st.booleans()):
        keep = rng.random(n) < rng.random()
        keep[rng.integers(0, n)] = True
        order = order[keep[order]]
    got = lorentz._tie_merged(values, weights, order, keep)
    want = tie_merged_bincount(values, weights, order, keep)
    assert np.array_equal(got.levels, want.levels)
    assert np.array_equal(got.breakpoints, want.breakpoints)


def test_subset_rearrangements_reject_empty_subset():
    s = samples([1.0, 2.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(DomainError, match="no sample"):
        subset_rearrangements(s, [[True, False, True], [False] * 3])


@pytest.mark.parametrize("case", range(3))
def test_grid_quasinorms_equal_stable_sort_route(case, monkeypatch):
    s = _grid_cases()[case]
    _assert_same_rearrangement(s)
    pairs = [LorentzParams(1.2, math.inf), LorentzParams(1.2, 2.0),
             LorentzParams(1.5, 1.5)]
    got = [lorentz_quasinorm(s, prm) for prm in pairs]
    monkeypatch.setattr(lorentz, "decreasing_rearrangement",
                        _stable_sort_rearrangement)
    assert got == [lorentz_quasinorm(s, prm) for prm in pairs]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rounded_up_bounds_every_quasinorm(data):
    # tied levels from a small pool, zeros, and normal values across
    # 2^-900 .. 2^900
    pool = data.draw(st.lists(
        st.tuples(st.floats(1.0, 2.0, exclude_max=True),
                  st.integers(-900, 900)),
        min_size=1, max_size=6))
    atoms = [math.ldexp(m, e) for m, e in pool] + [0.0]
    n = data.draw(st.integers(1, 300))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    p = data.draw(st.floats(0.5, 4.0))
    rng = np.random.default_rng(seed)
    values = rng.choice(np.array(atoms), n)
    weights = rng.uniform(1e-3, 10.0, n) * 10.0 ** rng.integers(-3, 4, n)
    s = samples(values, weights)
    up = rounded_up(s)
    assert np.all(np.diff(np.sort(up.values)) > 0)
    assert math.isclose(up.total_measure, s.total_measure, rel_tol=1e-12)
    # up to the rounding of the two cumsums: the factor 1 + 2^-8 is
    # attained (one bin [1, 1.00390625) holding 1 and 1.001953125), and
    # then either side can come out one ulp over it
    for nu in (p, 2.0 * p, math.inf):
        prm = LorentzParams(p, nu)
        exact = lorentz_quasinorm(s, prm)
        bound = lorentz_quasinorm(up, prm)
        assert exact <= bound * (1.0 + 1e-12)
        assert bound <= (1.0 + 2.0 ** -8) * exact * (1.0 + 1e-12)


def test_rounded_up_bin_tops():
    # 1.0 opens its bin and rises by the full 1/256; the top of one bin
    # opens the next; zeros stay zero and merge
    s = samples([1.0, 1.0 + 1 / 256, 0.0, 1.0 + 1 / 512, 0.0, 3.0],
                [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    up = rounded_up(s)
    order = np.argsort(up.values)
    assert up.values[order].tolist() == [0.0, 1.00390625, 1.0078125,
                                         3.0078125]
    assert up.weights[order].tolist() == [8.0, 5.0, 2.0, 6.0]
    got = lorentz_quasinorm(rounded_up(samples([1.0], [2.0])),
                            LorentzParams(1.5, math.inf))
    assert got == 1.00390625 * 2.0 ** (1 / 1.5)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_candidate_bins_give_the_weak_norm_of_the_full_sort(data):
    # ties from a small pool, power laws and values spread over many
    # binades, each with zeros, under one weight whose sums are exact: the
    # supremum read off the candidate bins is the full sort's, bit for bit,
    # and the majorant's norm is that of ``rounded_up``
    n = data.draw(st.integers(1, 400))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    kind = data.draw(st.sampled_from(["ties", "power", "spread"]))
    if kind == "ties":
        atoms = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=1,
                                   max_size=4))
        values = rng.choice(np.array(atoms), n)
    elif kind == "power":
        values = rng.permutation((np.arange(1.0, n + 1.0) * rng.uniform(
            0.1, 10.0)) ** -rng.uniform(0.2, 3.0))
    else:
        values = rng.random(n) ** rng.uniform(1.0, 30.0)
    values[rng.random(n) < data.draw(st.sampled_from([0.0, 0.2, 1.0]))] = 0.0
    p = data.draw(st.floats(0.5, 4.0))
    weight = math.ldexp(data.draw(st.sampled_from([1, 3, 5, 125, 1023])),
                        data.draw(st.integers(-30, 30)))
    params = LorentzParams(p, math.inf)
    s = WeightedSampleSet(values, weight)
    want = lorentz_quasinorm(s, params)
    bins = lorentz.LevelBins(s)
    assert bins.weak_quasinorm(p) == want
    assert lorentz_quasinorm(s, params, bins) == want
    assert bins.majorant_quasinorm(params) == \
        lorentz_quasinorm(rounded_up(s), params)
    # a weight whose sums round: both routes end each piece at the count
    # times the weight, so the candidate bins still give the sort's value;
    # the majorant's norm counts too, while ``rounded_up`` carries per-bin
    # weights that its norm sums, so those two agree up to that rounding
    third = WeightedSampleSet(values, 1.0 / 3.0)
    want = lorentz_quasinorm(third, params)
    bins = lorentz.LevelBins(third)
    assert bins.weak_quasinorm(p) == want
    assert lorentz_quasinorm(third, params, bins) == want
    assert math.isclose(bins.majorant_quasinorm(params),
                        lorentz_quasinorm(rounded_up(third), params),
                        rel_tol=1e-12)


def _assert_same_samples(got, want):
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.weights, want.weights)


def _rearrangements_close(got, want):
    """Equal levels, and ends within the rounding of a weight summed one
    sample at a time."""
    assert np.array_equal(got.levels, want.levels)
    assert np.allclose(got.breakpoints, want.breakpoints, rtol=1e-12, atol=0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scalar_weight_matches_its_full_array(data):
    # tied levels and zeros, with a share of free values, under one weight:
    # the same levels, and measures c times a count against the full
    # array's sums of c, which agree up to the rounding of those sums
    atoms = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
    n = data.draw(st.integers(1, 300))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.choice(np.array(atoms + [0.0]), n)
    free = rng.random(n) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    values[free] = rng.uniform(0.0, 1e3, int(free.sum()))
    weight = float(rng.uniform(1e-3, 10.0) * 10.0 ** rng.integers(-6, 7))
    uniform = WeightedSampleSet(values, weight)
    full = samples(values, np.full(n, weight))
    assert uniform.uniform and not full.uniform
    _rearrangements_close(decreasing_rearrangement(uniform),
                          decreasing_rearrangement(full))
    for nu in (math.inf, 2.0):
        prm = LorentzParams(1.2, nu)
        assert math.isclose(lorentz_quasinorm(uniform, prm),
                            lorentz_quasinorm(full, prm), rel_tol=1e-12)
    up, full_up = rounded_up(uniform), rounded_up(full)
    assert np.array_equal(up.values, full_up.values)
    assert np.allclose(up.weights, full_up.weights, rtol=1e-12, atol=0)
    assert weighted_lp_norm(uniform, 1.3) == weighted_lp_norm(full, 1.3)
    masks = rng.random((3, n)) < rng.random((3, 1))
    masks[:, 0] = True
    for a, b in zip(subset_rearrangements(uniform, masks),
                    subset_rearrangements(full, masks)):
        _rearrangements_close(a, b)
    # the measure is n * weight, rounded once
    assert uniform.total_measure == float(np.float64(weight) * n)
    assert math.isclose(uniform.total_measure, full.total_measure,
                        rel_tol=1e-12)
    _assert_same_samples(WeightedSampleSet(-2.0 * uniform.values,
                                           uniform.weights),
                         samples(2.0 * values, weight))


def _sums_exact(weight, n):
    """True when j * weight is a float for every j <= n, so that every sum
    of up to n copies of ``weight`` is exact."""
    return all(Fraction(j * weight) == j * Fraction(weight)
               for j in range(1, n + 1))


def _ends_by_count(values, ends, levels, weight):
    """Each end is ``weight`` times the count of ``values`` at or above its
    level."""
    above = np.array([np.sum(values >= lv) for lv in levels])
    assert np.array_equal(ends, above * weight)


_RULE_WEIGHTS = [1.0 / 3.0, 0.1, 1e-300, 1e300, 2.0 ** -6]


def _norm_or_error(norm):
    """The quasi-norm ``norm()`` returns, or "float range" where it raises
    that it leaves the float range."""
    try:
        return norm()
    except DomainError as err:
        assert "float range" in str(err)
        return "float range"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_scalar_weight_route_ends_a_piece_at_its_count(data):
    # ties, zeros and free values, the whole set and masks: every piece of
    # every scalar-weight route ends at c times the count of samples at or
    # above its level, the last at the total measure; the route that sums
    # c one sample at a time agrees where those sums are exact
    atoms = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
    n = data.draw(st.integers(1, 300))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.choice(np.array(atoms + [0.0]), n)
    free = rng.random(n) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    values[free] = rng.uniform(0.0, 1e3, int(free.sum()))
    weight = data.draw(st.sampled_from(_RULE_WEIGHTS))
    s = WeightedSampleSet(values, weight)
    masks = rng.random((2, n)) < rng.random((2, 1))
    masks[:, rng.integers(0, n)] = True
    rearranged = subset_rearrangements(s, [None, *masks])
    for keep, r in zip([np.ones(n, dtype=bool), *masks], rearranged):
        _ends_by_count(values[keep], r.breakpoints[1:], r.levels, weight)
        assert r.breakpoints[-1] == \
            WeightedSampleSet(values[keep], weight).total_measure
    whole = decreasing_rearrangement(s)
    assert np.array_equal(whole.levels, rearranged[0].levels)
    assert np.array_equal(whole.breakpoints, rearranged[0].breakpoints)
    # the chunked stream, a few pieces per chunk
    saved = lorentz._CHUNK
    lorentz._CHUNK = data.draw(st.sampled_from([1, 3, 7]))
    try:
        levels, ends = map(np.concatenate, zip(*lorentz._uniform_pieces(
            np.sort(values), s.weights)))
    finally:
        lorentz._CHUNK = saved
    assert np.array_equal(levels, whole.levels)
    _ends_by_count(values, ends, levels, weight)
    # the level bins: a bin's measure is c times its count, and the
    # majorant's pieces end at c times the count at or above its top
    bins = lorentz.LevelBins(s)
    assert np.array_equal(bins.measures, bins.counts * weight)
    assert bins.counts.sum() == n
    up = rounded_up(samples(values, np.ones(n)))
    order = np.argsort(up.values)[::-1]
    majorant = RearrangedFunction(np.append(0.0, np.cumsum(
        up.weights[order]) * weight), up.values[order])
    for prm in (LorentzParams(1.2, math.inf), LorentzParams(1.2, 2.0)):
        assert _norm_or_error(lambda: bins.majorant_quasinorm(prm)) == \
            _norm_or_error(lambda: rearranged_quasinorm(majorant, prm))
        # the weak norm off the candidate bins, where it applies, is the
        # sort's
        if prm.weak:
            want = _norm_or_error(lambda: lorentz_quasinorm(s, prm))
            got = _norm_or_error(lambda: bins.weak_quasinorm(prm.p))
            assert got is None or got == want
    # the oracle that sums the weight one sample at a time
    sequential = uniform_pieces_sequential(np.sort(values), weight)
    assert np.array_equal(sequential.levels, whole.levels)
    if _sums_exact(weight, n):
        assert np.array_equal(sequential.breakpoints, whole.breakpoints)
    else:
        assert np.allclose(sequential.breakpoints, whole.breakpoints,
                           rtol=1e-12, atol=0)


@pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan])
def test_scalar_weight_must_be_positive_and_finite(weight):
    with pytest.raises(DomainError, match="positive and finite"):
        WeightedSampleSet(np.ones(3), weight)


@pytest.mark.parametrize("values, weights", [
    (np.ones((2, 2)), 1.0),               # values not 1-d
    (np.ones(3), np.ones(2)),             # one weight short
    (np.ones(3), np.ones((3, 1))),        # weights not 1-d
])
def test_sample_shapes_validated(values, weights):
    with pytest.raises(DomainError, match="1-d"):
        WeightedSampleSet(values, weights)


def test_scalar_weight_rejects_non_finite_values():
    with pytest.raises(DomainError, match="finite"):
        WeightedSampleSet(np.array([1.0, math.inf]), 1.0)


def _oracle_uniform_merged(v, weight):
    """The rearrangement of the ascending values ``v`` under one weight,
    from whole arrays (the route before chunks): each piece ends at the
    weight times the count of values from its first on."""
    start = np.empty(len(v), dtype=bool)
    start[0] = True
    start[1:] = v[1:] != v[:-1]
    first = np.flatnonzero(start)[::-1]
    return RearrangedFunction(np.append(0.0, (len(v) - first) * weight),
                              v[first])


def _oracle_quasinorm(r, params):
    """The quasi-norm of ``r`` from whole arrays (the route before chunks)."""
    t, lv = r.breakpoints, r.levels
    peak = lv[0]
    if peak == 0.0:
        return 0.0
    p = params.p
    if params.weak:
        return float(np.max(lv * t[1:] ** (1.0 / p)))
    nu = params.nu
    q = nu / p
    contrib = (lv / peak) ** nu * (t[1:] ** q - t[:-1] ** q)
    total = (p / nu) * float(np.sum(contrib))
    return float(peak * total ** (1.0 / nu))


def _same_float(a, b):
    return np.array_equal(np.float64(a), np.float64(b), equal_nan=True)


_CHUNK_PAIRS = [LorentzParams(1.2, math.inf), LorentzParams(2.0, math.inf),
                LorentzParams(0.5, math.inf), LorentzParams(1.2, 2.0),
                LorentzParams(1.5, 1.5), LorentzParams(0.8, 3.0)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_chunked_rearrangement_equals_whole_arrays_bit_for_bit(data):
    # long runs of ties, zeros and free values, read in chunks and blocks
    # of a few pieces, under weights from 1e-300 to 1e300 (so the weak
    # supremum and the finite-nu powers can overflow)
    atoms = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
    n = data.draw(st.integers(1, 300))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.choice(np.array(atoms + [0.0]), n)
    free = rng.random(n) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    values[free] = rng.uniform(0.0, 1e3, int(free.sum()))
    weight = float(10.0 ** data.draw(st.sampled_from([-300, -3, 0, 5, 300])))
    chunk = data.draw(st.sampled_from([1, 2, 3, 7, lorentz._CHUNK]))
    block = data.draw(st.sampled_from([1, 2, 5, lorentz._BLOCK]))
    saved = lorentz._CHUNK, lorentz._BLOCK
    lorentz._CHUNK, lorentz._BLOCK = chunk, block
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_chunked_route_is_the_whole_array_route(values, weight)
    finally:
        lorentz._CHUNK, lorentz._BLOCK = saved


def _assert_chunked_route_is_the_whole_array_route(values, weight):
    want = _oracle_uniform_merged(np.sort(values), weight)
    got = decreasing_rearrangement(WeightedSampleSet(values, weight))
    assert np.array_equal(got.levels, want.levels)
    assert np.array_equal(got.breakpoints, want.breakpoints)
    n = len(values)
    for prm in _CHUNK_PAIRS:
        norm = _oracle_quasinorm(want, prm)
        uniform = WeightedSampleSet(values, weight)
        owned = WeightedSampleSet.of_magnitudes(
            values.copy(), weight, np.full(n + 3, np.nan))
        routes = [lambda: rearranged_quasinorm(want, prm),
                  lambda: lorentz_quasinorm(uniform, prm),
                  lambda: lorentz_quasinorm(owned, prm)]
        for route in routes:
            if 0.0 < norm < math.inf or not want.levels[0]:
                assert _same_float(route(), norm)
            else:
                # the oracle's power or root left the float range
                with pytest.raises(DomainError, match="float range"):
                    route()
    # a bin's measure is the weight times its count, the weight of its
    # bin under unit weights
    ones = rounded_up(samples(values, np.ones(n)))
    _assert_same_samples(rounded_up(WeightedSampleSet(values, weight)),
                         samples(ones.values, ones.weights * weight))


def test_chunked_rearrangement_on_a_grid_of_samples():
    # more pieces than one chunk, and a run of ties longer than one
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.random(3 * lorentz._CHUNK + 5),
                             np.zeros(lorentz._CHUNK + 9),
                             np.full(2 * lorentz._CHUNK, 0.5)])
    _assert_chunked_route_is_the_whole_array_route(values, 0.25)
