import math

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
from reference import weighted_line_samples, weighted_lp_norm


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
        assert math.isclose(r.measure_above(lam), direct, rel_tol=1e-12,
                            abs_tol=1e-12)


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
        assert math.isclose(lorentz_quasinorm(s.scaled(c), params), c * base,
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
    windows = [(0.0, 1e2), (0.0, 1e3), (0.0, 1e4)]
    line = LineSamples.covering(sigma, d, windows)
    vals = [rearranged_quasinorm(r, LorentzParams(p, math.inf))
            for r in line.rearrangements(ghat, windows)]
    assert max(vals) / min(vals) <= 1.05


def test_grid_samples_truncation_empty():
    from conemult.characterize import LineSamples
    line = LineSamples(np.linspace(-1, 1, 32), 1, truncation=1e-9)
    with pytest.raises(DomainError):
        line.samples(np.ones(32))


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
    # up to the rounding of the two cumsums: the factor 17/16 is attained
    # (one bin [1, 1.0625) holding 1 and 1.03125), and then either side
    # can come out one ulp over it
    for nu in (p, 2.0 * p, math.inf):
        prm = LorentzParams(p, nu)
        exact = lorentz_quasinorm(s, prm)
        bound = lorentz_quasinorm(up, prm)
        assert exact <= bound * (1.0 + 1e-12)
        assert bound <= (1.0 + 2.0 ** -4) * exact * (1.0 + 1e-12)


def test_rounded_up_bin_tops():
    # 1.0 opens its bin and rises by the full 1/16; the top of one bin
    # opens the next; zeros stay zero and merge
    s = samples([1.0, 1.0 + 1 / 16, 0.0, 1.0 + 1 / 32, 0.0, 3.0],
                [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    up = rounded_up(s)
    order = np.argsort(up.values)
    assert up.values[order].tolist() == [0.0, 1.0625, 1.125, 3.125]
    assert up.weights[order].tolist() == [8.0, 5.0, 2.0, 6.0]
    got = lorentz_quasinorm(rounded_up(samples([1.0], [2.0])),
                            LorentzParams(1.5, math.inf))
    assert got == 1.0625 * 2.0 ** (1 / 1.5)


def _assert_same_samples(got, want):
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.weights, want.weights)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scalar_weight_equals_its_full_array_bit_for_bit(data):
    # tied levels and zeros, with a share of free values, under one weight
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
    got, want = decreasing_rearrangement(uniform), decreasing_rearrangement(full)
    assert np.array_equal(got.levels, want.levels)
    assert np.array_equal(got.breakpoints, want.breakpoints)
    for nu in (math.inf, 2.0):
        prm = LorentzParams(1.2, nu)
        assert lorentz_quasinorm(uniform, prm) == lorentz_quasinorm(full, prm)
    _assert_same_samples(rounded_up(uniform), rounded_up(full))
    assert weighted_lp_norm(uniform, 1.3) == weighted_lp_norm(full, 1.3)
    masks = rng.random((3, n)) < rng.random((3, 1))
    masks[:, 0] = True
    for a, b in zip(subset_rearrangements(uniform, masks),
                    subset_rearrangements(full, masks)):
        assert np.array_equal(a.levels, b.levels)
        assert np.array_equal(a.breakpoints, b.breakpoints)
    # the measure is n * weight, rounded once
    assert uniform.total_measure == float(np.float64(weight) * n)
    assert math.isclose(uniform.total_measure, full.total_measure,
                        rel_tol=1e-12)
    _assert_same_samples(uniform.scaled(-2.0), samples(2.0 * values, weight))


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
    from whole arrays (the route before chunks)."""
    start = np.empty(len(v), dtype=bool)
    start[0] = True
    start[1:] = v[1:] != v[:-1]
    first = np.flatnonzero(start)
    counts = np.diff(np.append(first, len(v)))[::-1]
    merged = np.cumsum(np.full(int(counts.max()), weight))[counts - 1]
    return RearrangedFunction(np.concatenate(([0.0], np.cumsum(merged))),
                              v[first[::-1]])


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
        assert _same_float(rearranged_quasinorm(want, prm), norm)
        uniform = WeightedSampleSet(values, weight)
        assert _same_float(lorentz_quasinorm(uniform, prm), norm)
        owned = WeightedSampleSet.of_magnitudes(
            values.copy(), weight, np.full(n + 3, np.nan))
        assert _same_float(lorentz_quasinorm(owned, prm), norm)
    _assert_same_samples(rounded_up(WeightedSampleSet(values, weight)),
                         rounded_up(samples(values, np.full(n, weight))))


def test_chunked_rearrangement_on_a_grid_of_samples():
    # more pieces than one chunk, and a run of ties longer than one
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.random(3 * lorentz._CHUNK + 5),
                             np.zeros(lorentz._CHUNK + 9),
                             np.full(2 * lorentz._CHUNK, 0.5)])
    _assert_chunked_route_is_the_whole_array_route(values, 0.25)
