import numpy as np
import pytest

from conemult import bumps
from conemult.errors import DomainError


def test_transition_endpoints_and_monotonicity():
    x = np.linspace(-1, 2, 301)
    y = bumps.transition(x)
    assert np.all(y[x <= 0] == 0.0)
    assert np.all(y[x >= 1] == 1.0)
    assert np.all(np.diff(y) >= -1e-15)


def test_window_support_and_plateau():
    x = np.linspace(-6, 6, 1201)
    y = bumps.smooth_window(x, -2.0, -1.0, 1.0, 2.0)
    assert np.all(y[(x <= -2) | (x >= 2)] == 0.0)
    assert np.all(y[(x >= -1) & (x <= 1)] == 1.0)
    assert np.all((y >= 0) & (y <= 1))


def test_window_knot_validation():
    with pytest.raises(DomainError):
        bumps.smooth_window(0.0, 1.0, 0.5, 2.0, 3.0)


def test_bump_phi_support_and_peak():
    phi = bumps.BumpPhi()
    r = np.linspace(0, 3, 601)
    y = phi(r)
    assert np.all(y[(r <= 0.5) | (r >= 2.0)] == 0.0)
    assert phi(np.array([1.0]))[0] > 0
    assert abs(y.max() - 1.0) <= 1e-3
    assert abs(r[np.argmax(y)] - 1.25) <= 0.01


def test_named_cutoff_supports():
    x = np.linspace(-10, 10, 4001)
    y = bumps.band_cutoff(x)
    assert np.all(y[(x <= 1 / 8) | (x >= 8)] == 0.0)
    assert np.all(y[(x >= 1.0) & (x <= 2.0)] == 1.0)
    y = bumps.edge_flat_bump(x)
    assert np.all(y[(x <= -0.25) | (x >= 4.0)] == 0.0)
    assert np.all(y[np.abs(x) <= 0.125] == 1.0)


def _expstep(x, a):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-a / x[pos])
    return out


def _oracle_transition(x, steepness=1.0):
    """The step as it was: both exponentials on the whole line."""
    g0 = _expstep(x, steepness)
    g1 = _expstep(1.0 - np.asarray(x, dtype=float), steepness)
    with np.errstate(invalid="ignore"):
        return np.where(g0 + g1 > 0, g0 / (g0 + g1), 0.0)


def test_transition_equals_the_whole_line_formula():
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, tiny, -tiny,
                        1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52, 0.5, 1e-300,
                        np.finfo(float).tiny, 1e300, -1e300])
    rng = np.random.default_rng(3)
    points = [special, rng.uniform(-0.5, 1.5, 2001),
              rng.uniform(0.0, 1.0, 513), rng.standard_normal(257) * 1e3,
              np.linspace(-1.0, 2.0, 3001)]
    for x in points:
        for a in (1.0, 0.25, 7.5, 700.0):
            got = bumps.transition(x, a)
            with np.errstate(over="ignore"):   # -a/x at a subnormal x
                want = _oracle_transition(x, a)
            assert np.array_equal(got, want)
            assert got.dtype == float and got.shape == x.shape
    for scalar in (0.0, 0.3, 1.0, np.nan):
        got = bumps.transition(scalar)
        assert got.shape == () and got == _oracle_transition(scalar)


def test_transition_steepness_validation():
    for a in (0.0, -1.0, 701.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            bumps.transition(0.5, a)
