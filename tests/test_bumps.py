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


def _expstep(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _oracle_transition(x):
    """The step as it was: both exponentials on the whole line."""
    g0 = _expstep(x)
    g1 = _expstep(1.0 - np.asarray(x, dtype=float))
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
        got = bumps.transition(x)
        with np.errstate(over="ignore"):   # -1/x at a subnormal x
            want = _oracle_transition(x)
        assert np.array_equal(got, want)
        assert got.dtype == float and got.shape == x.shape
    for scalar in (0.0, 0.3, 1.0, np.nan):
        got = bumps.transition(scalar)
        assert got.shape == () and got == _oracle_transition(scalar)


def test_edge_flat_bump_vanishes_left_of_the_profile_support():
    # BRProfile evaluates (-u)^lambda b(u) on -1/4 < u < 0 alone, which is
    # exact because b vanishes at u <= -1/4
    u = -0.25 - np.linspace(0.0, 0.75, 40)
    assert np.all(bumps.edge_flat_bump(u) == 0.0)
    assert np.all(bumps.edge_flat_bump(np.array([-0.25, -1e300, -np.inf]))
                  == 0.0)
