import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conemult.bessel import bessel_j, bessel_j_scaled, surface_area
from conemult.errors import DomainError


def test_j0_at_zero():
    assert bessel_j(0, 0.0) == 1.0


def test_half_order_closed_form():
    # independent evaluation of sqrt(2/(pi x)) sin x
    x = 1.0
    want = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
    assert math.isclose(bessel_j(0.5, x), want, rel_tol=1e-14)
    assert math.isclose(want, 0.671397, abs_tol=5e-7)


def _series_oracle(nu, x, terms=20):
    total = 0.0
    for m in range(terms):
        total += (-1.0) ** m * (x / 2.0) ** (nu + 2 * m) / (
            math.factorial(m) * math.gamma(nu + m + 1))
    return total


def test_j1_at_one_series_oracle():
    want = _series_oracle(1.0, 1.0)
    assert math.isclose(want, 0.4400505857449335, rel_tol=1e-14)
    assert math.isclose(bessel_j(1, 1.0), want, rel_tol=1e-13)


def _clustered(centre):
    return centre * (1.0 + np.array([-1e-3, -1e-9, 0.0, 1e-9, 1e-3]))


def test_accuracy_against_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    base = np.concatenate([[0.0, 1e-6, 0.1], np.geomspace(0.5, 1.0e4, 60),
                           _clustered(8.0), _clustered(20.0)])
    for nu in (0, 0.5, 1, 1.5, 2, 2.5, 3, 4, 8.5, 9, 17.5, 18,
               30, 30.5, 49, 49.5):
        # int(nu) / 0.9 is where the upward and the Miller recurrence meet
        xs = np.concatenate([base, _clustered(int(nu) / 0.9)])
        got = bessel_j(nu, xs)
        for x, g in zip(xs, got):
            ref = float(mp.besselj(mp.mpf(nu), mp.mpf(float(x))))
            assert abs(g - ref) <= 1e-12, (nu, x, g, ref)


_ARGUMENTS = st.one_of(st.floats(0.0, 1.0e4), st.floats(7.5, 25.0),
                       st.floats(0.0, 60.0))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 99), hnp.arrays(np.float64, st.integers(1, 24),
                                       elements=_ARGUMENTS))
def test_each_value_equals_its_one_point_call(twice_order, xs):
    # the regime of an argument never depends on the rest of its array
    nu = twice_order / 2.0
    one_by_one = np.array([bessel_j(nu, x) for x in xs])
    assert bessel_j(nu, xs).tobytes() == one_by_one.tobytes()
    one_by_one = np.array([bessel_j_scaled(nu, x) for x in xs])
    assert bessel_j_scaled(nu, xs).tobytes() == one_by_one.tobytes()


def test_scaled_version_matches_and_handles_origin():
    for nu in (0, 0.5, 1, 2, 17.5):
        assert math.isclose(bessel_j_scaled(nu, 0.0),
                            1.0 / (2.0 ** nu * math.gamma(nu + 1.0)),
                            rel_tol=1e-14)
        x = np.geomspace(0.01, 100.0, 40)
        direct = bessel_j(nu, x) / x ** nu
        assert np.allclose(bessel_j_scaled(nu, x), direct, rtol=1e-10,
                           atol=1e-300)


def test_order_validation():
    with pytest.raises(DomainError):
        bessel_j(0.3, 1.0)
    with pytest.raises(DomainError):
        bessel_j(-1.0, 1.0)


def test_negative_argument_rejected():
    with pytest.raises(DomainError):
        bessel_j(0, -0.5)


def test_surface_areas():
    assert math.isclose(surface_area(2), 2 * math.pi, rel_tol=1e-15)
    assert math.isclose(surface_area(3), 4 * math.pi, rel_tol=1e-15)
    assert math.isclose(surface_area(4), 2 * math.pi ** 2, rel_tol=1e-15)
