import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evits.errors import DomainError
from evits.special import digamma, lgamma, trigamma

mpmath.mp.dps = 40

EULER_MASCHERONI = 0.5772156649015329


def test_lgamma_hand_values():
    assert lgamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert lgamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert lgamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)


def test_digamma_hand_values():
    assert digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-12)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_MASCHERONI, abs=1e-12)
    assert digamma(3.0) - digamma(2.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("x", [1e-3, 0.02, 0.5, 1.0, 3.7, 9.99, 10.0, 88.0,
                               1234.5, 1e6])
def test_lgamma_against_high_precision(x):
    want = float(mpmath.loggamma(x))
    # 1e-12 absolute wherever float64 can express it; ulp-level beyond
    tolerance = max(1e-12, 4.0 * np.spacing(abs(want)))
    assert abs(lgamma(x) - want) <= tolerance


@pytest.mark.parametrize("x", [1e-3, 0.02, 0.5, 1.0, 3.7, 9.99, 10.0, 88.0,
                               1234.5, 1e6])
def test_digamma_against_high_precision(x):
    want = float(mpmath.digamma(x))
    tolerance = max(1e-10, 4.0 * np.spacing(abs(want)))
    assert abs(digamma(x) - want) <= tolerance


@pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 2.5, 9.9, 10.1, 150.0, 1e5])
def test_trigamma_against_high_precision(x):
    want = float(mpmath.polygamma(1, x))
    assert abs(trigamma(x) - want) <= max(1e-10, 4.0 * np.spacing(abs(want)))


@given(st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_lgamma_recurrence(x):
    assert abs(lgamma(x + 1.0) - lgamma(x) - math.log(x)) < 1e-10


@given(st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_digamma_recurrence(x):
    assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-10


@given(st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_trigamma_recurrence(x):
    assert abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / x ** 2) < 1e-10


def _climb_grid():
    # every climb count m = clip(ceil(10 - x), 0, 10) from 0 to 10: the
    # integers 1..10, one ulp either side of each, points between them,
    # and the far ends of the domain
    ints = np.arange(1.0, 11.0)
    return np.concatenate([ints, np.nextafter(ints, 0.0), np.nextafter(ints, 20.0),
                           ints - 0.3, [1e-5, 1e-3, 0.02, 12.0, 1234.5, 1e6]])


def test_climb_grid_hits_every_count():
    counts = np.clip(np.ceil(10.0 - _climb_grid()), 0, 10)
    assert set(counts) == set(range(11))


def test_vectorized_matches_scalar():
    # bit for bit: an element's value does not depend on its neighbours,
    # the array's shape or where in the array it sits
    xs = _climb_grid()
    order = np.random.default_rng(0).permutation(xs.size)
    for fn in (lgamma, digamma, trigamma):
        out = fn(xs.reshape(2, -1))
        assert out.shape == (2, xs.size // 2)
        flat = out.reshape(-1)
        for i, x in enumerate(xs):
            assert flat[i] == fn(float(x)), (fn.__name__, x)
        assert np.array_equal(fn(xs[order]), flat[order])


CUTOFF_POINTS = [np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 20.0),
                 9.0, 9.5, 10.5, 11.0]


@pytest.mark.parametrize("x", CUTOFF_POINTS)
def test_near_cutoff_against_high_precision(x):
    for fn, want, floor in ((lgamma, mpmath.loggamma(x), 1e-12),
                            (digamma, mpmath.digamma(x), 1e-10),
                            (trigamma, mpmath.polygamma(1, x), 1e-10)):
        want = float(want)
        assert abs(fn(x) - want) <= max(floor, 4.0 * np.spacing(abs(want)))


@pytest.mark.parametrize("fn", [lgamma, digamma, trigamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_domain_errors(fn, bad):
    with pytest.raises(DomainError):
        fn(bad)
    with pytest.raises(DomainError):
        fn(np.array([1.0, bad]))
