import pytest

from evits import checks
from evits.errors import ConfigError


@pytest.mark.parametrize("kind", ["ml", "ce", "mse"])
def test_evidential_suites_small(kind):
    worst, tolerance = checks.run_suite(kind, points=10, seed=1)
    assert worst < tolerance == checks.LOSS_TOLERANCE


def test_kl_suite_small():
    worst, tolerance = checks.run_suite("kl", points=10, seed=1)
    assert worst < tolerance == checks.LOSS_TOLERANCE


def test_alignment_suite_small():
    worst, tolerance = checks.run_suite("alignment", points=8, seed=1)
    assert worst < tolerance == checks.LOSS_TOLERANCE


def test_run_suite_dispatch():
    worst, tolerance = checks.run_suite("ce", points=5, seed=0)
    assert worst < tolerance == checks.LOSS_TOLERANCE
    with pytest.raises(ConfigError):
        checks.run_suite("everything")


def test_suites_deterministic_per_seed():
    for name in checks.SUITES:
        a = checks.run_suite(name, points=5, seed=3)
        assert a == checks.run_suite(name, points=5, seed=3)
        assert 0.0 < a[0] < a[1]
