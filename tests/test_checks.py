import numpy as np
import pytest

from evits import alignment as al
from evits import checks, cli
from evits import evidential as ev
from evits import tensor as tz
from evits.errors import ConfigError
from evits.tensor import Tensor, grad_check

ROW_SUITES = ("ml", "ce", "mse", "kl")


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


@pytest.mark.parametrize("name", checks.SUITES)
def test_run_suite_needs_a_point(name):
    with pytest.raises(ConfigError, match="points >= 1"):
        checks.run_suite(name, points=0)


@pytest.mark.parametrize("name", checks.SUITES)
def test_run_suite_needs_a_non_negative_seed(name):
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        checks.run_suite(name, points=1, seed=-1)


def test_suites_deterministic_per_seed():
    for name in checks.SUITES:
        a = checks.run_suite(name, points=5, seed=3)
        assert a == checks.run_suite(name, points=5, seed=3)
        assert 0.0 < a[0] < a[1]


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", ROW_SUITES)
def test_stacked_suite_matches_per_coordinate_oracle(name, seed):
    points = 12
    cases = checks._row_cases(name, checks._suite_rng(name, seed), points)
    oracle = max(grad_check(lambda x: rows(x).sum(), point) for rows, point in cases)
    assert checks.run_suite(name, points=points, seed=seed)[0] == oracle


@pytest.mark.parametrize("name", ROW_SUITES)
def test_stacked_values_equal_solo_calls(name):
    step = 1e-5
    cases = checks._row_cases(name, checks._suite_rng(name, 2), 4)
    for rows, point in cases:
        solo = np.empty((point.size, 2))
        for i in range(point.size):
            for side, shift in enumerate((step, -step)):
                copy = point.copy()
                copy.flat[i] += shift
                solo[i, side] = rows(Tensor(copy)).sum().data
        stacked = checks._stacked_values(checks._summed_rows(rows), point, step)
        assert np.array_equal(stacked, solo)


def _solo_values(value, point, step):
    solo = np.empty((point.size, 2))
    for i in range(point.size):
        for side, shift in enumerate((step, -step)):
            copy = point.copy()
            copy.flat[i] += shift
            solo[i, side] = value(copy)
    return solo


@pytest.mark.parametrize("seed", [2, 7])
@pytest.mark.parametrize("method", list(al.LOSSES))
def test_stacked_alignment_values_equal_solo_calls(method, seed):
    step, loss = 1e-5, al.LOSSES[method]
    rng = checks._suite_rng("alignment", seed)
    for _, src, tgt in checks._alignment_cases(rng, 8):
        stacked = checks._stacked_values(lambda s: al.loss_values(method, s, tgt), src, step)
        solo = _solo_values(lambda s: loss(Tensor(s), Tensor(tgt)).data, src, step)
        assert np.array_equal(stacked, solo)
        stacked = checks._stacked_values(lambda t: al.loss_values(method, src, t), tgt, step)
        solo = _solo_values(lambda t: loss(Tensor(src), Tensor(t)).data, tgt, step)
        assert np.array_equal(stacked, solo)


@pytest.mark.parametrize("seed", [0, 5])
def test_stacked_alignment_suite_matches_per_coordinate_oracle(seed):
    points = 12
    oracle = 0.0
    for method, src, tgt in checks._alignment_cases(checks._suite_rng("alignment", seed), points):
        loss = al.LOSSES[method]
        oracle = max(oracle, grad_check(lambda s: loss(s, tgt), src),
                     grad_check(lambda t: loss(src, t), tgt))
    assert checks.run_suite("alignment", points=points, seed=seed)[0] == oracle


def _nan_gradient(loss_fn):
    """`loss_fn` with its values kept and an all-NaN backward."""
    def loss(batch, labels):
        alpha = batch.alpha
        return tz._node(loss_fn(batch, labels).data, (alpha,),
                        lambda g: tz._accumulate(alpha, np.full(alpha.shape, np.nan)),
                        "nan_loss")
    return loss


def test_nan_gradient_fails_its_suite(monkeypatch, capsys):
    monkeypatch.setitem(checks.LOSSES, "ml", _nan_gradient(ev.loss_ml))
    assert np.isnan(checks.run_suite("ml", points=3, seed=0)[0])
    assert cli.main(["gradcheck", "--suite", "ml", "--points", "3"]) == 1
    out = capsys.readouterr().out
    assert "worst_rel_error=nan" in out and "FAIL" in out


def test_nan_gradient_fails_the_alignment_suite(monkeypatch, capsys):
    def nan_ddc(src, tgt):
        src, tgt = tz.as_tensor(src), tz.as_tensor(tgt)

        def bwd(g):
            for x in (src, tgt):
                tz._accumulate(x, np.full(x.shape, np.nan))
        return tz._node(al.mmd_linear(src, tgt).data, (src, tgt), bwd, "nan_loss")

    monkeypatch.setitem(al.LOSSES, "ddc", nan_ddc)
    assert np.isnan(checks.run_suite("alignment", points=4, seed=0)[0])
    assert cli.main(["gradcheck", "--suite", "alignment", "--points", "4"]) == 1
    out = capsys.readouterr().out
    assert "worst_rel_error=nan" in out and "FAIL" in out


def test_end2end_wraps_the_parameters_twice(monkeypatch):
    wrap, calls = checks.mo.make_param_tensors, []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return wrap(*args, **kwargs)

    monkeypatch.setattr(checks.mo, "make_param_tensors", counted)
    checks.end_to_end_suite(seed=0)
    assert calls == [{}, {"trainable": False}]


def test_nan_error_of_one_parameter_fails_end2end(monkeypatch):
    exact, calls = checks.central_difference_error, []

    def nan_for_the_second(*args):
        calls.append(args)
        return np.nan if len(calls) == 2 else exact(*args)

    monkeypatch.setattr(checks, "central_difference_error", nan_for_the_second)
    assert np.isnan(checks.end_to_end_suite(seed=0))
