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


@pytest.mark.parametrize("points", [2.5, True, "3", np.float64(3.0)])
def test_run_suite_needs_an_integer_points(points):
    with pytest.raises(ConfigError, match="integer points >= 1"):
        checks.run_suite("ml", points=points)


@pytest.mark.parametrize("name", checks.SUITES)
def test_run_suite_needs_a_non_negative_seed(name):
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        checks.run_suite(name, points=1, seed=-1)


def test_suites_deterministic_per_seed():
    for name in checks.SUITES:
        a = checks.run_suite(name, points=5, seed=3)
        assert a == checks.run_suite(name, points=5, seed=3)
        assert 0.0 < a[0] < a[1]


def _oracle(name, points, seed):
    """The worst `grad_check` error over a suite's cases, one operand and
    one shifted copy at a time, the other operands fixed."""
    worst = 0.0
    for loss, operands, _ in checks._cases(name, points, seed):
        fixed = [Tensor(p) for p in operands]
        for i, point in enumerate(operands):
            worst = max(worst, grad_check(
                lambda probe: loss(*fixed[:i], probe, *fixed[i + 1:]), point))
    return worst


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", ROW_SUITES)
def test_stacked_suite_matches_per_coordinate_oracle(name, seed):
    assert checks.run_suite(name, points=12, seed=seed)[0] == _oracle(name, 12, seed)


def _solo_values(value, point, step):
    solo = np.empty((point.size, 2))
    for i in range(point.size):
        for side, shift in enumerate((step, -step)):
            copy = point.copy()
            copy.flat[i] += shift
            solo[i, side] = value(copy)
    return solo


@pytest.mark.parametrize("name", ROW_SUITES)
def test_stacked_values_equal_solo_calls(name):
    step = 1e-5
    for loss, (point,), (values,) in checks._cases(name, 4, 2):
        stacked = checks._stacked_values(values, point, step)
        assert np.array_equal(stacked, _solo_values(lambda x: loss(Tensor(x)).data, point, step))


@pytest.mark.parametrize("seed", [2, 7])
@pytest.mark.parametrize("method", list(al.LOSSES))
def test_stacked_alignment_values_equal_solo_calls(method, seed):
    step, loss = 1e-5, al.LOSSES[method]
    for _, (src, tgt), _ in checks._cases("alignment", 8, seed):
        stacked = checks._stacked_values(lambda s: al.loss_values(method, s, tgt), src, step)
        solo = _solo_values(lambda s: loss(Tensor(s), Tensor(tgt)).data, src, step)
        assert np.array_equal(stacked, solo)
        stacked = checks._stacked_values(lambda t: al.loss_values(method, src, t), tgt, step)
        solo = _solo_values(lambda t: loss(Tensor(src), Tensor(t)).data, tgt, step)
        assert np.array_equal(stacked, solo)


@pytest.mark.parametrize("seed", [0, 5])
def test_stacked_alignment_suite_matches_per_coordinate_oracle(seed):
    assert checks.run_suite("alignment", points=12, seed=seed)[0] == _oracle("alignment", 12, seed)


def test_stacked_end2end_matches_per_coordinate_oracle():
    assert checks.run_suite("end2end", points=1, seed=0)[0] == _oracle("end2end", 1, 0)


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


def test_end2end_wraps_the_parameters_once(monkeypatch):
    wrap, calls = checks.mo.make_param_tensors, []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return wrap(*args, **kwargs)

    monkeypatch.setattr(checks.mo, "make_param_tensors", counted)
    checks.run_suite("end2end", points=1, seed=0)
    assert calls == [{"trainable": False}]  # once per run, not once per copy


def test_nan_error_of_one_parameter_fails_end2end(monkeypatch):
    exact, calls = checks.difference_error, []

    def nan_for_the_second(*args):
        calls.append(args)
        return np.nan if len(calls) == 2 else exact(*args)

    monkeypatch.setattr(checks, "difference_error", nan_for_the_second)
    assert np.isnan(checks.run_suite("end2end", points=1, seed=0)[0])
    assert len(calls) > 2  # every parameter of the one case, after the NaN too
