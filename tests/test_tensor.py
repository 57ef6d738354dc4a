import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evits import tensor as tz
from evits.errors import ConfigError, ContractError, ShapeError
from evits.tensor import Tensor, backward, grad_check


def arr(*values):
    return np.asarray(values, dtype=np.float64)


class TestConv1d:
    def test_identity_kernel(self):
        out = tz.conv1d(Tensor(arr(1, 2, 3, 4).reshape(1, 1, 4)),
                        Tensor(arr(1).reshape(1, 1, 1)))
        assert np.array_equal(out.data, arr(1, 2, 3, 4).reshape(1, 1, 4))

    def test_strided_cross_correlation(self):
        out = tz.conv1d(Tensor(arr(1, 2, 3, 4).reshape(1, 1, 4)),
                        Tensor(arr(1, 1).reshape(1, 1, 2)), stride=2)
        assert np.array_equal(out.data, arr(3, 7).reshape(1, 1, 2))

    def test_zero_input(self):
        out = tz.conv1d(Tensor(np.zeros((1, 1, 3))),
                        Tensor(np.ones((2, 1, 2))), padding=1)
        assert np.all(out.data == 0.0)

    def test_output_length_contract(self):
        x = Tensor(np.zeros((2, 3, 11)))
        k = Tensor(np.zeros((4, 3, 3)))
        assert tz.conv1d(x, k, stride=2, padding=1).shape == (2, 4, 6)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            tz.conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((1, 3, 2))))

    def test_kernel_longer_than_padded_input(self):
        with pytest.raises(ShapeError):
            tz.conv1d(Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 6))))

    @given(st.integers(0, 2 ** 31 - 1), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 2, 9))
        y = rng.standard_normal((2, 2, 9))
        k = Tensor(rng.standard_normal((3, 2, 3)))
        mixed = tz.conv1d(Tensor(a * x + b * y), k, stride=2, padding=1).data
        parts = (a * tz.conv1d(Tensor(x), k, stride=2, padding=1).data
                 + b * tz.conv1d(Tensor(y), k, stride=2, padding=1).data)
        np.testing.assert_allclose(mixed, parts, rtol=1e-12, atol=1e-9)


class TestPool1d:
    def test_avg(self):
        out = tz.pool1d(Tensor(np.arange(1.0, 9.0).reshape(1, 1, 8)), "avg")
        assert np.array_equal(out.data.ravel(), arr(1.5, 3.5, 5.5, 7.5))

    def test_max(self):
        out = tz.pool1d(Tensor(np.arange(1.0, 9.0).reshape(1, 1, 8)), "max")
        assert np.array_equal(out.data.ravel(), arr(2, 4, 6, 8))

    def test_random_constant_invariance(self):
        for seed in range(5):
            out = tz.pool1d(Tensor(np.full((2, 1, 8), 3.25)), "random",
                            rng=np.random.default_rng(seed))
            assert np.all(out.data == 3.25)

    def test_random_seed_reproducible(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 16)))
        a = tz.pool1d(x, "random", rng=np.random.default_rng(9)).data
        b = tz.pool1d(x, "random", rng=np.random.default_rng(9)).data
        assert np.array_equal(a, b)

    def test_random_requires_rng(self):
        with pytest.raises(ConfigError):
            tz.pool1d(Tensor(np.zeros((1, 1, 4))), "random")

    def test_window_exceeds_length(self):
        with pytest.raises(ShapeError):
            tz.pool1d(Tensor(np.zeros((1, 1, 1))), "max")

    @given(hnp.arrays(np.float64, (2, 2, 12),
                      elements=st.floats(-10, 10)))
    @settings(max_examples=50, deadline=None)
    def test_avgpool_sum_identity(self, values):
        # even length: summing the pooled pairs recovers sum/2
        pooled = tz.pool1d(Tensor(values), "avg")
        np.testing.assert_allclose(pooled.data.sum(), values.sum() / 2.0,
                                   rtol=1e-12, atol=1e-9)


class TestBackward:
    def test_sum_gradient(self):
        x = Tensor(arr(1, 2, 3), requires_grad=True)
        backward(tz.tsum(x))
        assert np.array_equal(x.grad, arr(1, 1, 1))

    def test_power_rule(self):
        x = Tensor(arr(1, 2), requires_grad=True)
        backward(tz.tsum(x * x))
        assert np.array_equal(x.grad, arr(2, 4))

    def test_non_scalar_output_rejected(self):
        x = Tensor(arr(1, 2), requires_grad=True)
        with pytest.raises(ContractError):
            backward(x * 2.0)

    def test_one_gradient_per_call(self):
        x = Tensor(arr(1.0, 2.0), requires_grad=True)
        loss = tz.tsum(x * 3.0)
        backward(loss)
        backward(loss)  # grads reset, not double-accumulated
        assert np.array_equal(x.grad, arr(3, 3))

    def test_broadcast_gradients(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        backward(tz.tsum(x + b))
        assert x.grad.shape == (3, 4)
        assert np.array_equal(b.grad, arr(3, 3, 3, 3))

    def test_concat_routes_gradients(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = tz.concat([a, b], axis=1)
        backward(tz.tsum(out * Tensor(np.arange(10.0).reshape(2, 5))))
        assert np.array_equal(a.grad, np.array([[0.0, 1.0], [5.0, 6.0]]))
        assert b.grad.shape == (2, 3)


def _composite_builders():
    def conv_pool_dense(rng):
        k = Tensor(rng.standard_normal((3, 2, 3)))
        m = Tensor(rng.standard_normal((3, 2)))

        def fn(x):
            h = tz.conv1d(x, k, stride=1, padding=1)
            h = tz.pool1d(h, "max")
            h = h.mean(axis=2)
            return tz.tsum(tz.softplus(tz.matmul(h, m)))
        return fn, (2, 2, 10)

    def avgpool_relu(rng):
        def fn(x):
            h = tz.pool1d(x, "avg")
            return tz.tsum(h.relu() * h)
        return fn, (2, 3, 8)

    def softmax_entropy(rng):
        def fn(x):
            logp = tz.log_softmax(x.reshape((4, 5)), axis=1)
            return -tz.tsum(tz.exp(logp) * logp)
        return fn, (20,)

    def gamma_chain(rng):
        def fn(x):
            shifted = tz.softplus(x) + 0.5
            return tz.tsum(tz.lgamma(shifted) + tz.digamma(shifted + 1.0))
        return fn, (6,)

    def norm_chain(rng):
        def fn(x):
            mu = x.mean(axis=0, keepdims=True)
            var = ((x - mu) ** 2).mean(axis=0, keepdims=True)
            return tz.tsum(((x - mu) / ((var + 1e-5) ** 0.5)) ** 3)
        return fn, (5, 3)

    return [conv_pool_dense, avgpool_relu, softmax_entropy, gamma_chain,
            norm_chain]


@pytest.mark.parametrize("builder_index", range(5))
@pytest.mark.parametrize("seed", range(20))
def test_composite_graphs_match_finite_differences(builder_index, seed):
    # 5 graph shapes x 20 seeds = 100 random composites
    rng = np.random.default_rng(np.random.SeedSequence([builder_index, seed]))
    fn, shape = _composite_builders()[builder_index](rng)
    point = Tensor(rng.standard_normal(shape))
    assert grad_check(fn, point) < 1e-4


class TestGradCheck:
    def test_linear_is_exact(self):
        # dyadic step: central differences of a linear map are exact
        assert grad_check(tz.tsum, Tensor(arr(0.25, -2.0, 5.0)),
                          step=0.25) <= 1e-12

    def test_needs_positive_step(self):
        with pytest.raises(ConfigError):
            grad_check(tz.tsum, Tensor(arr(1.0)), step=0.0)

    def test_propagates_function_errors(self):
        def bad(x):
            raise ValueError("inner failure")
        with pytest.raises(ValueError, match="inner failure"):
            grad_check(bad, Tensor(arr(1.0)))


def test_operations_deterministic():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 16))
    k = rng.standard_normal((4, 3, 5))
    a = tz.conv1d(Tensor(x), Tensor(k), stride=2, padding=2).data
    b = tz.conv1d(Tensor(x), Tensor(k), stride=2, padding=2).data
    assert np.array_equal(a, b)
