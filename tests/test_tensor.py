import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evits import evidential as ev
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


def _im2col_conv1d(x, w, stride, padding):
    # plain reference: gather every window, one matrix product
    cout, cin, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    t_out = (xp.shape[2] - k) // stride + 1
    cols = np.stack([xp[:, :, s * stride:s * stride + k].reshape(len(x), -1)
                     for s in range(t_out)], axis=1)
    return (cols @ w.reshape(cout, -1).T).transpose(0, 2, 1)


def _per_tap_conv1d_grads(x, w, g, stride, padding):
    # plain reference for the backward: tap j of the kernel meets the input
    # steps j, j + stride, ...; one product per tap for each gradient
    cout, cin, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    steps = [slice(j, j + stride * g.shape[2], stride) for j in range(k)]
    gw = np.stack([np.einsum("not,nit->oi", g, xp[:, :, s]) for s in steps], axis=2)
    gxp = np.zeros_like(xp)
    for j, s in enumerate(steps):
        gxp[:, :, s] += np.einsum("oi,not->nit", w[:, :, j], g)
    return gxp[:, :, padding:padding + x.shape[2]], gw


# (kernel, stride, padding, length): the backbone's three blocks, the first
# block again at another odd output length (15), the L down-sample at an
# odd and an even length, then stride 2 with no padding, padding above
# k - 1, and stride 3
CONV_CASES = [(8, 1, 4, 16), (5, 1, 2, 16), (3, 1, 1, 16), (8, 1, 4, 14),
              (3, 2, 1, 15), (3, 2, 1, 16), (3, 2, 0, 16), (2, 1, 3, 16),
              (4, 3, 0, 15)]


@pytest.mark.parametrize("k, stride, padding, length", CONV_CASES)
class TestConv1dAgainstReference:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = rng.standard_normal((3, 2, 16))
        self.weights = rng.standard_normal((4, 2, 8))
        self.probe = rng.standard_normal((3, 4, 21))

    def operands(self, k, length):
        return self.x[:, :, :length], self.weights[:, :, :k]

    def test_forward(self, k, stride, padding, length):
        x, w = self.operands(k, length)
        out = tz.conv1d(Tensor(x), Tensor(w), stride, padding).data
        np.testing.assert_allclose(out, _im2col_conv1d(x, w, stride, padding),
                                   rtol=1e-12, atol=1e-12)

    def test_gradients(self, k, stride, padding, length):
        x, w = self.operands(k, length)

        def loss(xv, wv):
            out = tz.conv1d(xv, wv, stride, padding)
            probe = self.probe[:, :, :out.shape[2]]
            return tz.tsum(out * Tensor(probe))

        assert grad_check(lambda xv: loss(xv, Tensor(w)), Tensor(x)) < 1e-6
        assert grad_check(lambda wv: loss(Tensor(x), wv), Tensor(w)) < 1e-6

    def test_gradients_against_per_tap_reference(self, k, stride, padding, length):
        x, w = self.operands(k, length)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = tz.conv1d(xt, wt, stride, padding)
        probe = self.probe[:, :, :out.shape[2]]
        backward(tz.tsum(out * Tensor(probe)))
        gx, gw = _per_tap_conv1d_grads(x, w, probe, stride, padding)
        np.testing.assert_allclose(xt.grad, gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(wt.grad, gw, rtol=1e-12, atol=1e-12)


def test_conv1d_untracked_input_gets_no_gradient():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 2, 16))
    w = rng.standard_normal((4, 2, 5))
    grads = []
    for tracked in (False, True):
        xt = Tensor(x, requires_grad=tracked)
        wt = Tensor(w, requires_grad=True)
        backward(tz.tsum(tz.conv1d(xt, wt, 1, 2) ** 2))
        assert (xt.grad is None) == (not tracked)
        grads.append(wt.grad)
    assert np.array_equal(grads[0], grads[1])


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 2])
def test_conv1d_leaves_input_alone(stride, padding):
    # the forward reads the input through a strided window view: the input
    # keeps its values and the output is a fresh array
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 2, 16))
    w = rng.standard_normal((4, 2, 5))
    before = x.copy()
    xt = Tensor(x, requires_grad=True)
    out = tz.conv1d(xt, Tensor(w), stride, padding)
    assert not np.shares_memory(out.data, x)
    backward(tz.tsum(out * out))
    assert np.array_equal(x, before)
    assert not np.shares_memory(xt.grad, x)


def _bn_pool_relu_chain(h, gamma, beta, eps, g):
    # plain reference: the separate batch-norm -> pool1d("max") -> relu
    # nodes, in their float operations and order; returns the output, the
    # batch mean and variance, and the gradients of h, gamma and beta for
    # the output gradient g
    n, c, t = h.shape
    count = h.size / c
    mean = np.einsum("nct->c", h) / count
    centered = h - mean[:, None]
    var = np.einsum("nct,nct->c", centered, centered) / count
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized = centered * inv_std[:, None]
    y = normalized * gamma[:, None] + beta[:, None]
    half = t // 2
    left, right = y[:, :, 0:2 * half:2], y[:, :, 1:2 * half:2]
    take_right = right > left
    pooled = np.maximum(left, right)
    positive = pooled > 0.0
    out = pooled * positive
    g_pooled = g * positive
    gy = np.zeros((n, c, t))
    gy[:, :, 0:2 * half:2] = g_pooled * ~take_right
    gy[:, :, 1:2 * half:2] = g_pooled * take_right
    g_gamma = np.einsum("nct,nct->c", gy, normalized)
    g_beta = np.einsum("nct->c", gy)
    gh = (normalized * g_gamma[:, None] + g_beta[:, None]) * (c / gy.size)
    gh = (gy - gh) * (gamma * inv_std)[:, None]
    return out, mean, var, gh, g_gamma, g_beta


class TestBatchnorm:
    # conv_bn_pool_relu's batch-norm, max-pool and relu tail, reached
    # through a one-tap identity kernel, whose conv passes its input (and
    # the input gradient) through exactly; gamma has a negative entry, and
    # channel 2 (small gamma, beta -5) is negative everywhere before relu
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.h = rng.standard_normal((4, 3, 5)) * 2.0 + 1.0
        self.gamma = np.array([1.3, -0.8, 0.1])
        self.beta = np.array([0.2, -0.3, -5.0])
        self.probe = rng.standard_normal((4, 3, 2))
        self.identity = Tensor(np.eye(3)[:, :, None])

    def tail(self, h, gamma, beta):
        return tz.conv_bn_pool_relu(h, self.identity, gamma, beta, 0, 1e-5)

    def loss(self, h, gamma, beta):
        out, _, _ = self.tail(h, gamma, beta)
        return tz.tsum(out * Tensor(self.probe))

    def test_statistics(self):
        out, mean, var = self.tail(Tensor(self.h), Tensor(self.gamma), Tensor(self.beta))
        np.testing.assert_allclose(mean, self.h.mean(axis=(0, 2)), rtol=1e-12)
        np.testing.assert_allclose(var, self.h.var(axis=(0, 2)), rtol=1e-12)
        y = ((self.h - mean[:, None]) / np.sqrt(var[:, None] + 1e-5)
             * self.gamma[:, None] + self.beta[:, None])
        expected = np.maximum(np.maximum(y[:, :, 0:4:2], y[:, :, 1:4:2]), 0.0)
        assert out.shape == (4, 3, 2)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)

    def test_gradient_wrt_input(self):
        g, b = Tensor(self.gamma), Tensor(self.beta)
        assert grad_check(lambda h: self.loss(h, g, b), Tensor(self.h)) < 1e-6

    def test_gradient_wrt_gamma(self):
        h, b = Tensor(self.h), Tensor(self.beta)
        assert grad_check(lambda g: self.loss(h, g, b),
                          Tensor(self.gamma)) < 1e-6

    def test_gradient_wrt_beta(self):
        h, g = Tensor(self.h), Tensor(self.gamma)
        assert grad_check(lambda b: self.loss(h, g, b),
                          Tensor(self.beta)) < 1e-6

    @pytest.mark.parametrize("length", [8, 9, 129])
    def test_matches_chain_bit_for_bit(self, length):
        # odd lengths drop the trailing step (block 0's conv output has 129);
        # steps 2 and 3 tie in every channel, and so do 6 and 7 in row 0
        rng = np.random.default_rng(length)
        h = rng.standard_normal((4, 3, length)) * 2.0 + 1.0
        h[:, :, 3] = h[:, :, 2]
        h[0, :, 7] = h[0, :, 6]
        g = rng.standard_normal((4, 3, length // 2))
        ht, gt, bt = (Tensor(a, requires_grad=True) for a in (h, self.gamma, self.beta))
        out, mean, var = self.tail(ht, gt, bt)
        backward(tz.tsum(out * Tensor(g)))
        expected = _bn_pool_relu_chain(h, self.gamma, self.beta, 1e-5, g)
        for got, want in zip((out.data, mean, var, ht.grad, gt.grad, bt.grad), expected):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        # relu gives +0.0, where the chain's x * mask gave -0.0
        assert np.all(out.data[:, 2] == 0.0) and not np.signbit(out.data).any()

    def test_window_exceeds_length(self):
        with pytest.raises(ShapeError):
            tz.conv_bn_pool_relu(Tensor(np.zeros((2, 1, 1))), Tensor(np.ones((1, 1, 1))),
                                 Tensor(np.ones(1)), Tensor(np.zeros(1)), 0, 1e-5)


@pytest.mark.parametrize("k, length", [(8, 16), (5, 16), (3, 9)])
def test_block_matches_conv_then_chain_bit_for_bit(k, length):
    # the block node against a conv1d node followed by the reference tail:
    # the same product, statistics and output, and the conv1d backward of
    # the tail's input gradient gives the same kernel and input gradients
    rng = np.random.default_rng(k)
    x = rng.standard_normal((4, 2, length))
    w = rng.standard_normal((3, 2, k))
    gamma, beta = np.array([1.3, -0.8, 0.1]), np.array([0.2, -0.3, -5.0])
    xt, wt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, w, gamma, beta))
    out, mean, var = tz.conv_bn_pool_relu(xt, wt, gt, bt, k // 2, 1e-5)
    g = rng.standard_normal(out.shape)
    backward(tz.tsum(out * Tensor(g)))

    xc, wc = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    conv = tz.conv1d(xc, wc, 1, k // 2)
    want_out, want_mean, want_var, gh, g_gamma, g_beta = _bn_pool_relu_chain(
        conv.data, gamma, beta, 1e-5, g)
    backward(tz.tsum(conv * Tensor(gh)))
    pairs = ((out.data, want_out), (mean, want_mean), (var, want_var),
             (xt.grad, xc.grad), (wt.grad, wc.grad), (gt.grad, g_gamma), (bt.grad, g_beta))
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert np.array_equal(x, xt.data)  # the block's input is read, never written


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

    def test_max_commutes_with_relu(self):
        # pairs: tied positive, tied negative, both negative, mixed sign
        # either way round, both positive; and an odd trailing step
        h = np.array([[[1.5, 1.5, -2.0, -2.0, -1.0, -3.0, -0.5, 2.0,
                        4.0, -1.0, 0.25, 0.75, -7.0],
                       [-3.0, -1.0, 2.0, 2.0, 3.0, -3.0, -4.0, -4.0,
                        0.5, 0.125, -0.5, 6.0, 9.0]]])
        probe = Tensor(np.array([[[-1.0, 2.0, -3.0, 4.0, 5.0, -6.0],
                                  [7.0, -8.0, 9.0, -1.5, 2.5, -3.5]]]))
        results = []
        for pool_first in (True, False):
            ht = Tensor(h, requires_grad=True)
            out = tz.pool1d(ht, "max").relu() if pool_first \
                else tz.pool1d(ht.relu(), "max")
            backward(tz.tsum(out * probe))
            results.append((out.data.tobytes(), ht.grad.tobytes()))
        assert results[0] == results[1]

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
        # two graphs over one leaf: the second call resets the leaf's grad
        x = Tensor(arr(1.0, 2.0), requires_grad=True)
        backward(tz.tsum(x * 3.0))
        backward(tz.tsum(x * 3.0))
        assert np.array_equal(x.grad, arr(3, 3))

    def test_backward_frees_the_graph(self):
        x = Tensor(arr(1.0, 2.0), requires_grad=True)
        scaled = x * 3.0
        loss = tz.tsum(scaled * scaled)
        backward(loss)
        for node in (scaled, loss):
            assert node.grad is None and node._backward is None
            assert node._parents == ()
        assert np.array_equal(x.grad, arr(18, 36))

    def test_second_backward_of_a_consumed_graph_raises(self):
        x = Tensor(arr(1.0, 2.0), requires_grad=True)
        scaled = x * 3.0
        loss = tz.tsum(scaled)
        backward(loss)
        with pytest.raises(ContractError, match="consumed 'sum' node"):
            backward(loss)
        with pytest.raises(ContractError, match="consumed 'mul' node"):
            backward(tz.tsum(scaled))  # a new node over a consumed one
        assert np.array_equal(x.grad, arr(3, 3))  # the refused call changed nothing

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

    def normalized_entropy(rng):
        # entropy of softplus weights normalized per row: div, sum and log
        def fn(x):
            q = tz.softplus(x).reshape((4, 5))
            p = q / tz.tsum(q, axis=1, keepdims=True)
            return -tz.tsum(p * tz.log(p))
        return fn, (20,)

    def gamma_chain(rng):
        # the fused evidential CE and KL nodes behind a softplus
        y = ev.LabelBatch.from_labels(rng.integers(0, 3, 2), 3)

        def fn(x):
            alpha = tz.softplus(x).reshape((2, 3)) + 1.0
            risk = ev.loss_ce(ev.DirichletBatch(alpha), y)
            return tz.tsum(risk + ev.kl_to_uniform(alpha))
        return fn, (6,)

    def norm_chain(rng):
        def fn(x):
            mu = x.mean(axis=0, keepdims=True)
            var = ((x - mu) ** 2).mean(axis=0, keepdims=True)
            return tz.tsum(((x - mu) / ((var + 1e-5) ** 0.5)) ** 3)
        return fn, (5, 3)

    return [conv_pool_dense, avgpool_relu, normalized_entropy, gamma_chain,
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

    @staticmethod
    def sum_node(x, value, grad):
        """A scalar node over `x` with the given value and backward."""
        return tz._node(np.asarray(value), (x,),
                        lambda g: tz._accumulate(x, g * grad), "probe")

    def test_nan_gradient_fails(self):
        point = arr(0.5, 2.0)
        def nan_backward(x):
            return self.sum_node(x, x.data.sum(), np.full(2, np.nan))

        assert np.isnan(grad_check(nan_backward, Tensor(point)))

    def test_nan_value_at_a_shifted_point_fails(self):
        point = arr(0.5, 2.0)

        def nan_off_point(x):
            value = x.data.sum() if np.array_equal(x.data, point) else np.nan
            return self.sum_node(x, value, np.ones(2))

        assert np.isnan(grad_check(nan_off_point, Tensor(point)))


def test_operations_deterministic():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 16))
    k = rng.standard_normal((4, 3, 5))
    a = tz.conv1d(Tensor(x), Tensor(k), stride=2, padding=2).data
    b = tz.conv1d(Tensor(x), Tensor(k), stride=2, padding=2).data
    assert np.array_equal(a, b)
