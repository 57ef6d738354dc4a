import math

import numpy as np
import pytest

from evits import multiscale as ms
from evits import tensor as tz
from evits.errors import ConfigError, DomainError, ShapeError
from evits.evidential import LabelBatch
from evits.tensor import Tensor, grad_check


def series(values):
    return Tensor(np.asarray(values, dtype=np.float64).reshape(1, 1, -1))


def rand_series(shape, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape))


def down_convs(count, channels=1, seed=1):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.standard_normal((channels, channels, 3)))
            for _ in range(count)]


def down_conv_oracle(x, kernel):
    """One zero step on the left of [N, C, T], then a stride-2
    cross-correlation with a [Cout, C, 3] kernel, window by window."""
    padded = np.concatenate([np.zeros(x.shape[:2] + (1,)), x], axis=2)
    return np.stack([np.einsum("ock,nck->no", kernel, padded[:, :, i:i + 3])
                     for i in range(0, padded.shape[2] - 2, 2)], axis=2)


class TestBuildScales:
    def test_extents_128(self):
        out = ms.build_scales(rand_series((2, 3, 128)), 2, "M")
        assert [s.shape[2] for s in out] == [128, 64, 32]

    @pytest.mark.parametrize("variant,n_convs", [("M", 0), ("A", 0),
                                                 ("L", 2), ("LM", 1)])
    def test_extents_odd_lengths(self, variant, n_convs):
        kwargs = {"down_convs": down_convs(n_convs)} if n_convs else {}
        out = ms.build_scales(rand_series((1, 1, 10)), 2, variant, **kwargs)
        assert [s.shape[2] for s in out] == [10, 5, 2]

    def test_variant_a_values(self):
        out = ms.build_scales(series(range(1, 9)), 2, "A")
        assert np.array_equal(out[1].data.ravel(),
                              [1.5, 3.5, 5.5, 7.5])
        assert np.array_equal(out[2].data.ravel(), [2.5, 6.5])

    def test_scale_zero_is_input_bitwise(self):
        x = rand_series((2, 2, 16))
        out = ms.build_scales(x, 2, "R", rng=np.random.default_rng(0))
        assert out[0] is x

    def test_constant_input_stays_constant(self):
        x = Tensor(np.full((1, 2, 16), 4.75))
        for variant in ("M", "A", "R"):
            out = ms.build_scales(x, 2, variant,
                                  rng=np.random.default_rng(3))
            for scale in out:
                assert np.all(scale.data == 4.75)

    def test_pooling_variants_parameter_free_and_rng_free(self):
        x = rand_series((2, 2, 32), seed=5)
        for variant in ("M", "A"):
            a = ms.build_scales(x, 2, variant, rng=np.random.default_rng(1))
            b = ms.build_scales(x, 2, variant, rng=np.random.default_rng(99))
            for left, right in zip(a, b):
                assert np.array_equal(left.data, right.data)

    def test_random_variant_eval_falls_back_to_max(self):
        x = rand_series((1, 1, 8), seed=6)
        eval_out = ms.build_scales(x, 1, "R", train=False)
        max_out = ms.build_scales(x, 1, "M")
        assert np.array_equal(eval_out[1].data, max_out[1].data)

    def test_random_variant_needs_rng_in_training(self):
        with pytest.raises(ConfigError):
            ms.build_scales(rand_series((1, 1, 8)), 1, "R")

    def test_too_short_input(self):
        with pytest.raises(ConfigError):
            ms.build_scales(rand_series((1, 1, 6)), 3, "M")

    def test_huge_scale_count_fails_at_once(self):
        # a shift test: 2 ** num_scales would be a 2^40-bit integer
        with pytest.raises(ConfigError):
            ms.build_scales(rand_series((1, 1, 8)), 2 ** 40, "M")

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ms.build_scales(rand_series((1, 1, 8)), 1, "Q")

    def test_conv_variant_kernel_count_enforced(self):
        with pytest.raises(ConfigError):
            ms.build_scales(rand_series((1, 1, 16)), 2, "L",
                            down_convs=down_convs(1))

    @pytest.mark.parametrize("length", [8, 9])
    def test_down_conv_matches_numpy_oracle(self, length):
        # integer inputs and kernels keep every sum exact in any order
        rng = np.random.default_rng(length)
        x = rng.integers(-4, 5, (2, 2, length)).astype(np.float64)
        kernel = rng.integers(-3, 4, (2, 2, 3)).astype(np.float64)
        out = ms.build_scales(Tensor(x), 1, "L", down_convs=[Tensor(kernel)])
        assert np.array_equal(out[1].data, down_conv_oracle(x, kernel))

    @pytest.mark.parametrize("variant,num_scales,length,n_convs", [
        ("L", 2, 9, 2), ("LM", 3, 19, 1)], ids=["L-odd", "LM-3"])
    def test_gradients_through_scales(self, variant, num_scales, length, n_convs):
        x = rand_series((2, 2, length), seed=8)
        kernels = down_convs(n_convs, channels=2, seed=9)
        rng = np.random.default_rng(10)
        weights = [rng.standard_normal((2, 2, length >> m))
                   for m in range(num_scales + 1)]

        def objective(series, convs):
            scales = ms.build_scales(series, num_scales, variant, down_convs=convs)
            assert [s.shape[2] for s in scales] == [w.shape[2] for w in weights]
            return sum((s * w).sum() for s, w in zip(scales, weights))

        assert grad_check(lambda v: objective(v, kernels), x) < 1e-6
        for j in range(n_convs):
            assert grad_check(lambda w: objective(
                x, kernels[:j] + [w] + kernels[j + 1:]), kernels[j]) < 1e-6

    @pytest.mark.parametrize("variant,num_scales,train,plan", [
        ("L", 3, True, ["conv", "conv", "conv"]),
        # reduction 1 is a max-pool, so an LM stack at M=1 uses no conv
        ("LM", 1, True, ["max"]),
        ("LM", 2, True, ["max", "conv"]),
        ("LM", 3, True, ["max", "conv", "max"]),
        ("LM", 4, False, ["max", "conv", "max", "conv"]),
        ("M", 2, True, ["max", "max"]),
        ("A", 2, True, ["avg", "avg"]),
        ("R", 2, True, ["random", "random"]),
        ("R", 2, False, ["max", "max"]),
        ("M", 0, True, []),
    ], ids=["L-3", "LM-1", "LM-2", "LM-3", "LM-4", "M-2", "A-2", "R-2-train",
            "R-2-eval", "M-0"])
    def test_reduction_plan(self, variant, num_scales, train, plan):
        assert ms.reduction_plan(num_scales, variant, train) == plan


class TestMixFeatures:
    def test_concatenation_order(self):
        f1 = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        f2 = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
        out = ms.mix_features([f1, f2])
        assert np.array_equal(out.data, [[1, 2, 5, 6], [3, 4, 7, 8]])

    def test_single_scale_identity(self):
        f = Tensor(np.array([[1.0, 2.0]]))
        assert ms.mix_features([f]) is f

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        f1, f2 = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
        perm = rng.permutation(4)
        mixed = ms.mix_features([Tensor(f1), Tensor(f2)]).data
        permuted = ms.mix_features([Tensor(f1[perm]), Tensor(f2[perm])]).data
        assert np.array_equal(permuted, mixed[perm])

    def test_batch_mismatch(self):
        with pytest.raises(ShapeError):
            ms.mix_features([Tensor(np.zeros((3, 2))),
                             Tensor(np.zeros((4, 2)))])


class TestAuxClassificationLoss:
    def test_near_zero_for_confident_correct(self):
        y = LabelBatch.from_labels([0, 1], 2)
        logits = Tensor(1e3 * y.one_hot)
        loss = ms.aux_classification_loss(logits, [], y)
        assert loss.data == pytest.approx(0.0, abs=1e-9)

    def test_uniform_logits_hand_value(self):
        # 0.5 for the first auxiliary head, 0.25 for each later one
        y = LabelBatch.from_labels([0, 1, 2, 3], 4)
        z = Tensor(np.zeros((4, 4)))
        sure = Tensor(1e3 * y.one_hot)
        for aux, want in (([z, z, z], 2.0), ([z, sure, sure], 1.5), ([sure, z, sure], 1.25)):
            loss = ms.aux_classification_loss(z, aux, y)
            assert loss.data == pytest.approx(want * math.log(4.0), abs=1e-12)

    def test_duplicating_batch_keeps_mean(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 4))
        aux = rng.standard_normal((3, 4))
        y = LabelBatch.from_labels([0, 2, 1], 4)
        y2 = LabelBatch.from_labels([0, 2, 1, 0, 2, 1], 4)
        one = ms.aux_classification_loss(Tensor(logits), [Tensor(aux)], y).data
        two = ms.aux_classification_loss(
            Tensor(np.tile(logits, (2, 1))), [Tensor(np.tile(aux, (2, 1)))],
            y2).data
        assert two == pytest.approx(one, rel=1e-12)

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((5, 3))
        y = LabelBatch.from_labels(rng.integers(0, 3, 5), 3)
        base = ms.aux_classification_loss(Tensor(logits), [], y).data
        shifted = ms.aux_classification_loss(Tensor(logits + 250.0), [], y).data
        assert shifted == pytest.approx(base, abs=1e-9)


def chain_cross_entropy(logits, labels):
    # the log-softmax chain the one-node loss replaces, written in tensor
    # primitives; the row totals of exp(shift) enter as a constant
    shift = Tensor(logits) - Tensor(logits.max(axis=1, keepdims=True))
    log_probs = shift - tz.log(Tensor(np.exp(shift.data).sum(axis=1, keepdims=True)))
    return (-(Tensor(labels.one_hot) * log_probs).sum(axis=1)).mean()


class TestSoftmaxCrossEntropy:
    def test_value_equals_chain(self):
        rng = np.random.default_rng(6)
        for n, k, scale in ((1, 2, 1.0), (5, 3, 4.0), (32, 4, 30.0), (7, 5, 1e-3)):
            logits = rng.standard_normal((n, k)) * scale
            y = LabelBatch.from_labels(rng.integers(0, k, n), k)
            assert ms.softmax_cross_entropy(Tensor(logits), y).data == \
                chain_cross_entropy(logits, y).data

    def test_gradient(self):
        rng = np.random.default_rng(7)
        for n, k in ((3, 2), (5, 4)):
            y = LabelBatch.from_labels(rng.integers(0, k, n), k)
            logits = Tensor(rng.standard_normal((n, k)) * 3.0)
            assert grad_check(lambda z: ms.softmax_cross_entropy(z, y), logits) < 1e-6
            assert grad_check(lambda z: ms.aux_classification_loss(
                z, [z * 2.0, z + 1.0], y), logits) < 1e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_logits_raise_domain_error(self, bad):
        logits = np.zeros((3, 4))
        logits[1, 2] = bad
        with pytest.raises(DomainError):
            ms.softmax_cross_entropy(Tensor(logits),
                                     LabelBatch.from_labels([0, 1, 2], 4))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ms.softmax_cross_entropy(Tensor(np.zeros((3, 4))),
                                     LabelBatch.from_labels([0, 1], 4))
