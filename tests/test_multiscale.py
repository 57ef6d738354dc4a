import math

import numpy as np
import pytest

from evits import multiscale as ms
from evits.errors import ConfigError, ShapeError
from evits.evidential import LabelBatch
from evits.tensor import Tensor


def series(values):
    return Tensor(np.asarray(values, dtype=np.float64).reshape(1, 1, -1))


def rand_series(shape, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape))


def down_convs(count, channels=1, seed=1):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.standard_normal((channels, channels, 3)))
            for _ in range(count)]


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

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ms.build_scales(rand_series((1, 1, 8)), 1, "Q")

    def test_conv_variant_kernel_count_enforced(self):
        with pytest.raises(ConfigError):
            ms.build_scales(rand_series((1, 1, 16)), 2, "L",
                            down_convs=down_convs(1))

    def test_lm_alternates_pool_then_conv(self):
        # reduction 1 is a max-pool, so an LM stack at M=1 uses no conv
        assert ms.conv_reduction_levels(1, "LM") == []
        assert ms.conv_reduction_levels(2, "LM") == [2]
        assert ms.conv_reduction_levels(3, "L") == [1, 2, 3]


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
        loss = ms.aux_classification_loss(logits, [], y, ms.AuxWeights([]))
        assert loss.data == pytest.approx(0.0, abs=1e-9)

    def test_uniform_logits_hand_value(self):
        y = LabelBatch.from_labels([0, 1, 2, 3], 4)
        z = Tensor(np.zeros((4, 4)))
        loss = ms.aux_classification_loss(z, [z, z, z], y, ms.AuxWeights())
        assert loss.data == pytest.approx(2.0 * math.log(4.0), abs=1e-12)

    def test_duplicating_batch_keeps_mean(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 4))
        aux = rng.standard_normal((3, 4))
        y = LabelBatch.from_labels([0, 2, 1], 4)
        y2 = LabelBatch.from_labels([0, 2, 1, 0, 2, 1], 4)
        one = ms.aux_classification_loss(
            Tensor(logits), [Tensor(aux)], y, ms.AuxWeights([0.5])).data
        two = ms.aux_classification_loss(
            Tensor(np.tile(logits, (2, 1))), [Tensor(np.tile(aux, (2, 1)))],
            y2, ms.AuxWeights([0.5])).data
        assert two == pytest.approx(one, rel=1e-12)

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((5, 3))
        y = LabelBatch.from_labels(rng.integers(0, 3, 5), 3)
        base = ms.aux_classification_loss(Tensor(logits), [], y,
                                          ms.AuxWeights([])).data
        shifted = ms.aux_classification_loss(
            Tensor(logits + 250.0), [], y, ms.AuxWeights([])).data
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_weight_count_mismatch(self):
        y = LabelBatch.from_labels([0], 2)
        z = Tensor(np.zeros((1, 2)))
        with pytest.raises(ConfigError):
            ms.aux_classification_loss(z, [z, z], y, ms.AuxWeights([0.5]))

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            ms.AuxWeights([0.5, -0.1])


def test_default_aux_weights():
    assert ms.default_aux_weights(2).values == [0.5, 0.25, 0.25]
    assert ms.default_aux_weights(1).values == [0.5, 0.25]
    assert ms.default_aux_weights(0).values == []
