import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evits import metrics as me
from evits.errors import DomainError, ShapeError


class TestMacroF1:
    def test_perfect(self):
        assert me.macro_f1([0, 1, 2, 0], [0, 1, 2, 0], 3) == 1.0

    def test_hand_case(self):
        got = me.macro_f1([0, 1, 1, 1], [0, 0, 1, 1], 2)
        assert got == pytest.approx(11.0 / 15.0, abs=1e-9)

    def test_absent_class_contributes_zero(self):
        got = me.macro_f1([0, 1, 0, 1], [0, 1, 0, 1], 3)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 4, 60)
        truth = rng.integers(0, 4, 60)
        perm = rng.permutation(60)
        assert me.macro_f1(pred[perm], truth[perm], 4) == \
            me.macro_f1(pred, truth, 4)

    def test_one_iff_diagonal(self):
        pred = np.array([0, 1, 1])
        truth = np.array([0, 1, 2])
        assert me.macro_f1(pred, truth, 3) < 1.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            me.macro_f1([0, 3], [0, 1], 3)

    def test_per_class_hand_oracle(self):
        # class 0: tp 2, fp 2; classes 1 and 2: tp 1, fn 1; class 3 absent
        counts = me.confusion_matrix([0, 0, 0, 1, 0, 2], [0, 0, 1, 1, 2, 2], 4)
        assert me.per_class_f1(counts).tolist() == [2 / 3, 2 / 3, 2 / 3, 0.0]

    def test_matches_per_class_loop(self):
        # a per-class loop reference: the same float ops, so equal bit for bit
        rng = np.random.default_rng(1)
        for k in (2, 3, 7):
            pred, truth = rng.integers(0, k, 50), rng.integers(0, k - 1, 50)
            counts = me.confusion_matrix(pred, truth, k)
            scores = np.zeros(k)
            for c in range(k):
                tp = counts[c, c]
                denom = 2 * tp + (counts[:, c].sum() - tp) + (counts[c, :].sum() - tp)
                scores[c] = 2.0 * tp / denom if denom else 0.0
            assert np.array_equal(me.per_class_f1(counts), scores)
            assert me.macro_f1(pred, truth, k) == float(scores.mean())


class TestConfusion:
    def test_perfect_diagonal(self):
        counts = me.confusion_matrix([0, 1, 1, 2], [0, 1, 1, 2], 3)
        assert np.array_equal(counts, np.diag([1, 2, 1]))

    def test_single_column(self):
        counts = me.confusion_matrix([0, 0, 0], [0, 1, 2], 3)
        assert np.array_equal(counts[:, 0], [1, 1, 1])
        assert counts[:, 1:].sum() == 0

    def test_total_is_n(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 5, 123)
        truth = rng.integers(0, 5, 123)
        assert me.confusion_matrix(pred, truth, 5).sum() == 123


class TestEce:
    def test_confident_and_correct(self):
        probs = np.tile([1.0, 0.0], (5, 1))
        assert me.ece(probs, np.zeros(5, int))[0] == 0.0

    def test_confident_and_wrong(self):
        probs = np.tile([1.0, 0.0], (5, 1))
        assert me.ece(probs, np.ones(5, int))[0] == 1.0

    def test_hand_case(self):
        probs = np.array([[0.9, 0.1], [0.9, 0.1], [0.6, 0.4], [0.6, 0.4]])
        truth = np.array([0, 0, 0, 1])
        value, table = me.ece(probs, truth)
        assert value == pytest.approx(0.1, abs=1e-9)
        assert sum(entry.count for entry in table) == 4

    def test_reliability_bins_partition(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(3), 200)
        truth = rng.integers(0, 3, 200)
        _, table = me.ece(probs, truth, bins=15)
        assert len(table) == 15
        assert sum(entry.count for entry in table) == 200

    def test_permutation_and_relabel_invariance(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(4), 100)
        truth = rng.integers(0, 4, 100)
        base = me.ece(probs, truth)[0]
        perm = rng.permutation(100)
        assert me.ece(probs[perm], truth[perm])[0] == pytest.approx(base)
        relabel = np.array([2, 0, 3, 1])
        assert me.ece(probs[:, np.argsort(relabel)],
                      relabel[truth])[0] == pytest.approx(base)

    def test_calibrated_generator(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(3), 100_000)
        truth = (probs.cumsum(axis=1) > rng.random((100_000, 1))).argmax(axis=1)
        assert me.ece(probs, truth)[0] <= 0.01

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            me.ece(np.array([[0.5, 0.4]]), [0])


class TestUncertaintyStats:
    def test_all_ones(self):
        stats = me.uncertainty_stats(np.ones(10))
        assert stats.mean == 1.0
        hist = stats.histogram
        assert hist[-1] == 1.0 and hist[:-1].sum() == 0.0

    def test_uniform_grid_is_flat(self):
        values = (np.arange(3000) % 30 + 0.5) / 30.0
        stats = me.uncertainty_stats(values, bins=30)
        np.testing.assert_allclose(stats.histogram, 1.0 / 30.0, atol=1e-12)

    def test_mass_sums_to_one(self):
        rng = np.random.default_rng(5)
        stats = me.uncertainty_stats(rng.uniform(0.01, 1.0, 777))
        assert stats.histogram.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            me.uncertainty_stats(np.array([0.5, bad]))


class TestSpearman:
    def test_identity(self):
        assert me.spearman([1.0, 5.0, 2.0], [1.0, 5.0, 2.0]) == \
            pytest.approx(1.0, abs=1e-12)

    def test_reversed(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert me.spearman(xs, xs[::-1]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_case(self):
        assert me.spearman([1, 2, 3], [2, 1, 3]) == \
            pytest.approx(0.5, abs=1e-12)

    def test_tie_handling_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(6)
        xs = np.round(rng.standard_normal(50), 1)
        ys = np.round(rng.standard_normal(50), 1)
        want = scipy_stats.spearmanr(xs, ys).statistic
        assert me.spearman(xs, ys) == pytest.approx(want, abs=1e-12)

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=40),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_antisymmetric(self, xs, seed):
        rng = np.random.default_rng(seed)
        ys = list(rng.standard_normal(len(xs)))
        rho = me.spearman(xs, ys)
        assert -1.0 - 1e-12 <= rho <= 1.0 + 1e-12
        # reversing one argument's order statistics flips the sign
        flipped = me.spearman(xs, [-y for y in ys])
        assert flipped == pytest.approx(-rho, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            me.spearman([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ShapeError):
            me.spearman([1, 2], [1, 2])
