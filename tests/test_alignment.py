import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evits import alignment as al
from evits import tensor as tz
from evits import trainer
from evits.errors import ConfigError, DegenerateBatchError, DomainError, ShapeError
from evits.tensor import Tensor, grad_check


def mean_outer_moment(rows, order):
    # mean p-fold outer product, one row at a time: never an [N, d^p] array
    total = 0.0
    for row in rows:
        moment = row
        for _ in range(order - 1):
            moment = np.einsum("...i,j->...ij", moment, row)
        total = total + moment
    return total / len(rows)


def reference_homm(src, tgt, order):
    diff = mean_outer_moment(src, order) - mean_outer_moment(tgt, order)
    return (diff * diff).sum() / src.shape[1] ** order


# the chains of tensor primitives the one-node losses replace; their
# forward values must match bit for bit
def chain_mmd_linear(src, tgt):
    src, tgt = Tensor(src), Tensor(tgt)
    gap = src.mean(axis=0) - tgt.mean(axis=0)
    sq = (gap * gap).sum()
    return sq / Tensor(np.maximum(sq.data, 1e-12)) ** 0.5


def chain_covariance(x):
    x = Tensor(x)
    centered = x - x.mean(axis=0, keepdims=True)
    return tz.matmul(Tensor(centered.data.T.copy()), centered) * (1.0 / (x.shape[0] - 1))


def chain_coral(src, tgt):
    d = src.shape[1]
    diff = chain_covariance(src) - chain_covariance(tgt)
    return (diff * diff).sum() * (1.0 / (4.0 * d * d))


def chain_homm(src, tgt, order):
    n, m = len(src), len(tgt)
    weights = np.full((n + m, n + m), -1.0 / (n * m))
    weights[:n, :n] = 1.0 / (n * n)
    weights[n:, n:] = 1.0 / (m * m)
    pooled = tz.concat([Tensor(src), Tensor(tgt)], axis=0)
    gram = tz.matmul(pooled, Tensor(pooled.data.T.copy()))
    return (gram ** order * weights).sum() * (1.0 / src.shape[1] ** order)


def unequal_batches(seed):
    # (n, m, width) with n != m, down to coral's 2-row minimum
    rng = np.random.default_rng(seed)
    for n, m, width in ((4, 7, 3), (6, 3, 5), (2, 5, 4), (9, 2, 1)):
        yield (rng.standard_normal((n, width)) * 1.7,
               rng.standard_normal((m, width)) + 0.8)


@pytest.mark.parametrize("name,fused,chain", [
    ("ddc", al.mmd_linear, chain_mmd_linear),
    ("coral", al.coral, chain_coral),
    ("mmda", al.mmda, lambda a, b: chain_mmd_linear(a, b) + chain_coral(a, b)),
    ("homm1", lambda a, b: al.homm(a, b, 1), lambda a, b: chain_homm(a, b, 1)),
    ("homm3", al.homm, lambda a, b: chain_homm(a, b, 3)),
    ("homm4", lambda a, b: al.homm(a, b, 4), lambda a, b: chain_homm(a, b, 4)),
])
def test_one_node_value_equals_chain(name, fused, chain):
    rng = np.random.default_rng(40)
    cases = list(unequal_batches(41))
    cases += [(rng.standard_normal((32, 42)), rng.standard_normal((32, 42)) + 0.2)]
    for src, tgt in cases:
        assert fused(src, tgt).data == chain(src, tgt).data
    x = cases[0][0]
    assert fused(x, x.copy()).data == chain(x, x.copy()).data


@pytest.mark.parametrize("name,loss", [
    ("ddc", al.mmd_linear), ("coral", al.coral), ("mmda", al.mmda)])
def test_gradient_unequal_batches(name, loss):
    # n != m: a swapped 1/n and 1/m (or 1/(n-1), 1/(m-1)) fails here
    for src, tgt in unequal_batches(50):
        src, tgt = Tensor(src), Tensor(tgt)
        assert grad_check(lambda s: loss(s, tgt), src) < 1e-4
        assert grad_check(lambda t: loss(src, t), tgt) < 1e-4


@pytest.mark.parametrize("loss", [
    al.mmd_linear, al.coral, al.homm, al.mmda, al.mmd_rbf,
    pytest.param(lambda s, t: al._mmd_rbf(s, t)[1], id="median_heuristic_bandwidths"),
    pytest.param(functools.partial(al.sliced_wd, rng=np.random.default_rng(0)),
                 id="sliced_wd")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_features_raise_domain_error(loss, bad):
    src = np.random.default_rng(60).standard_normal((4, 3))
    tgt = src + 1.0
    src[2, 1] = bad
    with pytest.raises(DomainError):
        loss(src, tgt)
    with pytest.raises(DomainError):
        loss(tgt, src)


@pytest.mark.parametrize("loss", [
    al.mmd_linear, al.coral, al.homm, al.mmda, al.mmd_rbf,
    pytest.param(functools.partial(al.sliced_wd, rng=np.random.default_rng(0)),
                 id="sliced_wd")])
def test_zero_width_features_raise_shape_error(loss):
    with pytest.raises(ShapeError, match="feature column"):
        loss(np.zeros((4, 0)), np.zeros((4, 0)))


@pytest.mark.parametrize("call,argument", [
    (lambda x: al.homm(x, x + 1.0, order=2.5), "order"),
    (lambda x: al.mmd_rbf(x, x + 1.0, [np.nan]), "bandwidths"),
    (lambda x: al.mmd_rbf(x, x + 1.0, [1.0, np.inf]), "bandwidths"),
    (lambda x: al.sliced_wd(x, x + 1.0, 2.5, np.random.default_rng(0)), "n_projections"),
], ids=["homm_fractional_order", "mmd_rbf_nan_bandwidth", "mmd_rbf_inf_bandwidth",
        "sliced_wd_fractional_projections"])
def test_bad_setting_raises_config_error_naming_it(call, argument):
    x = np.random.default_rng(61).standard_normal((4, 3))
    with pytest.raises(ConfigError, match=argument):
        call(x)


@pytest.mark.parametrize("method", list(al.LOSSES))
def test_loss_values_broadcast_over_copy_axes(method):
    # each copy's value is the tape loss's on that copy, with either operand
    # stacked, both stacked, or two leading axes
    rng = np.random.default_rng(62)
    src, tgt = rng.standard_normal((2, 3, 5, 4)), rng.standard_normal((2, 3, 6, 4)) + 0.5
    loss = al.LOSSES[method]
    got = al.loss_values(method, src, tgt)
    assert got.shape == (2, 3)
    for i, j in np.ndindex(2, 3):
        assert got[i, j] == loss(src[i, j], tgt[i, j]).data
    solo = [loss(s, tgt[0, 0]).data for s in src[0]]
    assert np.array_equal(al.loss_values(method, src[0], tgt[0, 0]), solo)


def two_point_1d(variance):
    # two samples whose unbiased variance is exactly `variance`
    return np.array([[0.0], [np.sqrt(2.0 * variance)]])


class TestMmdLinear:
    def test_identical_batches(self):
        x = np.random.default_rng(0).standard_normal((7, 3))
        assert al.mmd_linear(x, x).data == 0.0

    def test_hand_value(self):
        src = np.array([[-1.0], [1.0]])
        tgt = np.array([[0.0], [2.0]])
        assert al.mmd_linear(src, tgt).data == pytest.approx(1.0, abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        src, tgt = rng.standard_normal((5, 4)), rng.standard_normal((6, 4))
        base = al.mmd_linear(src, tgt).data
        moved = al.mmd_linear(src + 3.5, tgt + 3.5).data
        assert moved == pytest.approx(base, abs=1e-9)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            al.mmd_linear(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_identical_batches_exact_zero_gradient(self):
        x = np.random.default_rng(8).standard_normal((5, 3))
        src = Tensor(x, requires_grad=True)
        tgt = Tensor(x.copy(), requires_grad=True)
        loss = al.mmd_linear(src, tgt)
        loss.backward()
        assert loss.data == 0.0
        assert np.all(src.grad == 0.0) and np.all(tgt.grad == 0.0)

    def test_clip_branch_gradient(self):
        # squared gap 9e-16 < 1e-12: the value is s / 1e-6 and d out/d s = 1e6
        src = Tensor(np.zeros((2, 1)), requires_grad=True)
        tgt = Tensor(np.full((3, 1), 3e-8), requires_grad=True)
        loss = al.mmd_linear(src, tgt)
        loss.backward()
        assert loss.data == pytest.approx(9e-10, rel=1e-9)
        assert src.grad == pytest.approx(np.full((2, 1), -0.03), rel=1e-9)
        assert tgt.grad == pytest.approx(np.full((3, 1), 0.02), rel=1e-9)

    def test_gradient_defined_at_zero(self):
        x = Tensor(np.random.default_rng(2).standard_normal((4, 3)),
                   requires_grad=True)
        loss = al.mmd_linear(x, Tensor(x.data.copy()))
        loss.backward()
        assert np.all(np.isfinite(x.grad))


class TestCoral:
    def test_identical_batches(self):
        x = np.random.default_rng(3).standard_normal((6, 4))
        assert al.coral(x, x).data == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_1d(self):
        got = al.coral(two_point_1d(3.0), two_point_1d(1.0)).data
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_mean_shift_invariance(self):
        rng = np.random.default_rng(4)
        src, tgt = rng.standard_normal((8, 3)), rng.standard_normal((9, 3))
        assert al.coral(src + 7.0, tgt + 7.0).data == \
            pytest.approx(al.coral(src, tgt).data, abs=1e-9)

    def test_joint_rotation_invariance(self):
        rng = np.random.default_rng(5)
        src, tgt = rng.standard_normal((10, 4)), rng.standard_normal((12, 4))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        base = al.coral(src, tgt).data
        rotated = al.coral(src @ q, tgt @ q).data
        assert rotated == pytest.approx(base, abs=1e-8)

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatchError):
            al.coral(np.zeros((1, 3)), np.zeros((5, 3)))

    def test_two_rows(self):
        # n - 1 = 1: the smallest batch the unbiased covariance allows
        rng = np.random.default_rng(9)
        src = Tensor(rng.standard_normal((2, 3)))
        tgt = Tensor(rng.standard_normal((2, 3)) * 2.0)
        assert al.coral(src, tgt).data == chain_coral(src.data, tgt.data).data
        assert grad_check(lambda s: al.coral(s, tgt), src) < 1e-4
        assert grad_check(lambda t: al.coral(src, t), tgt) < 1e-4


class TestHomm:
    def test_first_order_equal_means(self):
        src = np.array([[1.0, 2.0], [3.0, 0.0]])
        tgt = np.array([[2.0, 1.0], [2.0, 1.0]])
        assert al.homm(src, tgt, order=1).data == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        got = al.homm(np.array([[2.0]]), np.array([[0.0]]), order=2).data
        assert got == pytest.approx(16.0, abs=1e-12)

    def test_squared_values_match(self):
        src = np.array([[1.0], [-1.0]])
        tgt = np.array([[1.0], [1.0]])
        assert al.homm(src, tgt, order=2).data == pytest.approx(0.0, abs=1e-12)

    def test_bad_order(self):
        with pytest.raises(ConfigError):
            al.homm(np.zeros((4, 2)), np.zeros((4, 2)), order=0)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_outer_product_reference(self, order):
        rng = np.random.default_rng(20 + order)
        for n, m, width in ((5, 8, 4), (7, 3, 6), (1, 2, 5)):
            src = rng.standard_normal((n, width))
            tgt = 1.3 * rng.standard_normal((m, width)) + 0.4
            want = reference_homm(src, tgt, order)
            assert al.homm(src, tgt, order=order).data == \
                pytest.approx(want, rel=1e-12)

    def test_matches_reference_at_cli_width(self):
        # the single-scale feature width and batch size of the CLI defaults
        rng = np.random.default_rng(24)
        src = rng.standard_normal((32, 64))
        tgt = rng.standard_normal((32, 64)) + 0.3
        assert al.homm(src, tgt).data == \
            pytest.approx(reference_homm(src, tgt, 3), rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_gradient_unequal_batches(self, order):
        rng = np.random.default_rng(30 + order)
        src = Tensor(rng.standard_normal((4, 3)))
        tgt = Tensor(rng.standard_normal((6, 3)) + 0.5)
        assert grad_check(lambda s: al.homm(s, tgt, order), src) < 1e-4
        assert grad_check(lambda t: al.homm(src, t, order), tgt) < 1e-4


class TestMmda:
    def test_identical_batches(self):
        x = np.random.default_rng(6).standard_normal((5, 2))
        assert al.mmda(x, x).data == pytest.approx(0.0, abs=1e-12)

    def test_mean_gap_only(self):
        got = al.mmda(np.array([[-1.0], [1.0]]), np.array([[0.0], [2.0]])).data
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_variance_gap_only(self):
        src = two_point_1d(3.0) - two_point_1d(3.0).mean()
        tgt = two_point_1d(1.0) - two_point_1d(1.0).mean()
        assert al.mmda(src, tgt).data == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name,loss", [
    ("ddc", al.mmd_linear),
    ("coral", al.coral),
    ("homm", lambda a, b: al.homm(a, b, order=3)),
    ("mmda", al.mmda),
])
def test_gradients_match_finite_differences(name, loss):
    rng = np.random.default_rng(17)
    for _ in range(10):
        src = Tensor(rng.standard_normal((5, 3)))
        tgt = Tensor(rng.standard_normal((5, 3)) + 1.0)
        assert grad_check(lambda s: loss(s, tgt), src) < 1e-4
        assert grad_check(lambda t: loss(src, t), tgt) < 1e-4


@given(hnp.arrays(np.float64, (6, 3), elements=st.floats(-5, 5)))
@settings(max_examples=50, deadline=None)
def test_all_losses_non_negative_and_zero_on_identical(batch):
    for loss in (al.mmd_linear, al.coral,
                 lambda a, b: al.homm(a, b, 2), al.mmda):
        assert abs(loss(batch, batch).data) <= 1e-9
        other = batch + 0.5
        assert loss(batch, other).data >= -1e-12


class TestMmdRbf:
    def test_identical(self):
        x = np.random.default_rng(7).standard_normal((20, 3))
        assert al.mmd_rbf(x, x) == 0.0

    def test_separated_point_masses(self):
        src = np.zeros((10, 1))
        tgt = np.full((10, 1), 1e6)
        assert al.mmd_rbf(src, tgt, [1.0]) == pytest.approx(2.0, abs=1e-9)
        assert al.mmd_rbf(src, tgt, [1.0, 1.0]) == pytest.approx(4.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((15, 2)), rng.standard_normal((18, 2)) + 1
        assert al.mmd_rbf(a, b) == pytest.approx(al.mmd_rbf(b, a), abs=1e-12)

    def test_empty_bandwidths(self):
        with pytest.raises(ConfigError):
            al.mmd_rbf(np.zeros((3, 1)), np.zeros((3, 1)), [])


def reference_sq_dists(a, b):
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def reference_bandwidths(src, tgt):
    pooled = np.vstack([src, tgt])
    dists = np.sqrt(reference_sq_dists(pooled, pooled))
    off_diag = dists[~np.eye(len(pooled), dtype=bool)]
    median = float(np.median(off_diag)) if off_diag.size else 0.0
    return [(median if median > 0.0 else 1.0) * s for s in al.DEFAULT_BANDWIDTH_SCALES]


def reference_mmd_rbf(src, tgt, bandwidths=None):
    if bandwidths is None:
        bandwidths = reference_bandwidths(src, tgt)
    d_ss, d_tt, d_st = (reference_sq_dists(p, q) for p, q in
                        ((src, src), (tgt, tgt), (src, tgt)))
    total = 0.0
    for width in bandwidths:
        scale = -0.5 / (width * width)
        total += (np.exp(scale * d_ss).mean() + np.exp(scale * d_tt).mean()
                  - 2.0 * np.exp(scale * d_st).mean())
    return max(float(total), 0.0)


def rbf_batches(case):
    rng = np.random.default_rng(31)
    if case == "duplicates":  # tied and zero distances
        rows = rng.standard_normal((4, 3))
        return rows[[0, 1, 1, 2, 0]], rows[[3, 1, 3, 0]]
    if case == "all_equal":  # median 0 falls back to 1.0
        return np.ones((3, 2)), np.ones((2, 2))
    n, m, width = case
    return rng.standard_normal((n, width)), rng.standard_normal((m, width)) + 0.5


# (n, m, width): pooled rows 6 and 4 give an odd and an even count of
# distinct pairs (15 and 6); (1, 1) is one row per side; (200, 200, 42)
# is the study's shape for the multi-scale mixed feature
RBF_CASES = [(4, 2, 3), (2, 2, 5), (1, 1, 4), (7, 12, 2), (200, 200, 42),
             "duplicates", "all_equal"]


@pytest.mark.parametrize("case", RBF_CASES, ids=str)
def test_mmd_rbf_matches_three_product_reference(case):
    src, tgt = rbf_batches(case)
    assert al._mmd_rbf(src, tgt) == (reference_mmd_rbf(src, tgt),
                                     reference_bandwidths(src, tgt))
    assert al.mmd_rbf(src, tgt, [0.3, 2.5]) == reference_mmd_rbf(src, tgt, [0.3, 2.5])


@pytest.mark.parametrize("case", RBF_CASES, ids=str)
def test_pooled_sq_dists_exactly_symmetric(case):
    # the median heuristic reads one triangle for the pair of entries
    sq = al._pooled_sq_dists(*rbf_batches(case))
    assert np.array_equal(sq, sq.T)


def test_median_fallback_is_unit_width():
    assert al._mmd_rbf(*rbf_batches("all_equal"))[1] == [0.5, 1.0, 2.0]


class TestSlicedWd:
    def test_identical(self):
        x = np.random.default_rng(9).standard_normal((12, 4))
        assert al.sliced_wd(x, x, 10, np.random.default_rng(0)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_sorted_coupling_1d(self):
        src = np.array([[0.0], [1.0]])
        tgt = np.array([[1.0], [2.0]])
        got = al.sliced_wd(src, tgt, 25, np.random.default_rng(1))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((9, 3)), rng.standard_normal((11, 3))
        base = al.sliced_wd(a, b, 30, np.random.default_rng(2))
        shuffled = al.sliced_wd(a[::-1], b[rng.permutation(11)], 30,
                                np.random.default_rng(2))
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_unequal_sizes_interpolate(self):
        src = np.array([[0.0], [1.0], [2.0], [3.0]])
        got = al.sliced_wd(src, src[:2], 5, np.random.default_rng(3))
        assert np.isfinite(got) and got >= 0.0

    def test_needs_projections_and_rng(self):
        with pytest.raises(ConfigError):
            al.sliced_wd(np.zeros((3, 1)), np.zeros((3, 1)), 0,
                         np.random.default_rng(0))
        with pytest.raises(ConfigError):
            al.sliced_wd(np.zeros((3, 1)), np.zeros((3, 1)), 5, None)

    def test_more_projections_concentrate(self):
        # estimator variance across seeds drops when n_proj doubles
        rng = np.random.default_rng(11)
        a = rng.standard_normal((40, 5))
        b = rng.standard_normal((40, 5)) + 0.8
        few, many = [], []
        for seed in range(30):
            few.append(al.sliced_wd(a, b, 8, np.random.default_rng(seed)))
            many.append(al.sliced_wd(a, b, 16, np.random.default_rng(1000 + seed)))
        assert np.var(many) < np.var(few)


def test_alignment_loss_dispatch():
    rng = np.random.default_rng(12)
    src, tgt = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
    for method, loss in al.LOSSES.items():
        value = al.alignment_loss(method, src, tgt).data
        assert np.isfinite(value) and value == loss(src, tgt).data
    assert al.METHODS == ("noadapt", "ddc", "coral", "homm", "mmda")
    assert set(al.METHODS) == set(trainer.METHOD_LAMBDA2)
    with pytest.raises(ConfigError):
        al.alignment_loss("noadapt", src, tgt)
