import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evits import evidential as ev
from evits.errors import ConfigError, DomainError, ShapeError
from evits.special import digamma, lgamma, trigamma
from evits.tensor import Tensor, backward, grad_check

LN2 = math.log(2.0)


def dirichlet(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return ev.evidence_to_alpha(rows - 1.0)


def labels(indices, k):
    return ev.LabelBatch.from_labels(indices, k)


class TestEvidenceToAlpha:
    def test_zero_evidence_is_uniform_prior(self):
        batch = ev.evidence_to_alpha(np.zeros((1, 6)))
        assert np.array_equal(batch.alpha.data, np.ones((1, 6)))
        assert batch.total_evidence.data[0] == 6.0
        assert ev.uncertainty(batch).data[0] == 1.0

    def test_arithmetic(self):
        batch = ev.evidence_to_alpha(np.array([[9.0, 0.0, 0.0]]))
        assert np.array_equal(batch.alpha.data, np.array([[10.0, 1.0, 1.0]]))
        assert batch.total_evidence.data[0] == 12.0
        assert ev.uncertainty(batch).data[0] == 0.25

    def test_two_class(self):
        batch = ev.evidence_to_alpha(np.array([[1.0, 1.0]]))
        assert batch.total_evidence.data[0] == 4.0
        assert ev.uncertainty(batch).data[0] == 0.5

    @pytest.mark.parametrize("bad", [-0.1, -1e-12, float("nan"), float("inf")])
    def test_rejects_invalid_evidence(self, bad):
        # -1e-12 gives alpha within the batch's 1e-9 tolerance of 1, so only
        # the evidence check can catch it
        with pytest.raises(DomainError, match="evidence must be non-negative and finite"):
            ev.evidence_to_alpha(np.array([[0.0, bad]]))

    @pytest.mark.parametrize("bad", [0.5, float("nan"), float("inf"), -float("inf")])
    def test_batch_rejects_invalid_alpha(self, bad):
        with pytest.raises(DomainError, match="alpha entries must be finite and >= 1"):
            ev.DirichletBatch(np.array([[1.0, bad]]))

    def test_batch_accepts_alpha_within_tolerance(self):
        batch = ev.DirichletBatch(np.array([[1.0 - 1e-10, 2.0]]))
        assert batch.num_classes == 2

    def test_evidence_is_checked_once(self, monkeypatch):
        calls = []
        check = ev._require_range
        monkeypatch.setattr(ev, "_require_range",
                            lambda *args: calls.append(args[2]) or check(*args))
        ev.evidence_to_alpha(np.ones((3, 4)))
        assert calls == ["evidence must be non-negative and finite"]
        ev.DirichletBatch(np.ones((3, 4)))
        assert calls[1:] == ["alpha entries must be finite and >= 1"]

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeError):
            ev.evidence_to_alpha(np.ones(3))
        with pytest.raises(ShapeError):
            ev.DirichletBatch(np.ones(3))


class TestPredictMean:
    def test_symmetry(self):
        probs = ev.predict_mean(dirichlet([[1, 1, 1]])).data
        np.testing.assert_allclose(probs, np.full((1, 3), 1 / 3), atol=1e-15)

    def test_arithmetic(self):
        probs = ev.predict_mean(dirichlet([[10, 1, 1]])).data
        np.testing.assert_allclose(probs, [[10 / 12, 1 / 12, 1 / 12]])

    @given(hnp.arrays(np.float64, (4, 5), elements=st.floats(0.0, 50.0)))
    @settings(max_examples=100, deadline=None)
    def test_rows_stochastic_and_argmax_matches_alpha(self, evidence):
        batch = ev.evidence_to_alpha(evidence)
        probs = ev.predict_mean(batch).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(probs.argmax(axis=1),
                              batch.alpha.data.argmax(axis=1))


class TestUncertainty:
    def test_values(self):
        assert ev.uncertainty(dirichlet([[4, 4, 4]])).data[0] == 0.25

    def test_strictly_decreases_with_evidence(self):
        low = ev.uncertainty(dirichlet([[2, 1, 1]])).data[0]
        high = ev.uncertainty(dirichlet([[3, 1, 1]])).data[0]
        assert high < low

    @given(hnp.arrays(np.float64, (3, 4), elements=st.floats(0.0, 100.0)))
    @settings(max_examples=100, deadline=None)
    def test_in_unit_interval(self, evidence):
        u = ev.uncertainty(ev.evidence_to_alpha(evidence)).data
        assert np.all(u > 0.0) and np.all(u <= 1.0)


class TestClosedForms:
    def test_loss_ml(self):
        assert ev.loss_ml(dirichlet([[1, 1]]), labels([0], 2)).data[0] == \
            pytest.approx(LN2, abs=1e-12)
        assert ev.loss_ml(dirichlet([[3, 1]]), labels([0], 2)).data[0] == \
            pytest.approx(math.log(4) - math.log(3), abs=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("kind", ["ml", "mse"])
    def test_rejects_overflowing_total(self, kind):
        # finite evidence whose row total overflows: ln S would be inf, and
        # p = alpha / S would be 0 with a zero gradient
        batch = ev.evidence_to_alpha(np.array([[1e308, 1e308]]))
        with pytest.raises(DomainError, match="alpha row totals must be finite"):
            ev.LOSSES[kind](batch, labels([0], 2))

    def test_loss_ml_uniform_is_log_k(self):
        for k in (2, 3, 5):
            batch = dirichlet([[2.5] * k])
            for cls in range(k):
                got = ev.loss_ml(batch, labels([cls], k)).data[0]
                assert got == pytest.approx(math.log(k), abs=1e-12)

    def test_loss_ce(self):
        assert ev.loss_ce(dirichlet([[2, 1]]), labels([0], 2)).data[0] == \
            pytest.approx(0.5, abs=1e-12)
        assert ev.loss_ce(dirichlet([[1, 1]]), labels([0], 2)).data[0] == \
            pytest.approx(1.0, abs=1e-12)
        assert ev.loss_ce(dirichlet([[1, 1]]), labels([1], 2)).data[0] == \
            pytest.approx(1.0, abs=1e-12)

    def test_loss_mse(self):
        assert ev.loss_mse(dirichlet([[1, 1]]), labels([0], 2)).data[0] == \
            pytest.approx(2 / 3, abs=1e-12)

    def test_loss_mse_symmetric_alpha(self):
        batch = dirichlet([[3, 3, 3]])
        values = [ev.loss_mse(batch, labels([c], 3)).data[0] for c in range(3)]
        assert max(values) - min(values) < 1e-14

    def test_loss_mse_vanishes_with_certainty(self):
        batch = dirichlet([[1e9, 1, 1]])
        assert ev.loss_mse(batch, labels([0], 3)).data[0] < 1e-6

    def test_alpha_tilde(self):
        out = ev.alpha_tilde(dirichlet([[5, 2, 3]]), labels([0], 3)).data
        assert np.array_equal(out, np.array([[1.0, 2.0, 3.0]]))
        out = ev.alpha_tilde(dirichlet([[2, 7]]), labels([1], 2)).data
        assert np.array_equal(out, np.array([[2.0, 1.0]]))
        ones = dirichlet([[1, 1, 1]])
        out = ev.alpha_tilde(ones, labels([2], 3)).data
        assert np.array_equal(out, np.ones((1, 3)))

    def test_kl_hand_value(self):
        got = ev.kl_to_uniform(Tensor([[2.0, 1.0]])).data[0]
        assert got == pytest.approx(LN2 - 0.5, abs=1e-12)

    def test_kl_zero_at_uniform(self):
        for k in (2, 4, 7):
            assert abs(ev.kl_to_uniform(Tensor(np.ones((1, k)))).data[0]) \
                <= 1e-12

    def test_kl_zero_only_at_ones(self):
        grid = np.linspace(1.0, 3.0, 9)
        for a in grid:
            for b in grid:
                value = ev.kl_to_uniform(Tensor([[a, b]])).data[0]
                if abs(a - 1.0) < 1e-12 and abs(b - 1.0) < 1e-12:
                    assert abs(value) <= 1e-12
                else:
                    assert value > 0.0

    @given(hnp.arrays(np.float64, (2, 3), elements=st.floats(1.0, 50.0)))
    @settings(max_examples=100, deadline=None)
    def test_kl_non_negative(self, alpha_t):
        assert np.all(ev.kl_to_uniform(Tensor(alpha_t)).data >= -1e-12)

    def test_kl_domain(self):
        # NaN and inf fail every comparison, so they need the range check too
        for bad in (0.5, 1.0 - 1e-6, float("nan"), float("inf")):
            with pytest.raises(DomainError,
                               match="alpha~ entries must be finite and >= 1"):
                ev.kl_to_uniform(Tensor([[bad, 2.0]]))


class TestAnnealSchedule:
    @pytest.mark.parametrize("epoch,want", [(0, 0.0), (5, 0.5), (20, 1.0)])
    def test_paper_values(self, epoch, want):
        assert ev.AnnealSchedule(epoch=epoch).coefficient() == \
            pytest.approx(want, abs=1e-12)

    def test_monotone_and_bounded(self):
        values = [ev.AnnealSchedule(t).coefficient() for t in range(25)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_custom_horizon(self):
        assert ev.AnnealSchedule(epoch=2, horizon=4).coefficient() == 0.5

    def test_rejects_negative_epoch(self):
        with pytest.raises(ConfigError):
            ev.AnnealSchedule(epoch=-1)


class TestEvidentialTotal:
    def test_reduces_to_risk_at_epoch_zero(self):
        batch = dirichlet([[2, 1], [4, 3]])
        y = labels([0, 1], 2)
        total = ev.evidential_total(batch, y, ev.AnnealSchedule(0), "ce")
        risk = ev.loss_ce(batch, y).data.sum()
        assert total.data == pytest.approx(risk, abs=1e-12)

    def test_composition_with_full_annealing(self):
        # alpha=(2,1), true class 0: the misleading-evidence KL is taken at
        # alpha~=(1,1) and vanishes, so the total is the bare risk 0.5
        total = ev.evidential_total(dirichlet([[2, 1]]), labels([0], 2),
                                    ev.AnnealSchedule(10), "ce")
        assert total.data == pytest.approx(0.5, abs=1e-12)
        # true class 1 keeps the misleading evidence: 1.5 + (ln2 - 0.5)
        total = ev.evidential_total(dirichlet([[2, 1]]), labels([1], 2),
                                    ev.AnnealSchedule(10), "ce")
        assert total.data == pytest.approx(1.5 + LN2 - 0.5, abs=1e-12)

    def test_sum_over_samples(self):
        batch = dirichlet([[2, 1], [3, 2]])
        y = labels([0, 1], 2)
        doubled = dirichlet([[2, 1], [3, 2], [2, 1], [3, 2]])
        y2 = labels([0, 1, 0, 1], 2)
        one = ev.evidential_total(batch, y, ev.AnnealSchedule(7), "mse").data
        two = ev.evidential_total(doubled, y2, ev.AnnealSchedule(7), "mse").data
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ev.evidential_total(dirichlet([[1, 1]]), labels([0], 2),
                                ev.AnnealSchedule(0), "huber")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ev.loss_ce(dirichlet([[1, 1]]), labels([0], 3))


@pytest.mark.parametrize("kind", ["ml", "ce", "mse"])
def test_monte_carlo_oracle_small(kind):
    # small-sample version of the acceptance MC oracle (3 cases, 2e5 draws)
    rng = np.random.default_rng(101)
    for _ in range(3):
        k = int(rng.integers(2, 5))
        alpha = rng.uniform(1.0, 5.0, size=k)
        true_class = int(rng.integers(0, k))
        draws = rng.dirichlet(alpha, size=200_000)
        p_true = np.clip(draws[:, true_class], 1e-300, None)
        if kind == "ml":
            estimate = -math.log(p_true.mean())
            stderr = p_true.std(ddof=1) / math.sqrt(len(p_true)) / p_true.mean()
        elif kind == "ce":
            values = -np.log(p_true)
            estimate = values.mean()
            stderr = values.std(ddof=1) / math.sqrt(len(values))
        else:
            one_hot = np.zeros(k)
            one_hot[true_class] = 1.0
            values = ((one_hot[None, :] - draws) ** 2).sum(axis=1)
            estimate = values.mean()
            stderr = values.std(ddof=1) / math.sqrt(len(values))
        loss_fn = {"ml": ev.loss_ml, "ce": ev.loss_ce, "mse": ev.loss_mse}[kind]
        closed = loss_fn(dirichlet([alpha]), labels([true_class], k)).data[0]
        assert abs(closed - estimate) <= 3.0 * stderr + 1e-12


def test_ordering_concentration_on_true_class():
    # fixed total evidence: every loss is smallest when evidence sits on y
    k, total_evidence = 3, 9.0
    y = labels([0], k)
    grid = np.linspace(0.0, total_evidence, 10)
    for loss_fn in (ev.loss_ml, ev.loss_ce, ev.loss_mse):
        values = []
        for on_true in grid:
            rest = (total_evidence - on_true) / (k - 1)
            batch = ev.evidence_to_alpha(
                np.array([[on_true, rest, rest]]))
            values.append(loss_fn(batch, y).data[0])
        assert np.argmin(values) == len(grid) - 1
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("kind", ["ml", "ce", "mse"])
def test_gradients_match_finite_differences(kind):
    loss_fn = {"ml": ev.loss_ml, "ce": ev.loss_ce, "mse": ev.loss_mse}[kind]
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        y = labels(rng.integers(0, k, size=3), k)
        evidence = Tensor(rng.uniform(0.05, 4.0, (3, k)))
        err = grad_check(
            lambda e: loss_fn(ev.evidence_to_alpha(e), y).sum(), evidence)
        assert err < 1e-4


def test_kl_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(20):
        alpha_t = Tensor(rng.uniform(1.05, 4.0, (3, 4)))
        assert grad_check(lambda a: ev.kl_to_uniform(a).sum(), alpha_t) < 1e-4


def _chain_ce(alpha, y, g):
    # plain reference: the composed chain the tape ran before the fused
    # node, value sum_k y_k (psi(S) - psi(alpha_k)) and the gradient of
    # sum_i g_i L_i summed over its two paths, psi(alpha) and S
    total = alpha.sum(axis=1)
    value = (y * (digamma(total)[:, None] - digamma(alpha))).sum(axis=1)
    via_alpha = -g[:, None] * y * trigamma(alpha)
    via_total = (g[:, None] * y).sum(axis=1) * trigamma(total)
    return value, via_alpha + via_total[:, None]


def _chain_kl(alpha, g):
    # plain reference for KL(Dir(alpha) || Dir(1)) as the tape composed it:
    # lnG(S) - lnG(K) - sum lnG(alpha) + sum (alpha - 1)(psi(alpha) - psi(S)),
    # its gradient summed over the paths lnG(S), lnG(alpha), the factor
    # alpha - 1, psi(alpha) and psi(S)
    total = alpha.sum(axis=1)
    gap = digamma(alpha) - digamma(total)[:, None]
    value = lgamma(total) - lgamma(float(alpha.shape[1]))
    value = value - lgamma(alpha).sum(axis=1)
    value = value + ((alpha - 1.0) * gap).sum(axis=1)
    via_total = digamma(total) - ((alpha - 1.0) * trigamma(total)[:, None]).sum(axis=1)
    via_alpha = -digamma(alpha) + gap + (alpha - 1.0) * trigamma(alpha)
    return value, g[:, None] * (via_alpha + via_total[:, None])


def _chain_ml(alpha, y, g):
    # plain reference in the tape's old order: ln S - sum_k y_k ln alpha_k,
    # its gradient summed over the paths ln S and ln alpha
    total = alpha.sum(axis=1)
    value = np.log(total) - (y * np.log(alpha)).sum(axis=1)
    return value, -g[:, None] * y / alpha + (g / total)[:, None]


def _chain_mse(alpha, y, g):
    # plain reference in the tape's old order: p = alpha / S, then
    # sum_k (y_k - p_k)^2 + p_k (1 - p_k) / (S + 1); the gradient reaches
    # alpha through p (the fit term and both variance factors) and through
    # S, which feeds both p's divisor and S + 1
    total = alpha.sum(axis=1)
    s, s1 = total[:, None], (total + 1.0)[:, None]
    p = alpha / s
    spread = p * (1.0 - p)
    value = ((y - p) ** 2.0 + spread / s1).sum(axis=1)
    g_spread = g[:, None] / s1
    g_p = -2.0 * g[:, None] * (y - p) + g_spread * (1.0 - p) - g_spread * p
    via_total = (-(g_p * alpha / (s * s)).sum(axis=1)
                 - (g[:, None] * spread / (s1 * s1)).sum(axis=1))
    return value, g_p / s + via_total[:, None]


# evidential loss kind -> its plain reference chain
CHAINS = {"ml": _chain_ml, "ce": _chain_ce, "mse": _chain_mse}


def _assert_close(got, want):
    # relative per entry, as the gradient suites measure it
    gap = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert gap.max() <= 1e-12, gap.max()


# alpha regimes: near 1 (the uniform prior, entries exactly 1 included),
# moderate, and large (a confident head; the climb is idle there)
ALPHA_RANGES = {"near_one": (1.0, 1.0 + 1e-6), "moderate": (1.0, 6.0),
                "large": (60.0, 900.0)}


@pytest.mark.parametrize("regime", sorted(ALPHA_RANGES))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
class TestFusedNodesAgainstChain:
    def setup_method(self):
        self.rng = np.random.default_rng(12)

    def operands(self, k, regime):
        alpha = self.rng.uniform(*ALPHA_RANGES[regime], size=(4, k))
        if regime == "near_one":
            alpha[0, 0] = alpha[2, :] = 1.0
        y = labels(self.rng.integers(0, k, 4), k)
        return alpha, y, self.rng.standard_normal(4)

    def test_loss_ce(self, k, regime):
        alpha, y, g = self.operands(k, regime)
        leaf = Tensor(alpha, requires_grad=True)
        out = ev.loss_ce(ev.DirichletBatch(leaf), y)
        backward((out * Tensor(g)).sum())
        value, grad = _chain_ce(alpha, y.one_hot, g)
        _assert_close(out.data, value)
        _assert_close(leaf.grad, grad)

    @pytest.mark.parametrize("kind", ["ml", "mse"])
    def test_loss_ml_mse(self, k, regime, kind):
        alpha, y, g = self.operands(k, regime)
        leaf = Tensor(alpha, requires_grad=True)
        out = ev.LOSSES[kind](ev.DirichletBatch(leaf), y)
        backward((out * Tensor(g)).sum())
        value, grad = CHAINS[kind](alpha, y.one_hot, g)
        assert np.array_equal(out.data, value)
        _assert_close(leaf.grad, grad)

    def test_alpha_tilde(self, k, regime):
        alpha, y, _ = self.operands(k, regime)
        g = self.rng.standard_normal(alpha.shape)
        leaf = Tensor(alpha, requires_grad=True)
        out = ev.alpha_tilde(ev.DirichletBatch(leaf), y)
        backward((out * Tensor(g)).sum())
        assert np.array_equal(out.data, y.one_hot + (1.0 - y.one_hot) * alpha)
        _assert_close(leaf.grad, g * (1.0 - y.one_hot))

    def test_kl_to_uniform(self, k, regime):
        alpha, _, g = self.operands(k, regime)
        leaf = Tensor(alpha, requires_grad=True)
        out = ev.kl_to_uniform(leaf)
        backward((out * Tensor(g)).sum())
        value, grad = _chain_kl(alpha, g)
        _assert_close(out.data, value)
        _assert_close(leaf.grad, grad)

    @pytest.mark.parametrize("epoch", [0, 10])  # KL coefficient 0 and 1
    def test_evidential_total(self, k, regime, epoch):
        self.check_total(k, regime, epoch, "ce")

    @pytest.mark.parametrize("kind", ["ml", "mse"])
    @pytest.mark.parametrize("epoch", [0, 10])
    def test_evidential_total_ml_mse(self, k, regime, epoch, kind):
        self.check_total(k, regime, epoch, kind)

    def check_total(self, k, regime, epoch, kind):
        alpha, y, _ = self.operands(k, regime)
        schedule = ev.AnnealSchedule(epoch)
        leaf = Tensor(alpha, requires_grad=True)
        out = ev.evidential_total(ev.DirichletBatch(leaf), y, schedule, kind)
        backward(out)
        ones = np.ones(len(alpha))
        value, grad = CHAINS[kind](alpha, y.one_hot, ones)
        coeff = schedule.coefficient()
        if coeff:
            tilde = y.one_hot + (1.0 - y.one_hot) * alpha
            kl_value, kl_grad = _chain_kl(tilde, ones)
            value = value.sum() + coeff * kl_value.sum()
            grad = grad + coeff * (1.0 - y.one_hot) * kl_grad
        _assert_close(out.data, np.sum(value))
        _assert_close(leaf.grad, grad)


@pytest.mark.parametrize("name", [*ev.LOSSES, "alpha_tilde", "kl_to_uniform"])
def test_each_term_is_one_tape_node(name):
    # a term rebuilt as a chain of generic nodes would have other parents
    alpha = Tensor([[2.0, 1.0, 3.5], [1.0, 4.0, 1.5]], requires_grad=True)
    y = labels([0, 2], 3)
    if name == "kl_to_uniform":
        out = ev.kl_to_uniform(alpha)
    else:
        term = ev.LOSSES.get(name, ev.alpha_tilde)
        out = term(ev.DirichletBatch(alpha), y)
    assert out._parents == (alpha,)
