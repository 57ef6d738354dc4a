"""Dirichlet-evidential classification machinery.

Class evidence e >= 0 parameterizes a Dirichlet over the probability
simplex via alpha = e + 1, so zero evidence is the uniform prior.  The
three Bayesian-risk losses, the misleading-evidence KL regularizer and
the annealed total are all closed forms in alpha and differentiate
through the tape, so they can sit directly in a training objective
(Sensoy et al., 2018).  Each risk, alpha~ and the KL is one tape node
with a plain-numpy forward and a closed-form backward.  The two built on
the log-gamma family, the CE risk and the KL, run each special function
once on alpha and its row totals stacked, and their backward makes one
`trigamma` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .special import digamma, lgamma, trigamma
from .tensor import _accumulate, _node, as_tensor


@dataclass(frozen=True)
class AnnealSchedule:
    """Epoch-indexed ramp for the KL regularizer weight."""

    epoch: int
    horizon: int = 10

    def __post_init__(self):
        if self.epoch < 0 or self.horizon <= 0:
            raise ConfigError("anneal schedule needs epoch >= 0 and horizon > 0")

    def coefficient(self):
        return min(1.0, self.epoch / self.horizon)


@dataclass(frozen=True)
class LabelBatch:
    """Integer class labels with their one-hot encoding: every row of
    `one_hot` holds a single 1, which the loss backwards rely on."""

    labels: np.ndarray
    one_hot: np.ndarray

    @classmethod
    def from_labels(cls, labels, num_classes):
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise DomainError(f"labels must lie in [0, {num_classes})")
        one_hot = np.zeros((labels.size, num_classes))
        one_hot[np.arange(labels.size), labels] = 1.0
        return cls(labels=labels, one_hot=one_hot)

    @property
    def num_classes(self):
        return self.one_hot.shape[1]


def _require_range(values, floor, message):
    """Raise DomainError(message) unless every entry is finite and >= floor."""
    if values.size and not (values.min() >= floor and values.max() < np.inf):
        raise DomainError(message)  # a NaN fails both comparisons


class DirichletBatch:
    """Per-sample Dirichlet concentrations alpha [N, K] and their strengths
    S = sum(alpha) = sum(evidence) + K."""

    def __init__(self, alpha):
        alpha = as_tensor(alpha)
        _require_range(alpha.data, 1.0 - 1e-9, "alpha entries must be finite and >= 1")
        self._adopt(alpha)

    def _adopt(self, alpha):  # alpha already checked
        if alpha.ndim != 2:
            raise ShapeError("alpha must be [N, K]")
        self.alpha = alpha
        self.num_classes = alpha.shape[1]
        self._total = None

    @property
    def total_evidence(self):
        """The Dirichlet strength S = sum(alpha) = sum(evidence) + K per
        sample [N], not the total evidence sum(evidence)."""
        if self._total is None:
            self._total = self.alpha.sum(axis=1)
        return self._total


def evidence_to_alpha(evidence):
    """Map non-negative evidence to Dirichlet parameters alpha = evidence + 1.

    The evidence is checked once; finite e >= 0 gives finite alpha >= 1, so
    the batch skips its own check of alpha."""
    evidence = as_tensor(evidence)
    _require_range(evidence.data, 0.0, "evidence must be non-negative and finite")
    batch = DirichletBatch.__new__(DirichletBatch)
    batch._adopt(evidence + 1.0)
    return batch


def predict_mean(batch):
    """Posterior mean probabilities alpha / S, one row per sample."""
    s = batch.total_evidence.reshape((-1, 1))
    return batch.alpha / s


def uncertainty(batch):
    """Subjective-logic vacuity K / S, in (0, 1]."""
    return float(batch.num_classes) / batch.total_evidence


def loss_ml(batch, labels):
    """Per-sample negative log marginal likelihood: sum_k y_k (ln S - ln alpha_k).

    One tape node; with one-hot y, d/d alpha_k = 1 / S - y_k / alpha_k.
    """
    _check_pair(batch, labels)
    alpha, y = batch.alpha, labels.one_hot
    total = alpha.data.sum(axis=1)
    _require_range(total, 0.0, "alpha row totals must be finite")
    out = np.log(total) - (y * np.log(alpha.data)).sum(axis=1)

    def bwd(g):
        grad = 1.0 / total[:, None] - y / alpha.data
        _accumulate(alpha, g[:, None] * grad)

    return _node(out, (alpha,), bwd, "loss_ml")


def loss_ce(batch, labels):
    """Per-sample Bayesian risk of cross-entropy: sum_k y_k (psi(S) - psi(alpha_k)).

    One tape node; with one-hot y, d/d alpha_k = psi1(S) - y_k psi1(alpha_k).
    """
    _check_pair(batch, labels)
    alpha, y = batch.alpha, labels.one_hot
    stacked = _with_totals(alpha.data)
    dg_alpha, dg_total, _ = _split(digamma(stacked), alpha.shape)
    out = (y * (dg_total - dg_alpha)).sum(axis=1)

    def bwd(g):
        tg_alpha, tg_total, _ = _split(trigamma(stacked), alpha.shape)
        grad = tg_total - y * tg_alpha
        _accumulate(alpha, g[:, None] * grad)

    return _node(out, (alpha,), bwd, "loss_ce")


def loss_mse(batch, labels):
    """Per-sample Bayesian risk of squared error: fit term plus Dirichlet variance,
    sum_k (y_k - p_k)^2 + p_k (1 - p_k) / (S + 1) with p = alpha / S.

    One tape node; with h_k = 2 (p_k - y_k) + (1 - 2 p_k) / (S + 1),
    d/d alpha_j = (h_j - sum_k h_k p_k) / S - sum_k p_k (1 - p_k) / (S + 1)^2.
    """
    _check_pair(batch, labels)
    alpha, y = batch.alpha, labels.one_hot
    total = alpha.data.sum(axis=1)[:, None]
    _require_range(total, 0.0, "alpha row totals must be finite")
    p = alpha.data / total
    s1 = total + 1.0
    variance = p * (1.0 - p) / s1
    out = ((y - p) ** 2.0 + variance).sum(axis=1)

    def bwd(g):
        h = 2.0 * (p - y) + (1.0 - 2.0 * p) / s1
        grad = ((h - (h * p).sum(axis=1, keepdims=True)) / total
                - variance.sum(axis=1, keepdims=True) / s1)
        _accumulate(alpha, g[:, None] * grad)

    return _node(out, (alpha,), bwd, "loss_mse")


# evidential loss kind -> per-sample Bayesian risk
LOSSES = {"ml": loss_ml, "ce": loss_ce, "mse": loss_mse}


def alpha_tilde(batch, labels):
    """Concentrations with the true class's evidence removed (entry forced to 1).

    One tape node, y + (1 - y) alpha; d/d alpha_k = 1 - y_k.
    """
    _check_pair(batch, labels)
    alpha, y = batch.alpha, labels.one_hot
    keep = 1.0 - y

    def bwd(g):
        _accumulate(alpha, g * keep)

    return _node(y + keep * alpha.data, (alpha,), bwd, "alpha_tilde")


def kl_to_uniform(alpha_t):
    """KL( Dir(alpha~) || Dir(1) ), the misleading-evidence penalty.

    One tape node; d/d alpha~_k = (alpha~_k - 1) psi1(alpha~_k)
    - (S~ - K) psi1(S~).
    """
    alpha_t = as_tensor(alpha_t)
    if alpha_t.ndim != 2:
        raise ShapeError("alpha~ must be [N, K]")
    _require_range(alpha_t.data, 1.0 - 1e-9, "alpha~ entries must be finite and >= 1")
    num_classes = alpha_t.shape[1]
    # lnGamma(K) rides along in the stack: one call per special function
    stacked = _with_totals(alpha_t.data, num_classes)
    dg_alpha, dg_total, _ = _split(digamma(stacked), alpha_t.shape)
    lg_alpha, lg_total, lg_k = _split(lgamma(stacked), alpha_t.shape)
    out = lg_total[:, 0] - lg_k[0]
    out = out - lg_alpha.sum(axis=1)
    out = out + ((alpha_t.data - 1.0) * (dg_alpha - dg_total)).sum(axis=1)

    def bwd(g):
        tg_alpha, tg_total, _ = _split(trigamma(stacked), alpha_t.shape)
        excess = alpha_t.data.sum(axis=1, keepdims=True) - num_classes  # S~ - K
        grad = (alpha_t.data - 1.0) * tg_alpha - excess * tg_total
        _accumulate(alpha_t, g[:, None] * grad)

    return _node(out, (alpha_t,), bwd, "kl_to_uniform")


def evidential_total(batch, labels, schedule, kind):
    """Summed batch loss of Eq-style form: sum_i L_i + lambda_t * sum_i KL_i.

    Summed, not averaged: the trainer divides by batch size once so the
    loss weight keeps the same meaning across batch sizes.
    """
    if kind not in LOSSES:
        raise ConfigError(f"unknown evidential loss kind {kind!r}")
    risk = LOSSES[kind](batch, labels)
    total = risk.sum()
    coeff = schedule.coefficient()
    if coeff > 0.0:
        total = total + coeff * kl_to_uniform(alpha_tilde(batch, labels)).sum()
    return total


def _check_pair(batch, labels):
    if labels.one_hot.shape != batch.alpha.shape:
        raise ShapeError(
            f"labels {labels.one_hot.shape} do not match alpha {batch.alpha.shape}"
        )


def _with_totals(alpha, *extra):
    """alpha [N, K], its row totals [N] and `extra`, flat in one array."""
    return np.concatenate([alpha.reshape(-1), alpha.sum(axis=1), extra])


def _split(values, shape):
    """Undo `_with_totals`: ([N, K] part, [N, 1] totals, the extra tail)."""
    size = shape[0] * shape[1]
    return (values[:size].reshape(shape), values[size:size + shape[0], None],
            values[size + shape[0]:])
