"""Dirichlet-evidential classification machinery.

Class evidence e >= 0 parameterizes a Dirichlet over the probability
simplex via alpha = e + 1, so zero evidence is the uniform prior.  The
three Bayesian-risk losses, the misleading-evidence KL regularizer and
the annealed total are all closed forms in alpha and differentiate
through the tape, so they can sit directly in a training objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .special import lgamma as lgamma_value
from .tensor import Tensor, as_tensor


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
    """Integer class labels with their one-hot encoding."""

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


class DirichletBatch:
    """Per-sample Dirichlet concentrations with derived evidence totals."""

    def __init__(self, alpha):
        alpha = as_tensor(alpha)
        if alpha.ndim != 2:
            raise ShapeError("alpha must be [N, K]")
        if np.any(alpha.data < 1.0 - 1e-9) or not np.all(np.isfinite(alpha.data)):
            raise DomainError("alpha entries must be finite and >= 1")
        self.alpha = alpha
        self.num_classes = alpha.shape[1]
        self._total = None

    @property
    def total_evidence(self):
        if self._total is None:
            self._total = self.alpha.sum(axis=1)
        return self._total


def evidence_to_alpha(evidence):
    """Map non-negative evidence to Dirichlet parameters alpha = evidence + 1."""
    evidence = as_tensor(evidence)
    if np.any(evidence.data < 0.0) or not np.all(np.isfinite(evidence.data)):
        raise DomainError("evidence must be non-negative and finite")
    return DirichletBatch(evidence + 1.0)


def predict_mean(batch):
    """Posterior mean probabilities alpha / S, one row per sample."""
    s = batch.total_evidence.reshape((-1, 1))
    return batch.alpha / s


def uncertainty(batch):
    """Subjective-logic vacuity K / S, in (0, 1]."""
    return float(batch.num_classes) / batch.total_evidence


def loss_ml(batch, labels):
    """Per-sample negative log marginal likelihood: sum_k y_k (ln S - ln alpha_k)."""
    _check_pair(batch, labels)
    log_s = batch.total_evidence.log()
    picked = (Tensor(labels.one_hot) * batch.alpha.log()).sum(axis=1)
    return log_s - picked


def loss_ce(batch, labels):
    """Per-sample Bayesian risk of cross-entropy: sum_k y_k (psi(S) - psi(alpha_k))."""
    _check_pair(batch, labels)
    dg_s = batch.total_evidence.digamma().reshape((-1, 1))
    gaps = Tensor(labels.one_hot) * (dg_s - batch.alpha.digamma())
    return gaps.sum(axis=1)


def loss_mse(batch, labels):
    """Per-sample Bayesian risk of squared error: fit term plus Dirichlet variance."""
    _check_pair(batch, labels)
    p_hat = predict_mean(batch)
    s1 = (batch.total_evidence + 1.0).reshape((-1, 1))
    y = Tensor(labels.one_hot)
    fit = (y - p_hat) ** 2
    variance = p_hat * (1.0 - p_hat) / s1
    return (fit + variance).sum(axis=1)


# evidential loss kind -> per-sample Bayesian risk
LOSSES = {"ml": loss_ml, "ce": loss_ce, "mse": loss_mse}


def alpha_tilde(batch, labels):
    """Concentrations with the true class's evidence removed (entry forced to 1)."""
    _check_pair(batch, labels)
    y = labels.one_hot
    return Tensor(y) + Tensor(1.0 - y) * batch.alpha


def kl_to_uniform(alpha_t):
    """KL( Dir(alpha~) || Dir(1) ), the misleading-evidence penalty."""
    alpha_t = as_tensor(alpha_t)
    if alpha_t.ndim != 2:
        raise ShapeError("alpha~ must be [N, K]")
    if np.any(alpha_t.data < 1.0 - 1e-9):
        raise DomainError("alpha~ entries must be >= 1")
    num_classes = alpha_t.shape[1]
    total = alpha_t.sum(axis=1)
    dg_total = total.digamma().reshape((-1, 1))
    out = total.lgamma() - float(lgamma_value(float(num_classes)))
    out = out - alpha_t.lgamma().sum(axis=1)
    out = out + ((alpha_t - 1.0) * (alpha_t.digamma() - dg_total)).sum(axis=1)
    return out


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
