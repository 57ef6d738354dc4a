"""Evaluation metrics: macro-F1, confusion counts, expected calibration
error with reliability bins, uncertainty summaries and Spearman rank
correlation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

DEFAULT_ECE_BINS = 10
DEFAULT_HIST_BINS = 30


def _check_classes(pred, truth, num_classes):
    pred = np.asarray(pred, dtype=np.int64).reshape(-1)
    truth = np.asarray(truth, dtype=np.int64).reshape(-1)
    if pred.shape != truth.shape:
        raise ShapeError("pred and truth lengths differ")
    for name, arr in (("pred", pred), ("truth", truth)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise DomainError(f"{name} contains classes outside [0, {num_classes})")
    return pred, truth


def confusion_matrix(pred, truth, num_classes):
    """counts[i, j] = number of samples with truth i predicted j."""
    pred, truth = _check_classes(pred, truth, num_classes)
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (truth, pred), 1)
    return counts


def per_class_f1(counts):
    """F1 of each class from `confusion_matrix` counts.

    A class absent from both pred and truth scores 0 (recorded
    zero-division convention; some benchmark splits genuinely miss
    classes)."""
    tp = np.diagonal(counts)
    denom = 2 * tp + (counts.sum(axis=0) - tp) + (counts.sum(axis=1) - tp)
    return np.divide(2.0 * tp, denom, out=np.zeros(len(tp)), where=denom != 0)


def macro_f1(pred, truth, num_classes):
    """Unweighted mean of per-class F1."""
    return float(per_class_f1(confusion_matrix(pred, truth, num_classes)).mean())


def _bin_index(values, bins):
    """Equal-width bins on (0, 1], right-closed; values at 0 join bin 0."""
    return np.clip(np.ceil(values * bins).astype(np.int64) - 1, 0, bins - 1)


@dataclass(frozen=True)
class ReliabilityBin:
    count: int
    mean_confidence: float
    accuracy: float


def ece(probs, truth, bins=DEFAULT_ECE_BINS):
    """Expected calibration error plus the per-bin reliability table.

    Confidence is the row max; bins are equal-width, right-closed on
    (0, 1]; empty bins contribute zero.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ShapeError("probs must be [N, K]")
    if bins < 1:
        raise DomainError("ece needs bins >= 1")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
        raise DomainError("probability rows must sum to 1")
    _, truth = _check_classes(np.zeros(len(probs)), truth, probs.shape[1])
    confidence = probs.max(axis=1)
    predicted = probs.argmax(axis=1)
    correct = (predicted == truth).astype(np.float64)
    indices = _bin_index(confidence, bins)

    table = []
    total = len(probs)
    value = 0.0
    for b in range(bins):
        mask = indices == b
        count = int(mask.sum())
        if count:
            conf = float(confidence[mask].mean())
            acc = float(correct[mask].mean())
            value += (count / total) * abs(acc - conf)
        else:
            conf = acc = 0.0
        table.append(ReliabilityBin(count=count, mean_confidence=conf, accuracy=acc))
    return value, table


@dataclass(frozen=True)
class UncertaintyStats:
    mean: float
    histogram: np.ndarray  # normalized masses, equal-width bins on (0, 1]


def uncertainty_stats(values, bins=DEFAULT_HIST_BINS):
    """Mean and a normalized equal-width histogram of u on (0, 1]."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise DomainError("uncertainty_stats needs at least one value")
    if np.any(values <= 0.0) or np.any(values > 1.0):
        raise DomainError("uncertainties must lie in (0, 1]")
    masses = np.bincount(_bin_index(values, bins), minlength=bins) / values.size
    return UncertaintyStats(mean=float(values.mean()), histogram=masses)


def _average_ranks(values):
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys):
    """Spearman rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=np.float64).reshape(-1)
    ys = np.asarray(ys, dtype=np.float64).reshape(-1)
    if xs.shape != ys.shape:
        raise ShapeError("spearman needs equally long sequences")
    if xs.size < 3:
        raise ShapeError("spearman needs at least 3 points")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)
