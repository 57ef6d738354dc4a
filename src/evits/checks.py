"""Finite-difference verification suites for the analytic gradients.

Each suite returns its worst relative error, measured per coordinate as
|analytic - central difference| / max(1, |analytic|) with step 1e-5.
Tolerances: 1e-4 for the loss suites, 1e-3 for the end-to-end model.
A NaN error anywhere makes the worst error NaN, which fails the check.

The evidential suites (`ml`, `ce`, `mse`, `kl`) have row-wise losses, so
each point's 2 * n * k perturbed copies are stacked along the row axis
and the per-row loss runs once.  A row's loss is the same float
operations as in a solo call and each copy sums its rows as `.sum()`
does, so every central difference is the per-coordinate loop's bit for
bit.  `alignment` and `end2end` keep that loop: batch means, covariances
and batch-norm couple their rows.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import alignment, model as mo
from .errors import ConfigError, check_seed
from .evidential import (
    LOSSES,
    AnnealSchedule,
    LabelBatch,
    evidence_to_alpha,
    kl_to_uniform,
)
from .tensor import (
    Tensor,
    backward,
    central_difference_error,
    difference_error,
    grad_check,
    shifted_points,
)
from .trainer import LossWeights, TrainConfig, combined_loss

LOSS_TOLERANCE = 1e-4
END_TO_END_TOLERANCE = 1e-3
DEFAULT_POINTS = 100  # random points per finite-difference suite

SUITES = ("ml", "ce", "mse", "kl", "alignment", "end2end")


# suite name -> the second entry of its SeedSequence
_SEED_TAGS = {"ml": 1, "ce": 2, "mse": 3, "kl": 0x6B1, "alignment": 0xA119}


def _suite_rng(name, seed):
    return np.random.default_rng(np.random.SeedSequence([seed, _SEED_TAGS[name]]))


def _risk_rows(loss_fn, labels, num_classes, evidence):
    """Per-row Bayesian risk of evidence rows that repeat `labels`' rows."""
    tiled = np.tile(labels, len(evidence.data) // len(labels))
    return loss_fn(evidence_to_alpha(evidence), LabelBatch.from_labels(tiled, num_classes))


def _row_cases(name, rng, points):
    """The (rows, point) pairs of an evidential suite, drawn lazily from
    `rng`: `rows` gives the per-row losses of any number of stacked copies
    of the 3-row `point`, each Bayesian-risk loss w.r.t. evidence or the
    misleading-evidence KL at alpha~ > 1."""
    for _ in range(points):
        n, k = 3, int(rng.integers(2, 5))
        if name == "kl":
            rows, low = kl_to_uniform, 1.05
        else:
            rows, low = partial(_risk_rows, LOSSES[name], rng.integers(0, k, n), k), 0.05
        yield rows, rng.uniform(low, 4.0, (n, k))


def _alignment_cases(rng, points):
    """The (function, point) pairs of the alignment suite: all four losses
    w.r.t. both feature batches."""
    for loss_fn in alignment.LOSSES.values():
        for _ in range(max(points // len(alignment.LOSSES), 1)):
            src = Tensor(rng.standard_normal((5, 3)))
            # keep the means apart so mmd_linear stays off its zero
            tgt = Tensor(rng.standard_normal((5, 3)) + 1.0)
            yield lambda s: loss_fn(s, tgt), src
            yield lambda t: loss_fn(src, t), tgt


def _stacked_values(rows, point, step):
    """`rows(x).sum()` at each of `point`'s `shifted_points`, [size, 2], from
    one call of the row-wise `rows` on all 2 * size copies stacked along
    the row axis; each value is a solo call's bit for bit."""
    flat = point.reshape(-1)
    every = np.arange(flat.size)
    copies = np.tile(point, (2 * flat.size, 1))
    copies.reshape(flat.size, 2, flat.size)[every, :, every] = shifted_points(flat, step)
    return rows(Tensor(copies)).data.reshape(flat.size, 2, len(point)).sum(axis=2)


def _stacked_grad_check(rows, point, step=1e-5):
    """`grad_check(lambda x: rows(x).sum(), point)` bit for bit, with all
    central differences from one stacked call (`_stacked_values`)."""
    probe = Tensor(point.copy(), requires_grad=True)
    backward(rows(probe).sum())
    return difference_error(_stacked_values(rows, point, step), probe.grad, step)


def end_to_end_suite(seed=0, step=1e-5):
    """Full combined-loss gradient on a tiny model, every parameter."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE2E]))
    config = mo.ModelConfig(channels=1, length=16, num_classes=2, num_scales=0,
                            variant=None, conv_widths=(4, 4, 4),
                            kernel_sizes=(8, 5, 3), seed=seed)
    params = mo.init(config)
    x_src = rng.standard_normal((4, 1, 16))
    x_tgt = rng.standard_normal((4, 1, 16)) + 0.5
    labels = LabelBatch.from_labels(rng.integers(0, 2, 4), 2)
    recipe = TrainConfig(evidential="ce", method="ddc", weights=LossWeights(lambda2=1.0))
    schedule = AnnealSchedule(epoch=12)

    def loss_value(tensors):
        fwd_s = mo.forward(params, x_src, mode="train", param_tensors=tensors)
        fwd_t = mo.forward(params, x_tgt, mode="train", param_tensors=tensors)
        return combined_loss(fwd_s, fwd_t, labels, recipe, schedule)[0]

    tensors = mo.make_param_tensors(params)
    backward(loss_value(tensors))
    return float(np.max([central_difference_error(
        lambda: loss_value(mo.make_param_tensors(params, trainable=False)),
        params.arrays[name], tensors[name].grad, step)
        for name in params.trainable_names()]))


def run_suite(name, points=DEFAULT_POINTS, seed=0):
    """Returns (worst error, tolerance) for one named suite; a NaN error
    anywhere makes the worst error NaN."""
    if points < 1:
        raise ConfigError("a gradient suite needs points >= 1")
    check_seed(seed, "gradient suite")
    if name == "end2end":
        return end_to_end_suite(seed=seed), END_TO_END_TOLERANCE
    if name not in _SEED_TAGS:
        raise ConfigError(f"unknown gradient suite {name!r}")
    rng = _suite_rng(name, seed)
    if name == "alignment":
        errors = [grad_check(fn, point) for fn, point in _alignment_cases(rng, points)]
    else:
        errors = [_stacked_grad_check(rows, point) for rows, point in _row_cases(name, rng, points)]
    return float(np.max(errors)), LOSS_TOLERANCE
