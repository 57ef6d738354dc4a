"""Finite-difference verification suites for the analytic gradients.

Each suite returns its worst relative error, measured per coordinate as
|analytic - central difference| / max(1, |analytic|) with step 1e-5.
Tolerances: 1e-4 for the loss suites, 1e-3 for the end-to-end model.
A NaN error anywhere makes the worst error NaN, which fails the check.

Every suite but `end2end` evaluates a point's central differences in one
stacked call per operand and takes all its operands' gradients from one
backward.  The evidential suites (`ml`, `ce`, `mse`, `kl`) have row-wise
losses, so the 2 * n * k perturbed copies are stacked along the row axis
and the per-row loss runs once; each copy sums its rows as `.sum()`
does.  The alignment losses couple a batch's rows through its means and
covariances, so the copies of one feature batch go on a new leading axis
of `alignment.loss_values`, with the other batch fixed.  Either way each
copy's value is the same float operations as a solo call, so every
central difference is the per-coordinate loop's bit for bit.  Only
`end2end` keeps that loop: its copies are different models, and
train-mode batch-norm couples the rows of every batch they see.
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
    """The (method, src, tgt) draws of the alignment suite: all four losses,
    each checked w.r.t. both feature batches."""
    for method in alignment.LOSSES:
        for _ in range(max(points // len(alignment.LOSSES), 1)):
            src = rng.standard_normal((5, 3))
            # keep the means apart so mmd_linear stays off its zero
            tgt = rng.standard_normal((5, 3)) + 1.0
            yield method, src, tgt


def _stacked_values(values, point, step):
    """The function at each of `point`'s `shifted_points`, [size, 2], from
    one call of `values` on all 2 * size copies stacked along a new leading
    axis; `values` maps copies [c, *point.shape] to their values [c]."""
    flat = point.reshape(-1)
    every = np.arange(flat.size)
    copies = np.tile(flat, (2 * flat.size, 1))
    copies.reshape(flat.size, 2, flat.size)[every, :, every] = shifted_points(flat, step)
    return values(copies.reshape((-1,) + point.shape)).reshape(flat.size, 2)


def _stacked_errors(loss, points, values, step=1e-5):
    """The `grad_check` error of `loss` w.r.t. each of `points` with the
    others fixed, bit for bit: one backward gives every operand's gradient,
    and `values[i]` gives the loss at stacked copies of operand i
    (`_stacked_values`)."""
    probes = [Tensor(p.copy(), requires_grad=True) for p in points]
    backward(loss(*probes))
    return [difference_error(_stacked_values(v, p, step), probe.grad, step)
            for v, p, probe in zip(values, points, probes)]


def _summed_rows(rows):
    """The values of `rows(x).sum()` at copies [c, n, k] of a point, [c]: the
    row-wise `rows` runs once on all c * n rows, and each copy sums its
    rows as `.sum()` does."""
    def values(copies):
        c, n, k = copies.shape
        return rows(Tensor(copies.reshape(c * n, k))).data.reshape(c, n).sum(axis=1)
    return values


def _row_errors(rows, point):
    return _stacked_errors(lambda x: rows(x).sum(), (point,), (_summed_rows(rows),))


def _alignment_errors(method, src, tgt):
    return _stacked_errors(
        alignment.LOSSES[method], (src, tgt),
        (lambda s: alignment.loss_values(method, s, tgt),
         lambda t: alignment.loss_values(method, src, t)))


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
    # these wrap params.arrays, which central_difference_error moves in place
    frozen = mo.make_param_tensors(params, trainable=False)
    return float(np.max([central_difference_error(
        lambda: loss_value(frozen), params.arrays[name], tensors[name].grad, step)
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
        errors = [_alignment_errors(*case) for case in _alignment_cases(rng, points)]
    else:
        errors = [_row_errors(*case) for case in _row_cases(name, rng, points)]
    return float(np.max(errors)), LOSS_TOLERANCE
