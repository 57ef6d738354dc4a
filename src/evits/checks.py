"""Finite-difference verification suites for the analytic gradients.

Each suite returns its worst relative error, measured per coordinate as
|analytic - central difference| / max(1, |analytic|) with step 1e-5.
Tolerances: 1e-4 for the loss suites, 1e-3 for the end-to-end model.
A NaN error anywhere makes the worst error NaN, which fails the check.

Every suite is one entry of `_TABLE`.  Its cases are (loss, points,
values) triples: one backward of `loss(*points)` gives every operand's
gradient, and `values[i]` gives the loss at a stack of copies of operand
i, the others fixed, so a point's central differences take one call per
operand.  The evidential suites (`ml`, `ce`, `mse`, `kl`) have row-wise
losses, so the 2 * n * k perturbed copies are stacked along the row axis
and the per-row loss runs once; each copy sums its rows as `.sum()`
does.  The alignment losses couple a batch's rows through its means and
covariances, so the copies of one feature batch go on a new leading axis
of `alignment.loss_values`, with the other batch fixed.  `end2end`'s
copies are different models, and train-mode batch-norm couples the rows
of every batch they see, so its values run one model per copy.  Either
way each copy's value is the same float operations as a solo call, so
every central difference is `tensor.grad_check`'s bit for bit.
"""

from __future__ import annotations

import numbers
from functools import partial
from typing import Callable, NamedTuple

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
from .tensor import Tensor, backward, difference_error, shifted_points
from .trainer import LossWeights, TrainConfig, combined_loss

LOSS_TOLERANCE = 1e-4
END_TO_END_TOLERANCE = 1e-3
DEFAULT_POINTS = 100  # random points per finite-difference suite


def _risk_rows(loss_fn, labels, num_classes, evidence):
    """Per-row Bayesian risk of evidence rows that repeat `labels`' rows."""
    tiled = np.tile(labels, len(evidence.data) // len(labels))
    return loss_fn(evidence_to_alpha(evidence), LabelBatch.from_labels(tiled, num_classes))


def _summed_rows(rows):
    """The values of `rows(x).sum()` at copies [c, n, k] of a point, [c]: the
    row-wise `rows` runs once on all c * n rows, and each copy sums its
    rows as `.sum()` does."""
    def values(copies):
        c, n, k = copies.shape
        return rows(Tensor(copies.reshape(c * n, k))).data.reshape(c, n).sum(axis=1)
    return values


def _row_cases(name, rng, points, seed):
    """`points` draws of a 3-row point: each Bayesian-risk loss w.r.t.
    evidence, or the misleading-evidence KL at alpha~ > 1."""
    for _ in range(points):
        n, k = 3, int(rng.integers(2, 5))
        if name == "kl":
            rows, low = kl_to_uniform, 1.05
        else:
            rows, low = partial(_risk_rows, LOSSES[name], rng.integers(0, k, n), k), 0.05
        point = rng.uniform(low, 4.0, (n, k))
        yield lambda x, rows=rows: rows(x).sum(), (point,), (_summed_rows(rows),)


def _alignment_cases(rng, points, seed):
    """All four alignment losses, each checked w.r.t. both feature batches."""
    for method in alignment.LOSSES:
        for _ in range(max(points // len(alignment.LOSSES), 1)):
            src = rng.standard_normal((5, 3))
            # keep the means apart so mmd_linear stays off its zero
            tgt = rng.standard_normal((5, 3)) + 1.0
            yield alignment.LOSSES[method], (src, tgt), (
                partial(alignment.loss_values, method, tgt=tgt),
                partial(alignment.loss_values, method, src))


def _end_to_end_cases(rng, points, seed):
    """One case, whatever `points`: the full combined loss of a tiny model
    w.r.t. every trainable parameter."""
    config = mo.ModelConfig(channels=1, length=16, num_classes=2, num_scales=0,
                            variant=None, conv_widths=(4, 4, 4),
                            kernel_sizes=(8, 5, 3), seed=seed)
    params = mo.init(config)
    x_src = rng.standard_normal((4, 1, 16))
    x_tgt = rng.standard_normal((4, 1, 16)) + 0.5
    labels = LabelBatch.from_labels(rng.integers(0, 2, 4), 2)
    recipe = TrainConfig(evidential="ce", method="ddc", weights=LossWeights(lambda2=1.0))
    schedule = AnnealSchedule(epoch=12)
    names = params.trainable_names()
    frozen = mo.make_param_tensors(params, trainable=False)

    def loss_at(tensors):
        fwd_s = mo.forward(params, x_src, mode="train", param_tensors=tensors)
        fwd_t = mo.forward(params, x_tgt, mode="train", param_tensors=tensors)
        return combined_loss(fwd_s, fwd_t, labels, recipe, schedule)[0]

    def moved(name):  # one model per copy of parameter `name`
        return lambda copies: np.array(
            [loss_at({**frozen, name: Tensor(copy)}).data for copy in copies])

    yield (lambda *arrays: loss_at({**frozen, **dict(zip(names, arrays))}),
           [params.arrays[name] for name in names], [moved(name) for name in names])


class _Suite(NamedTuple):
    cases: Callable  # (rng, points, seed) -> (loss, points, values) triples
    tag: int  # the second entry of the suite's SeedSequence
    tolerance: float


_TABLE = {
    "ml": _Suite(partial(_row_cases, "ml"), 1, LOSS_TOLERANCE),
    "ce": _Suite(partial(_row_cases, "ce"), 2, LOSS_TOLERANCE),
    "mse": _Suite(partial(_row_cases, "mse"), 3, LOSS_TOLERANCE),
    "kl": _Suite(partial(_row_cases, "kl"), 0x6B1, LOSS_TOLERANCE),
    "alignment": _Suite(_alignment_cases, 0xA119, LOSS_TOLERANCE),
    "end2end": _Suite(_end_to_end_cases, 0xE2E, END_TO_END_TOLERANCE),
}

SUITES = tuple(_TABLE)


def _cases(name, points, seed):
    """The (loss, points, values) cases of suite `name`, drawn lazily."""
    suite = _TABLE[name]
    rng = np.random.default_rng(np.random.SeedSequence([seed, suite.tag]))
    return suite.cases(rng, points, seed)


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


def run_suite(name, points=DEFAULT_POINTS, seed=0):
    """Returns (worst error, tolerance) for one named suite; a NaN error
    anywhere makes the worst error NaN."""
    if isinstance(points, bool) or not isinstance(points, numbers.Integral) or points < 1:
        raise ConfigError(f"a gradient suite needs an integer points >= 1, not {points!r}")
    check_seed(seed, "gradient suite")
    if name not in _TABLE:
        raise ConfigError(f"unknown gradient suite {name!r}")
    errors = [e for case in _cases(name, points, seed) for e in _stacked_errors(*case)]
    return float(np.max(errors)), _TABLE[name].tolerance
