"""Finite-difference verification suites for the analytic gradients.

Each suite returns its worst relative error, measured per coordinate as
|analytic - central difference| / max(1, |analytic|) with step 1e-5.
Tolerances: 1e-4 for the loss suites, 1e-3 for the end-to-end model.
"""

from __future__ import annotations

import numpy as np

from . import alignment, model as mo
from .errors import ConfigError
from .evidential import (
    LOSSES,
    AnnealSchedule,
    LabelBatch,
    evidence_to_alpha,
    kl_to_uniform,
)
from .tensor import Tensor, backward, central_difference_error, grad_check
from .trainer import LossWeights, TrainConfig, combined_loss

LOSS_TOLERANCE = 1e-4
END_TO_END_TOLERANCE = 1e-3
DEFAULT_POINTS = 100  # random points per finite-difference suite

SUITES = ("ml", "ce", "mse", "kl", "alignment", "end2end")


# suite name -> the second entry of its SeedSequence
_SEED_TAGS = {"ml": 1, "ce": 2, "mse": 3, "kl": 0x6B1, "alignment": 0xA119}


def _loss_cases(name, rng, points):
    """The (function, point) pairs of one loss suite, drawn lazily from `rng`:
    each Bayesian-risk loss w.r.t. evidence, the misleading-evidence KL at
    alpha~ > 1, or all four alignment losses w.r.t. both feature batches."""
    if name in LOSSES:
        loss_fn = LOSSES[name]
        for _ in range(points):
            n, k = 3, int(rng.integers(2, 5))
            labels = LabelBatch.from_labels(rng.integers(0, k, n), k)
            yield (lambda e: loss_fn(evidence_to_alpha(e), labels).sum(),
                   Tensor(rng.uniform(0.05, 4.0, (n, k))))
    elif name == "kl":
        for _ in range(points):
            n, k = 3, int(rng.integers(2, 5))
            yield lambda a: kl_to_uniform(a).sum(), Tensor(rng.uniform(1.05, 4.0, (n, k)))
    else:
        for loss_fn in alignment.LOSSES.values():
            for _ in range(max(points // len(alignment.LOSSES), 1)):
                src = Tensor(rng.standard_normal((5, 3)))
                # keep the means apart so mmd_linear stays off its zero
                tgt = Tensor(rng.standard_normal((5, 3)) + 1.0)
                yield lambda s: loss_fn(s, tgt), src
                yield lambda t: loss_fn(src, t), tgt


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
    return max(central_difference_error(
        lambda: loss_value(mo.make_param_tensors(params, trainable=False)),
        params.arrays[name], tensors[name].grad, step)
        for name in params.trainable_names())


def run_suite(name, points=DEFAULT_POINTS, seed=0):
    """Returns (worst error, tolerance) for one named suite."""
    if points < 1:
        raise ConfigError("a gradient suite needs points >= 1")
    if name == "end2end":
        return end_to_end_suite(seed=seed), END_TO_END_TOLERANCE
    if name not in _SEED_TAGS:
        raise ConfigError(f"unknown gradient suite {name!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SEED_TAGS[name]]))
    worst = 0.0
    for fn, point in _loss_cases(name, rng, points):
        worst = max(worst, grad_check(fn, point))
    return worst, LOSS_TOLERANCE
