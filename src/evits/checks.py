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
from .multiscale import default_aux_weights
from .tensor import Tensor, backward, central_difference_error, grad_check
from .trainer import LossWeights, combined_loss

LOSS_TOLERANCE = 1e-4
END_TO_END_TOLERANCE = 1e-3
DEFAULT_POINTS = 100  # random points per finite-difference suite

SUITES = ("ml", "ce", "mse", "kl", "alignment", "end2end")


def evidential_suite(kind, points=DEFAULT_POINTS, seed=0):
    """Gradients of one Bayesian-risk loss w.r.t. evidence."""
    kind_tag = {"ml": 1, "ce": 2, "mse": 3}[kind]
    rng = np.random.default_rng(np.random.SeedSequence([seed, kind_tag]))
    loss_fn = LOSSES[kind]
    worst = 0.0
    for _ in range(points):
        n, k = 3, int(rng.integers(2, 5))
        labels = LabelBatch.from_labels(rng.integers(0, k, n), k)
        evidence = Tensor(rng.uniform(0.05, 4.0, (n, k)))
        err = grad_check(
            lambda e: loss_fn(evidence_to_alpha(e), labels).sum(), evidence)
        worst = max(worst, err)
    return worst


def kl_suite(points=DEFAULT_POINTS, seed=0):
    """Gradients of the misleading-evidence KL at alpha~ > 1."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6B1]))
    worst = 0.0
    for _ in range(points):
        n, k = 3, int(rng.integers(2, 5))
        alpha_t = Tensor(rng.uniform(1.05, 4.0, (n, k)))
        err = grad_check(lambda a: kl_to_uniform(a).sum(), alpha_t)
        worst = max(worst, err)
    return worst


def alignment_suite(points=DEFAULT_POINTS, seed=0):
    """Gradients of all four alignment losses w.r.t. both feature batches."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA119]))
    losses = {
        "ddc": alignment.mmd_linear,
        "coral": alignment.coral,
        "homm": lambda a, b: alignment.homm(a, b, order=3),
        "mmda": alignment.mmda,
    }
    worst = 0.0
    per_loss = max(points // len(losses), 1)
    for loss_fn in losses.values():
        for _ in range(per_loss):
            n, width = 5, 3
            src = Tensor(rng.standard_normal((n, width)))
            # keep the means apart so mmd_linear stays off its zero
            tgt = Tensor(rng.standard_normal((n, width)) + 1.0)
            worst = max(worst, grad_check(lambda s: loss_fn(s, tgt), src))
            worst = max(worst, grad_check(lambda t: loss_fn(src, t), tgt))
    return worst


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
    weights = LossWeights(lambda1=1.0, lambda2=1.0, lambda3=1.0)
    schedule = AnnealSchedule(epoch=12)
    aux = default_aux_weights(config.num_scales)

    def loss_value(tensors):
        fwd_s = mo.forward(params, x_src, mode="train", param_tensors=tensors)
        fwd_t = mo.forward(params, x_tgt, mode="train", param_tensors=tensors)
        return combined_loss(fwd_s, fwd_t, labels, weights, schedule,
                             "ce", "ddc", aux)[0]

    tensors = mo.make_param_tensors(params)
    backward(loss_value(tensors))
    return max(central_difference_error(
        lambda: loss_value(mo.make_param_tensors(params, trainable=False)),
        params.arrays[name], tensors[name].grad, step)
        for name in params.trainable_names())


def run_suite(name, points=DEFAULT_POINTS, seed=0):
    """Returns (worst error, tolerance) for one named suite."""
    if name in LOSSES:
        return evidential_suite(name, points=points, seed=seed), LOSS_TOLERANCE
    if name == "kl":
        return kl_suite(points=points, seed=seed), LOSS_TOLERANCE
    if name == "alignment":
        return alignment_suite(points=points, seed=seed), LOSS_TOLERANCE
    if name == "end2end":
        return end_to_end_suite(seed=seed), END_TO_END_TOLERANCE
    raise ConfigError(f"unknown gradient suite {name!r}")
