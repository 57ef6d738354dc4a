"""Multi-scale series construction, feature mixing and the weighted
classification loss over final plus auxiliary heads.

A series [N, C, P] is reduced level by level with one of five stride-2
variants; each reduction maps T steps to floor(T/2), so level m has time
extent floor(P / 2^m).  Only the conv-bearing variants (L, LM) carry
trainable parameters.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tz
from .errors import ConfigError, DomainError, ShapeError
from .tensor import _accumulate, _node, as_tensor

# each variant's reductions repeat its cycle, level 1 first: "conv" is a
# learned stride-2 kernel, any other entry a `tensor.pool1d` kind
REDUCTION_CYCLES = {"L": ("conv",), "LM": ("max", "conv"), "M": ("max",),
                    "A": ("avg",), "R": ("random",)}
VARIANTS = tuple(REDUCTION_CYCLES)

DOWNSAMPLE_KERNEL = 3


def reduction_plan(num_scales, variant, train=True):
    """The operation of each of the `num_scales` reductions, level 1 first.

    Random pooling becomes max pooling in eval, for determinism; the
    number of "conv" entries is the number of down-sampling kernels."""
    if num_scales == 0:
        return []
    cycle = REDUCTION_CYCLES[variant]
    plan = [cycle[level % len(cycle)] for level in range(num_scales)]
    return plan if train else ["max" if op == "random" else op for op in plan]


def build_scales(x, num_scales, variant, rng=None, down_convs=None, train=True):
    """Produce the list of scales x_0 .. x_M via repeated stride-2
    reduction; x_0 is the untouched input.

    Each level runs its `reduction_plan` entry.  variant L: stride-2 conv
    (kernel 3, channel-preserving) over the series with one zero step
    prepended; LM: max-pool then conv on alternating reductions; M / A / R:
    window-2 stride-2 max / average / random pooling.  Random pooling needs
    `rng` during training.  Every reduction maps T steps to floor(T/2), so
    level m has the floor(P / 2^m) extent.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError("build_scales expects [N, C, P]")
    length = x.shape[2]
    if num_scales < 0:
        raise ConfigError("num_scales must be >= 0")
    if length >> num_scales == 0:
        raise ConfigError(
            f"length {length} cannot support {num_scales} halvings"
        )
    if num_scales == 0:
        return [x]
    if variant not in VARIANTS:
        raise ConfigError(f"unknown down-sampling variant {variant!r}")
    if variant == "R" and train and rng is None:
        raise ConfigError("variant R needs a seeded generator during training")

    plan = reduction_plan(num_scales, variant, train)
    convs = list(down_convs) if down_convs is not None else []
    needed = plan.count("conv")
    if len(convs) != needed:
        raise ConfigError(
            f"variant {variant} needs {needed} down-sampling kernels, "
            f"got {len(convs)}"
        )

    scales = [x]
    current = x
    kernels = iter(convs)
    for op in plan:
        if op == "conv":  # one zero step on the left: floor(T/2) outputs
            padded = tz.concat([np.zeros(current.shape[:2] + (1,)), current], axis=2)
            current = tz.conv1d(padded, next(kernels), stride=2)
        else:
            current = tz.pool1d(current, op, rng=rng)
        scales.append(current)
    return scales


def mix_features(per_scale_features):
    """Concatenate per-scale feature rows in scale order 0 .. M."""
    feats = [as_tensor(f) for f in per_scale_features]
    if not feats:
        raise ShapeError("mix_features needs at least one feature batch")
    rows = feats[0].shape[0]
    for f in feats:
        if f.ndim != 2 or f.shape[0] != rows:
            raise ShapeError("per-scale features must share the batch dimension")
    if len(feats) == 1:
        return feats[0]
    return tz.concat(feats, axis=1)


def softmax_terms(logits):
    """(shift, exp(shift), row totals of exp(shift)) of [N, K] logits, with
    shift the logits less their row max; the softmax is exp_shift / total,
    the log-softmax shift - log(total).  Non-finite logits raise DomainError.
    """
    if not np.all(np.isfinite(logits)):
        raise DomainError("logits must be finite")
    shift = logits - logits.max(axis=1, keepdims=True)
    exp_shift = np.exp(shift)
    return shift, exp_shift, exp_shift.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits, labels):
    """Mean softmax cross-entropy over the batch.

    One tape node; with one-hot label rows y, d/d logits = (g / n)
    (softmax - y).  Non-finite logits raise DomainError.
    """
    logits = as_tensor(logits)
    y = labels.one_hot
    if logits.shape != y.shape:
        raise ShapeError(f"logits {logits.shape} do not match labels {y.shape}")
    shift, exp_shift, total = softmax_terms(logits.data)
    per_sample = -(y * (shift - np.log(total))).sum(axis=1)
    n = y.shape[0]

    def bwd(g):
        probs = exp_shift / total
        _accumulate(logits, (probs - y) * (g / n))

    return _node(per_sample.sum() * (1.0 / n), (logits,), bwd, "softmax_ce")


def aux_classification_loss(final_logits, aux_logits, labels):
    """Final-head cross-entropy plus the auxiliary heads', weighted 0.5 for
    the base scale and 0.25 for each reduced scale."""
    total = softmax_cross_entropy(final_logits, labels)
    for scale, logits in enumerate(aux_logits):
        total = total + (0.25 if scale else 0.5) * softmax_cross_entropy(logits, labels)
    return total
