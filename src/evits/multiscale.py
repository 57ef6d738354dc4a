"""Multi-scale series construction, feature mixing and the weighted
classification loss over final plus auxiliary heads.

A series [N, C, P] is reduced level by level with one of five stride-2
variants; level m has time extent floor(P / 2^m).  Only the conv-bearing
variants (L, LM) carry trainable parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tensor as tz
from .errors import ConfigError, ShapeError
from .tensor import Tensor, as_tensor

VARIANTS = ("L", "LM", "M", "A", "R")

DOWNSAMPLE_KERNEL = 3
DOWNSAMPLE_PADDING = 1


@dataclass
class AuxWeights:
    """Per-scale weights on the auxiliary classification terms."""

    values: list = field(default_factory=lambda: [0.5, 0.25, 0.25])

    def __post_init__(self):
        if any(w < 0 for w in self.values):
            raise ConfigError("auxiliary weights must be non-negative")


def default_aux_weights(num_scales):
    """One weight per scale: 0.5 for the base scale, 0.25 per reduced level."""
    if num_scales < 1:
        return AuxWeights(values=[])
    return AuxWeights(values=[0.5] + [0.25] * num_scales)


def conv_reduction_levels(num_scales, variant):
    """Which reductions (1-based) the variant realizes with a learned conv."""
    if variant == "L":
        return list(range(1, num_scales + 1))
    if variant == "LM":
        # pooling first, conv second, alternating for deeper stacks
        return [level for level in range(1, num_scales + 1) if level % 2 == 0]
    return []


def build_scales(x, num_scales, variant, rng=None, down_convs=None, train=True):
    """Produce the list of scales x_0 .. x_M via repeated stride-2
    reduction; x_0 is the untouched input.

    variant L: stride-2 conv (kernel 3, padding 1, channel-preserving);
    LM: max-pool then conv on alternating reductions; M / A / R: window-2
    stride-2 max / average / random pooling.  Random pooling needs `rng`
    during training and falls back to max pooling in eval for determinism.
    Conv outputs are cropped to floor(T/2) at odd lengths so every level
    obeys the floor(P / 2^m) extent.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError("build_scales expects [N, C, P]")
    length = x.shape[2]
    if num_scales < 0:
        raise ConfigError("num_scales must be >= 0")
    if length < 2 ** num_scales:
        raise ConfigError(
            f"length {length} cannot support {num_scales} halvings"
        )
    if num_scales == 0:
        return [x]
    if variant not in VARIANTS:
        raise ConfigError(f"unknown down-sampling variant {variant!r}")
    if variant == "R" and train and rng is None:
        raise ConfigError("variant R needs a seeded generator during training")

    conv_levels = conv_reduction_levels(num_scales, variant)
    convs = list(down_convs) if down_convs is not None else []
    if len(convs) != len(conv_levels):
        raise ConfigError(
            f"variant {variant} needs {len(conv_levels)} down-sampling kernels, "
            f"got {len(convs)}"
        )

    scales = [x]
    current = x
    conv_index = 0
    for level in range(1, num_scales + 1):
        target_len = current.shape[2] // 2
        if level in conv_levels:
            current = tz.conv1d(current, convs[conv_index], stride=2,
                                padding=DOWNSAMPLE_PADDING)
            conv_index += 1
            if current.shape[2] > target_len:
                current = tz.crop1d(current, target_len)
        elif variant in ("M", "LM"):
            current = tz.pool1d(current, "max")
        elif variant == "A":
            current = tz.pool1d(current, "avg")
        else:  # R
            kind = "random" if train else "max"
            current = tz.pool1d(current, kind, rng=rng)
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


def softmax_cross_entropy(logits, labels):
    """Mean softmax cross-entropy over the batch."""
    logits = as_tensor(logits)
    if logits.shape != labels.one_hot.shape:
        raise ShapeError(
            f"logits {logits.shape} do not match labels {labels.one_hot.shape}"
        )
    log_probs = tz.log_softmax(logits, axis=1)
    per_sample = -(Tensor(labels.one_hot) * log_probs).sum(axis=1)
    return per_sample.mean()


def aux_classification_loss(final_logits, aux_logits, labels, weights):
    """Final-head cross-entropy plus the weighted sum of auxiliary heads."""
    values = weights.values if isinstance(weights, AuxWeights) else list(weights)
    if len(aux_logits) != len(values):
        raise ConfigError(
            f"{len(aux_logits)} auxiliary heads but {len(values)} weights"
        )
    total = softmax_cross_entropy(final_logits, labels)
    for weight, logits in zip(values, aux_logits):
        if weight != 0.0:
            total = total + weight * softmax_cross_entropy(logits, labels)
    return total
