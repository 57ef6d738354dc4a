"""The end-to-end network: per-scale 1-D CNN backbones, the feature
mixer, softmax plus auxiliary heads, and an evidential head.

Each scale owns a backbone of conv -> batch-norm -> relu -> max-pool(2)
blocks followed by global average pooling over time.  The mixed
(concatenated) feature feeds a softmax classifier head and an evidence
head (softplus output); auxiliary softmax heads read the per-scale
features when the multi-scale architecture is enabled.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import multiscale as ms
from . import tensor as tz
from .errors import ConfigError, FormatError, ShapeError
from .evidential import evidence_to_alpha, predict_mean, uncertainty
from .tensor import Tensor

MODEL_MAGIC = b"EVTM"
MODEL_VERSION = 1

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch


@dataclass(frozen=True)
class ModelConfig:
    channels: int
    length: int
    num_classes: int
    num_scales: int = 2
    variant: str | None = "M"
    conv_widths: tuple = (64, 64, 64)
    kernel_sizes: tuple = (8, 5, 3)
    seed: int = 0

    def __post_init__(self):
        if self.channels < 1 or self.length < 1:
            raise ConfigError("channels and length must be positive")
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if self.num_scales < 0:
            raise ConfigError("num_scales must be >= 0")
        if self.length < 2 ** self.num_scales:
            raise ConfigError(
                f"length {self.length} cannot support {self.num_scales} halvings"
            )
        if self.num_scales >= 1 and self.variant not in ms.VARIANTS:
            raise ConfigError(
                f"multi-scale models need a variant from {ms.VARIANTS}"
            )
        if len(self.conv_widths) != len(self.kernel_sizes):
            raise ConfigError("conv_widths and kernel_sizes must pair up")
        if any(w < 1 for w in self.conv_widths) or any(k < 1 for k in self.kernel_sizes):
            raise ConfigError("widths and kernels must be positive")
        for scale in range(self.num_scales + 1):
            t = self.length // (2 ** scale)
            for k in self.kernel_sizes:
                t = t + 2 * (k // 2) - k + 1  # conv, stride 1, pad k//2
                if t < 2:
                    raise ConfigError(
                        f"scale {scale} collapses below pooling width; "
                        "shorten kernels or reduce num_scales"
                    )
                t = (t - 2) // 2 + 1  # max-pool window 2 stride 2

    @property
    def feature_width(self):
        # per-scale feature width after global average pooling
        return self.conv_widths[-1]

    @property
    def mixed_width(self):
        return self.feature_width * (self.num_scales + 1)

    def to_dict(self):
        return {
            "channels": self.channels,
            "length": self.length,
            "num_classes": self.num_classes,
            "num_scales": self.num_scales,
            "variant": self.variant,
            "conv_widths": list(self.conv_widths),
            "kernel_sizes": list(self.kernel_sizes),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        data["conv_widths"] = tuple(data["conv_widths"])
        data["kernel_sizes"] = tuple(data["kernel_sizes"])
        return cls(**data)


@dataclass
class ModelParams:
    """Named parameter arrays plus the config that shaped them.

    `train_meta` echoes the training setup for reports (method, loss
    kind, weights); it rides along in the model file.
    """

    config: ModelConfig
    arrays: dict
    train_meta: dict = field(default_factory=dict)

    def trainable_names(self):
        return [n for n in self.arrays
                if not n.endswith(("running_mean", "running_var"))]


@dataclass
class ForwardOutput:
    per_scale_features: list
    mixed: Tensor
    aux_logits: list
    final_logits: Tensor
    evidence: Tensor
    param_tensors: dict | None = None


def _uniform(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init(config):
    """Deterministically initialize parameters for a config (seeded)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    arrays = {}

    conv_levels = ms.conv_reduction_levels(config.num_scales, config.variant) \
        if config.num_scales >= 1 else []
    for index, _level in enumerate(conv_levels):
        fan_in = config.channels * ms.DOWNSAMPLE_KERNEL
        arrays[f"down{index}.w"] = _uniform(
            rng, fan_in, (config.channels, config.channels, ms.DOWNSAMPLE_KERNEL))

    for scale in range(config.num_scales + 1):
        in_ch = config.channels
        for block, (width, kernel) in enumerate(
                zip(config.conv_widths, config.kernel_sizes)):
            prefix = f"scale{scale}.block{block}"
            arrays[f"{prefix}.conv_w"] = _uniform(
                rng, in_ch * kernel, (width, in_ch, kernel))
            arrays[f"{prefix}.bn_gamma"] = np.ones(width)
            arrays[f"{prefix}.bn_beta"] = np.zeros(width)
            arrays[f"{prefix}.bn_running_mean"] = np.zeros(width)
            arrays[f"{prefix}.bn_running_var"] = np.ones(width)
            in_ch = width

    mixed = config.mixed_width
    arrays["final.w"] = _uniform(rng, mixed, (mixed, config.num_classes))
    arrays["final.b"] = _uniform(rng, mixed, (config.num_classes,))
    arrays["evidence.w"] = _uniform(rng, mixed, (mixed, config.num_classes))
    arrays["evidence.b"] = _uniform(rng, mixed, (config.num_classes,))
    if config.num_scales >= 1:
        f = config.feature_width
        for scale in range(config.num_scales + 1):
            arrays[f"aux{scale}.w"] = _uniform(rng, f, (f, config.num_classes))
            arrays[f"aux{scale}.b"] = _uniform(rng, f, (config.num_classes,))
    return ModelParams(config=config, arrays=arrays)


def count_parameters(params):
    return sum(params.arrays[name].size for name in params.trainable_names())


def make_param_tensors(params, trainable=True):
    """Wrap the arrays as tape tensors; shared by source/target forwards."""
    tensors = {}
    trainable_set = set(params.trainable_names())
    for name, arr in params.arrays.items():
        tensors[name] = Tensor(arr, requires_grad=trainable and name in trainable_set)
    return tensors


def _batchnorm(h, gamma, beta, running_mean, running_var, train, update_stats):
    """Channel batch-norm on [N, C, T]; running stats mutate only when asked."""
    g = gamma.reshape((1, -1, 1))
    b = beta.reshape((1, -1, 1))
    if train:
        mu = h.mean(axis=(0, 2), keepdims=True)
        var = ((h - mu) ** 2).mean(axis=(0, 2), keepdims=True)
        if update_stats:
            running_mean *= _BN_MOMENTUM
            running_mean += (1.0 - _BN_MOMENTUM) * mu.data.reshape(-1)
            running_var *= _BN_MOMENTUM
            running_var += (1.0 - _BN_MOMENTUM) * var.data.reshape(-1)
    else:
        mu = Tensor(running_mean.reshape(1, -1, 1))
        var = Tensor(running_var.reshape(1, -1, 1))
    normalized = (h - mu) / ((var + _BN_EPS) ** 0.5)
    return g * normalized + b


def forward(params, x, mode="train", rng=None, param_tensors=None,
            update_stats=None):
    """Run the network; `mode` is "train" (batch statistics, random pooling
    active) or "eval" (running statistics, deterministic pooling)."""
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode {mode!r}")
    config = params.config
    x = tz.as_tensor(x)
    if x.ndim != 3 or x.shape[1] != config.channels or x.shape[2] != config.length:
        raise ShapeError(
            f"input {x.shape} does not match [N, {config.channels}, {config.length}]"
        )
    train = mode == "train"
    if update_stats is None:
        update_stats = train
    pt = param_tensors if param_tensors is not None else \
        make_param_tensors(params, trainable=train)

    conv_levels = ms.conv_reduction_levels(config.num_scales, config.variant) \
        if config.num_scales >= 1 else []
    down_convs = [pt[f"down{i}.w"] for i in range(len(conv_levels))]
    scale_set = ms.build_scales(
        x, config.num_scales, config.variant if config.num_scales else None,
        rng=rng, down_convs=down_convs if config.num_scales else None,
        train=train)

    features = []
    aux_logits = []
    for scale, series in enumerate(scale_set.scales):
        h = series
        for block, kernel in enumerate(config.kernel_sizes):
            prefix = f"scale{scale}.block{block}"
            h = tz.conv1d(h, pt[f"{prefix}.conv_w"], stride=1, padding=kernel // 2)
            h = _batchnorm(
                h, pt[f"{prefix}.bn_gamma"], pt[f"{prefix}.bn_beta"],
                params.arrays[f"{prefix}.bn_running_mean"],
                params.arrays[f"{prefix}.bn_running_var"],
                train, update_stats)
            h = h.relu()
            h = tz.pool1d(h, "max", 2, 2)
        feat = h.mean(axis=2)  # global average pool -> [N, F]
        features.append(feat)
        if config.num_scales >= 1:
            aux_logits.append(
                tz.matmul(feat, pt[f"aux{scale}.w"]) + pt[f"aux{scale}.b"])

    mixed = ms.mix_features(features)
    final_logits = tz.matmul(mixed, pt["final.w"]) + pt["final.b"]
    evidence = tz.softplus(tz.matmul(mixed, pt["evidence.w"]) + pt["evidence.b"])
    return ForwardOutput(
        per_scale_features=features,
        mixed=mixed,
        aux_logits=aux_logits,
        final_logits=final_logits,
        evidence=evidence,
        param_tensors=pt,
    )


def predict(params, values, head="auto"):
    """Eval-mode class predictions, confidences/probabilities and uncertainty.

    head: "evidential" (Dirichlet mean), "softmax" (final softmax head) or
    "auto" (whatever the stored training meta says the model predicts with).
    """
    if head == "auto":
        head = params.train_meta.get("primary_head", "evidential")
    if head not in ("evidential", "softmax"):
        raise ConfigError(f"unknown prediction head {head!r}")
    out = forward(params, values, mode="eval")
    dirichlet = evidence_to_alpha(out.evidence)
    u = uncertainty(dirichlet).data
    if head == "evidential":
        probs = predict_mean(dirichlet).data
    else:
        probs = tz.softmax(out.final_logits, axis=1).data
    return probs.argmax(axis=1), probs, u


# -- serialization ---------------------------------------------------------------


def _pack_u32(value):
    return int(value).to_bytes(4, "little")


def save(params, path):
    """Write the EVTM container: magic, version, config JSON, float64
    little-endian weights, trailing CRC32."""
    header = {"config": params.config.to_dict(), "train_meta": params.train_meta}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [MODEL_MAGIC, _pack_u32(MODEL_VERSION), _pack_u32(len(blob)), blob,
              _pack_u32(len(params.arrays))]
    for name, arr in params.arrays.items():
        encoded = name.encode("utf-8")
        chunks.append(_pack_u32(len(encoded)))
        chunks.append(encoded)
        chunks.append(_pack_u32(arr.ndim))
        for extent in arr.shape:
            chunks.append(_pack_u32(extent))
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    payload = b"".join(chunks)
    checksum = zlib.crc32(payload)
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(_pack_u32(checksum))


class _Reader:
    def __init__(self, data):
        self.data = data
        self.offset = 0

    def take(self, count, what):
        if self.offset + count > len(self.data):
            raise FormatError(f"truncated model file while reading {what}",
                              offset=self.offset)
        chunk = self.data[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def u32(self, what):
        return int.from_bytes(self.take(4, what), "little")


def load(path):
    """Read an EVTM container back; bit-identical round trip."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise FormatError("file too short for a checksum", offset=len(data))
    body, stored = data[:-4], int.from_bytes(data[-4:], "little")
    if zlib.crc32(body) != stored:
        raise FormatError("checksum mismatch", offset=len(data) - 4)
    r = _Reader(body)
    if r.take(4, "magic") != MODEL_MAGIC:
        raise FormatError("bad magic; not a model file", offset=0)
    version = r.u32("version")
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}", offset=4)
    header = json.loads(r.take(r.u32("header length"), "header").decode("utf-8"))
    config = ModelConfig.from_dict(header["config"])
    arrays = {}
    for _ in range(r.u32("array count")):
        name = r.take(r.u32("name length"), "name").decode("utf-8")
        ndim = r.u32("rank")
        shape = tuple(r.u32("extent") for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        raw = r.take(8 * count, f"data for {name}")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if r.offset != len(body):
        raise FormatError("trailing bytes after declared arrays", offset=r.offset)
    return ModelParams(config=config, arrays=arrays,
                       train_meta=header.get("train_meta", {}))
