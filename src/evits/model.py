"""The end-to-end network: per-scale 1-D CNN backbones, the feature
mixer, softmax plus auxiliary heads, and an evidential head.

Each scale owns a backbone of conv -> batch-norm -> max-pool(2) -> relu
blocks followed by global average pooling over time.  Pooling before relu
is exact: relu is monotone, so relu(max(a, b)) = max(relu(a), relu(b)),
and both orders send a pair's gradient to the same slot (or none, when
both are negative); relu then touches half the elements.  In train mode
the block's tail is one tape node, `tensor.batchnorm_pool_relu`, which
makes the separate nodes' float operations in their order and so matches
them bit for bit.  In eval mode batch-norm is the per-channel affine map s * (h - mean) + beta with
s = gamma / sqrt(running_var + eps), and conv1d is linear in each output
channel's kernel row, so the scale folds into the conv: kernel row c
scaled by s[c] (exact in real arithmetic, for any sign of gamma; only the
rounding differs).  The raw conv output is then max-pooled, and only the
half-size result gets the bias beta - mean * s and relu, in place.
Pooling before the bias is exact in floating point too: fl(a + b) never
decreases as a grows, so max(fl(l + b), fl(r + b)) = fl(max(l, r) + b).
The eval path builds no masks and no tape nodes, and runs the backbones
on `_EVAL_ROWS` rows at a time, so its memory does not grow with the rows;
each row's conv product and time mean are the same float operations for
any row count, so this is bit-identical to one pass.  The mixed
(concatenated) feature feeds a softmax classifier head and an evidence
head (softplus output); auxiliary softmax heads read the per-scale
features when the multi-scale architecture is enabled.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import multiscale as ms
from . import tensor as tz
from .data import FrameReader, pack_u32, write_framed
from .errors import ConfigError, DomainError, FormatError, ShapeError
from .evidential import evidence_to_alpha, predict_mean, uncertainty
from .tensor import Tensor

MODEL_MAGIC = b"EVTM"
MODEL_VERSION = 1

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch
_EVAL_ROWS = 64  # rows per chunk of an eval forward


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
        if self.length >> self.num_scales == 0:
            raise ConfigError(
                f"length {self.length} cannot support {self.num_scales} halvings"
            )
        if self.num_scales >= 1 and self.variant not in ms.VARIANTS:
            raise ConfigError(
                f"multi-scale models need a variant from {ms.VARIANTS}"
            )
        if not self.conv_widths or len(self.conv_widths) != len(self.kernel_sizes):
            raise ConfigError("conv_widths and kernel_sizes must pair up, one block or more")
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
        return asdict(self)

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


def _uniform(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def layout(config):
    """Name -> shape of every parameter array, in init and file order."""
    c, levels = config.channels, ms.conv_reduction_levels(config.num_scales, config.variant)
    shapes = {f"down{i}.w": (c, c, ms.DOWNSAMPLE_KERNEL) for i in range(len(levels))}
    for scale in range(config.num_scales + 1):
        in_ch = c
        for block, (width, kernel) in enumerate(zip(config.conv_widths, config.kernel_sizes)):
            prefix = f"scale{scale}.block{block}"
            shapes[f"{prefix}.conv_w"] = (width, in_ch, kernel)
            for stat in ("gamma", "beta", "running_mean", "running_var"):
                shapes[f"{prefix}.bn_{stat}"] = (width,)
            in_ch = width
    aux = range(config.num_scales + 1) if config.num_scales >= 1 else ()
    heads = {"final": config.mixed_width, "evidence": config.mixed_width,
             **{f"aux{s}": config.feature_width for s in aux}}
    for head, width in heads.items():
        shapes[f"{head}.w"] = (width, config.num_classes)
        shapes[f"{head}.b"] = (config.num_classes,)
    return shapes


def init(config):
    """Deterministically initialize parameters for a config (seeded)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    shapes, arrays = layout(config), {}
    for name, shape in shapes.items():
        if ".bn_" in name:  # gamma and running_var start at 1, beta and running_mean at 0
            arrays[name] = np.full(shape, float(name.endswith(("gamma", "running_var"))))
        else:  # conv [out, in, k], dense [in, out]; a bias takes its weight's fan-in
            w = shapes[name[:-1] + "w"]
            arrays[name] = _uniform(rng, w[1] * w[2] if len(w) == 3 else w[0], shape)
    return ModelParams(config=config, arrays=arrays)


def make_param_tensors(params, trainable=True):
    """Wrap the arrays as tape tensors; shared by source/target forwards."""
    tensors = {}
    trainable_set = set(params.trainable_names())
    for name, arr in params.arrays.items():
        tensors[name] = Tensor(arr, requires_grad=trainable and name in trainable_set)
    return tensors


def _scale_features(params, pt, x, train, rng):
    """The per-scale features [N, F] of `x`: each down-sampled scale through
    its conv blocks, then global average pooling over time."""
    config = params.config
    conv_levels = ms.conv_reduction_levels(config.num_scales, config.variant)
    down_convs = [pt[f"down{i}.w"] for i in range(len(conv_levels))]
    scales = ms.build_scales(x, config.num_scales, config.variant, rng=rng,
                             down_convs=down_convs, train=train)
    features = []
    for scale, series in enumerate(scales):
        h = series
        for block, kernel in enumerate(config.kernel_sizes):
            prefix = f"scale{scale}.block{block}"
            w, gamma, beta = (pt[f"{prefix}.{n}"] for n in ("conv_w", "bn_gamma", "bn_beta"))
            running_mean = params.arrays[f"{prefix}.bn_running_mean"]
            running_var = params.arrays[f"{prefix}.bn_running_var"]
            if train:  # batch statistics, folded into the running ones in place
                h, mean, var = tz.batchnorm_pool_relu(
                    tz.conv1d(h, w, stride=1, padding=kernel // 2), gamma, beta, _BN_EPS)
                running_mean[:] = _BN_MOMENTUM * running_mean + (1.0 - _BN_MOMENTUM) * mean
                running_var[:] = _BN_MOMENTUM * running_var + (1.0 - _BN_MOMENTUM) * var
            else:  # scale folded into the conv; pool, then bias and relu in place
                s = gamma.data / np.sqrt(running_var + _BN_EPS)
                h = tz.conv1d(h, w.data * s[:, None, None], stride=1,
                              padding=kernel // 2).data
                t = h.shape[2] // 2
                h = np.maximum(h[:, :, 0:2 * t:2], h[:, :, 1:2 * t:2])
                h += (beta.data - running_mean * s)[:, None]
                np.maximum(h, 0.0, out=h)
        features.append(tz.tmean(h, axis=2))  # global average pool -> [N, F]
    return features


def forward(params, x, mode="train", rng=None, param_tensors=None):
    """Run the network; `mode` is "train" (batch statistics, folded into the
    running statistics; random pooling active) or "eval" (running
    statistics, deterministic pooling)."""
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode {mode!r}")
    config = params.config
    x = tz.as_tensor(x)
    if x.ndim != 3 or x.shape[1] != config.channels or x.shape[2] != config.length:
        raise ShapeError(
            f"input {x.shape} does not match [N, {config.channels}, {config.length}]"
        )
    train = mode == "train"
    pt = param_tensors if param_tensors is not None else \
        make_param_tensors(params, trainable=train)

    if train:
        features = _scale_features(params, pt, x, True, rng)
    else:  # rows are independent: fixed chunks bound every temporary
        chunks = [_scale_features(params, pt, x.data[i:i + _EVAL_ROWS], False, rng)
                  for i in range(0, len(x.data) or 1, _EVAL_ROWS)]
        features = [Tensor(np.concatenate([f.data for f in scale])) for scale in zip(*chunks)]
    aux_logits = [tz.matmul(feat, pt[f"aux{scale}.w"]) + pt[f"aux{scale}.b"]
                  for scale, feat in enumerate(features)] if config.num_scales >= 1 else []

    mixed = ms.mix_features(features)
    final_logits = tz.matmul(mixed, pt["final.w"]) + pt["final.b"]
    evidence = tz.softplus(tz.matmul(mixed, pt["evidence.w"]) + pt["evidence.b"])
    return ForwardOutput(
        per_scale_features=features,
        mixed=mixed,
        aux_logits=aux_logits,
        final_logits=final_logits,
        evidence=evidence,
    )


def _resolve_head(params, head):
    if head == "auto":
        head = params.train_meta.get("primary_head", "evidential")
    if head not in ("evidential", "softmax"):
        raise ConfigError(f"unknown prediction head {head!r}")
    return head


def first_nonfinite_row(values):
    """Index of the first row of `values` that holds NaN or inf, else None."""
    bad = ~np.isfinite(np.asarray(values, dtype=np.float64))
    return int(np.argwhere(bad)[0, 0]) if bad.ndim and bad.any() else None


def head_outputs(params, out, head="auto"):
    """`predict`'s outputs from an eval-mode `forward` result `out`."""
    dirichlet = evidence_to_alpha(out.evidence)
    u = uncertainty(dirichlet).data
    if _resolve_head(params, head) == "evidential":
        probs = predict_mean(dirichlet).data
    else:
        probs = tz.softmax(out.final_logits, axis=1).data
    return probs.argmax(axis=1), probs, u


def eval_forward(params, values):
    """Eval-mode `forward` of `values`, once no row holds NaN or inf."""
    row = first_nonfinite_row(values)
    if row is not None:  # else the evidence gets the blame
        raise DomainError(f"input row {row} holds NaN or inf")
    return forward(params, values, mode="eval")


def predict(params, values, head="auto"):
    """Eval-mode class predictions, confidences/probabilities and uncertainty.

    head: "evidential" (Dirichlet mean), "softmax" (final softmax head) or
    "auto" (whatever the stored training meta says the model predicts with).
    """
    head = _resolve_head(params, head)
    return head_outputs(params, eval_forward(params, values), head)


# -- serialization ---------------------------------------------------------------


def save(params, path):
    """Write the EVTM container: magic, version, config JSON, float64
    little-endian weights, trailing CRC32."""
    header = {"config": params.config.to_dict(), "train_meta": params.train_meta}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [pack_u32(len(blob)), blob, pack_u32(len(params.arrays))]
    for name, arr in params.arrays.items():
        encoded = name.encode("utf-8")
        chunks.append(pack_u32(len(encoded)))
        chunks.append(encoded)
        chunks.append(pack_u32(arr.ndim))
        for extent in arr.shape:
            chunks.append(pack_u32(extent))
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    write_framed(path, MODEL_MAGIC, MODEL_VERSION, chunks)


def load(path):
    """Read an EVTM container back; bit-identical round trip."""
    r = FrameReader(path, MODEL_MAGIC, MODEL_VERSION)
    blob = r.take(r.u32("header length"), "header")
    at = r.offset - len(blob)
    try:
        header = json.loads(blob.decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
        train_meta = header.get("train_meta", {})
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"model header is not a valid config ({exc})", offset=at) from exc
    shapes = layout(config)
    if 8 * sum(map(math.prod, shapes.values())) > len(r.data) - r.offset:
        raise FormatError("header config needs more weights than the file has", offset=at)
    count = r.u32("array count")
    if count != len(shapes):
        raise FormatError(f"{count} arrays, not {len(shapes)}", offset=r.offset - 4)
    arrays = {}
    for _ in range(count):
        at = r.offset
        try:
            name = r.take(r.u32("name length"), "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("array name is not UTF-8", offset=at) from exc
        if name not in shapes or name in arrays:
            raise FormatError(f"unexpected or repeated array {name!r}", offset=at)
        at = r.offset
        shape = tuple(r.u32("extent") for _ in range(r.u32("rank")))
        if shape != shapes[name]:
            raise FormatError(f"{name} has shape {shape}, not {shapes[name]}", offset=at)
        raw = r.take(8 * math.prod(shape), f"data for {name}")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if r.offset != len(r.data):
        raise FormatError("trailing bytes after declared arrays", offset=r.offset)
    return ModelParams(config=config, arrays=arrays, train_meta=train_meta)
