"""The optimization loop: paired source/target batch sampling, the
combined objective (classification + domain alignment + annealed
evidential loss), adaptive-moment updates and reproducible logs.

Everything is seeded: init, batch order and random pooling all derive
from explicit seeds, so identical configs give bit-identical parameters
and logs.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from itertools import islice

import numpy as np

from . import alignment, metrics, model as mo
from .errors import ConfigError, DomainError, NumericalAbort, ToolkitError, check_seed
from .evidential import (
    LOSSES,
    AnnealSchedule,
    LabelBatch,
    evidence_to_alpha,
    evidential_total,
)
from .multiscale import aux_classification_loss
from .tensor import backward

EVIDENTIAL_KINDS = ("none",) + tuple(LOSSES)

METHOD_LAMBDA2 = {"noadapt": 0.0, "ddc": 1.0, "coral": 1.0, "homm": 0.1,
                  "mmda": 0.5}

DEFAULT_LAMBDA3_GRID = (0.01, 0.1, 0.5, 1.0)

# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015)
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 1.0
    lambda2: float = 0.0
    lambda3: float = 1.0

    def __post_init__(self):
        for value in (self.lambda1, self.lambda2, self.lambda3):
            if not np.isfinite(value) or value < 0:
                raise ConfigError("loss weights must be finite and >= 0")


def default_weights(method, evidential="ce"):
    return LossWeights(lambda1=1.0,
                       lambda2=METHOD_LAMBDA2[method],
                       lambda3=0.0 if evidential == "none" else 1.0)


@dataclass(frozen=True)
class TrainConfig:
    """The training recipe; `aligns` and `evidential_on` say which loss terms run."""

    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    evidential: str = "ce"  # none | ml | ce | mse
    method: str = "noadapt"
    weights: LossWeights = field(default_factory=LossWeights)
    anneal_horizon: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("need at least one epoch")
        if self.batch_size < 2:
            raise ConfigError("covariance-based losses need batch size >= 2")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning rate must be finite and > 0")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError("weight decay must be finite and >= 0")
        if self.evidential not in EVIDENTIAL_KINDS:
            raise ConfigError(f"evidential kind must be one of {EVIDENTIAL_KINDS}")
        if self.method not in alignment.METHODS:
            raise ConfigError(f"method must be one of {alignment.METHODS}")
        if self.anneal_horizon < 1:
            raise ConfigError("anneal horizon must be positive")
        check_seed(self.seed, "training")
        if self.method == "noadapt" and self.weights.lambda2 != 0.0:
            warnings.warn("method 'noadapt' ignores lambda2; domain loss forced "
                          "to 0", stacklevel=3)

    @property
    def aligns(self):
        """The domain term runs: a method other than noadapt, lambda2 != 0."""
        return self.method != "noadapt" and self.weights.lambda2 != 0.0

    @property
    def evidential_on(self):
        """The evidential term runs: a kind other than none, lambda3 != 0."""
        return self.evidential != "none" and self.weights.lambda3 != 0.0

    def to_dict(self):
        out = asdict(self)
        out.update(out.pop("weights"))  # lambda1..3 sit beside the other fields
        return out


@dataclass(frozen=True)
class LossBreakdown:
    """Unweighted components; total = l1*cls + l2*domain + l3*evidential."""

    cls: float
    domain: float
    evidential: float
    total: float

    @classmethod
    def weighted(cls, weights, components):
        """The breakdown of (cls, domain, evidential) under `weights`."""
        c, d, e = (float(v) for v in components)
        return cls(c, d, e, weights.lambda1 * c + weights.lambda2 * d + weights.lambda3 * e)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    losses: LossBreakdown
    source_val_f1: float
    wall_clock: float


@dataclass
class TrainLog:
    records: list
    seed: int
    config: dict

    def to_lines(self):
        """Line-delimited structured records.

        Wall-clock stays out of the serialized form so identical seeds
        serialize byte-identically; timings live on the in-memory records.
        """
        lines = [f"seed={self.seed}"]
        for key in sorted(self.config):
            lines.append(f"config.{key}={self.config[key]!r}")
        for rec in self.records:
            lines.append(
                "epoch={} cls={!r} domain={!r} evidential={!r} total={!r} "
                "source_val_f1={!r}".format(
                    rec.epoch, rec.losses.cls, rec.losses.domain,
                    rec.losses.evidential, rec.losses.total,
                    rec.source_val_f1))
        return lines

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")


class _ComponentFailure(ToolkitError):
    """A loss component raised while being evaluated (NaN inputs etc.)."""

    def __init__(self, component):
        super().__init__(component)
        self.component = component


def combined_loss(fwd_src, fwd_tgt, labels, config, schedule):
    """Assemble total = l1 * L_cls + l2 * L_d + l3 * (L_evi / N).

    One (name, weight, term) entry per term that runs, added in this order:
    classification always, the domain term when `config.aligns` (mixed
    features of the two domains), the evidential term when
    `config.evidential_on`; classification and evidential read the source
    only.  A term that raises DomainError is reported under its name.
    Returns the scalar tape node and the unweighted breakdown, 0.0 for a
    term that does not run.
    """
    weights = config.weights
    terms = [("cls", weights.lambda1, lambda: aux_classification_loss(
        fwd_src.final_logits, fwd_src.aux_logits, labels))]
    if config.aligns:
        terms.append(("domain", weights.lambda2, lambda: alignment.alignment_loss(
            config.method, fwd_src.mixed, fwd_tgt.mixed)))
    if config.evidential_on:
        terms.append(("evidential", weights.lambda3, lambda: evidential_total(
            evidence_to_alpha(fwd_src.evidence), labels, schedule,
            config.evidential) * (1.0 / fwd_src.evidence.shape[0])))

    parts = dict.fromkeys(("cls", "domain", "evidential"), 0.0)
    total = None
    for name, weight, term in terms:
        try:
            loss = term()
        except DomainError as exc:
            raise _ComponentFailure(name) from exc
        parts[name] = float(loss.data)
        total = weight * loss if total is None else total + weight * loss
    return total, LossBreakdown.weighted(weights, parts.values())


class _AdamState:
    def __init__(self, params, config):
        self.names = params.trainable_names()
        self.m = {n: np.zeros_like(params.arrays[n]) for n in self.names}
        self.v = {n: np.zeros_like(params.arrays[n]) for n in self.names}
        self.config = config
        self.step_count = 0

    def apply(self, params, grads):
        self.step_count += 1
        cfg = self.config
        bias1 = 1.0 - BETA1 ** self.step_count
        bias2 = 1.0 - BETA2 ** self.step_count
        for name in self.names:
            grad = grads.get(name)
            if grad is None:
                continue
            if cfg.weight_decay:
                grad = grad + cfg.weight_decay * params.arrays[name]
            self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * grad
            self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * grad * grad
            m_hat = self.m[name] / bias1
            v_hat = self.v[name] / bias2
            params.arrays[name] = params.arrays[name] - cfg.learning_rate * m_hat \
                / (np.sqrt(v_hat) + ADAM_EPS)


def _batch_starts(total, batch_size):
    starts = list(range(0, total, batch_size))
    # a trailing singleton cannot feed covariance statistics: that row is
    # skipped for the epoch, not folded in (each epoch shuffles anew)
    if starts and total - starts[-1] < 2 and len(starts) > 1:
        starts.pop()
    return starts


def _cycled_rows(count, rng):
    """Row indices from seeded permutations of range(count), one after
    another, each yielded last entry first.  Never yields when count is 0."""
    while True:
        yield from reversed(rng.permutation(count))


def _finite_check(named_values, epoch, step, kind="loss component"):
    for name, value in named_values.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise NumericalAbort(name, epoch, step, kind)


def check_inputs(train_config, source, target):
    """Refuse batches `train` cannot use: an unlabeled or empty source, or a
    missing or empty target when `train_config.aligns`, the only case that
    reads the target (never its labels)."""
    if not source.labeled:
        raise ConfigError("the source batch must carry labels")
    if len(source) == 0:
        raise ConfigError("the source batch holds no rows")
    if train_config.aligns and (target is None or len(target) == 0):
        raise ConfigError(f"method {train_config.method!r} needs a non-empty target batch")


def train(model_config, train_config, source, target):
    """Train on labeled source plus (optionally) unlabeled target.

    Checks every precondition before the first step: `check_inputs`, and a
    source class count that matches the model.  Returns parameters and log.
    """
    check_inputs(train_config, source, target)
    needs_target = train_config.aligns
    if source.num_classes != model_config.num_classes:
        raise ConfigError("source num_classes does not match the model")

    params = mo.init(model_config)
    params.train_meta = {
        "primary_head": "evidential" if train_config.evidential_on else "softmax",
        **train_config.to_dict(),
    }
    seeds = np.random.SeedSequence([int(train_config.seed), 0x7EA1]).spawn(3)
    shuffle_rng = np.random.default_rng(seeds[0])
    target_rng = np.random.default_rng(seeds[1])
    pool_rng = np.random.default_rng(seeds[2])

    optimizer = _AdamState(params, train_config)
    target_rows = _cycled_rows(len(target), target_rng) if needs_target else None
    inputs = {"source": source, "target": target} if needs_target else {"source": source}
    for name, batch in inputs.items():
        row = mo.first_nonfinite_row(batch.values)
        if row is not None:  # else a loss component gets the blame
            raise NumericalAbort(f"{name} row {row}", 0, 0, "input")

    records = []
    for epoch in range(train_config.epochs):
        started = time.perf_counter()
        schedule = AnnealSchedule(epoch=epoch, horizon=train_config.anneal_horizon)
        order = shuffle_rng.permutation(len(source))
        sums = np.zeros(3)
        steps = 0
        for step, start in enumerate(_batch_starts(len(source),
                                                   train_config.batch_size)):
            take = order[start:start + train_config.batch_size]
            xb = source.values[take]
            yb = LabelBatch.from_labels(source.labels[take],
                                        model_config.num_classes)
            tensors = mo.make_param_tensors(params, trainable=True)
            fwd_src = mo.forward(params, xb, mode="train", rng=pool_rng,
                                 param_tensors=tensors)
            fwd_tgt = None
            if needs_target:
                tb = target.values[np.fromiter(islice(target_rows, len(take)), np.int64)]
                fwd_tgt = mo.forward(params, tb, mode="train", rng=pool_rng,
                                     param_tensors=tensors)
            try:
                total, breakdown = combined_loss(fwd_src, fwd_tgt, yb,
                                                 train_config, schedule)
            except _ComponentFailure as exc:
                raise NumericalAbort(exc.component, epoch, step) from exc
            _finite_check(asdict(breakdown), epoch, step)
            backward(total)
            grads = {name: tensors[name].grad for name in optimizer.names}
            _finite_check(grads, epoch, step, "gradient")
            optimizer.apply(params, grads)
            sums += (breakdown.cls, breakdown.domain, breakdown.evidential)
            steps += 1

        losses = LossBreakdown.weighted(train_config.weights, sums / max(steps, 1))
        pred, _, _ = mo.head_outputs(params, mo.forward(params, source.values, mode="eval"))
        f1 = metrics.macro_f1(pred, source.labels, model_config.num_classes)
        records.append(EpochRecord(
            epoch=epoch, losses=losses, source_val_f1=f1,
            wall_clock=time.perf_counter() - started))

    log = TrainLog(records=records, seed=train_config.seed,
                   config={**params.train_meta,
                           "model_seed": model_config.seed,
                           "variant": model_config.variant,
                           "num_scales": model_config.num_scales})
    return params, log


def select_lambda3(grid, model_config, train_config, source, target,
                   target_val):
    """Grid-search lambda3 by target risk on a labeled validation subset.

    Trains one model per grid value; a run that aborts numerically is
    marked failed and skipped.  Ties prefer the smaller lambda3.  Returns
    (best, rows) with one (lambda3, f1, status) row per grid point.
    """
    grid = list(grid)
    if not grid:
        raise ConfigError("lambda3 grid must not be empty")
    if not target_val.labeled:
        raise ConfigError("lambda3 selection needs a labeled target subset")
    if train_config.evidential == "none":
        raise ConfigError("lambda3 selection needs an evidential head: "
                          "with evidential 'none' lambda3 changes nothing")
    rows = []
    best = None
    for value in grid:
        cfg = replace(train_config,
                      weights=replace(train_config.weights, lambda3=value))
        try:
            params, _ = train(model_config, cfg, source, target)
        except NumericalAbort as exc:
            rows.append({"lambda3": value, "target_f1": None,
                         "status": f"failed: {exc.component}"})
            continue
        pred, _, _ = mo.predict(params, target_val.values)
        f1 = metrics.macro_f1(pred, target_val.labels,
                              model_config.num_classes)
        rows.append({"lambda3": value, "target_f1": f1, "status": "ok"})
        if best is None or f1 > best[1] or (f1 == best[1] and value < best[0]):
            best = (value, f1)
    if best is None:
        raise ConfigError("every lambda3 candidate failed to train")
    return best[0], rows
