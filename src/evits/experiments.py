"""Desk-scale synthetic UDA benchmark: one place that defines the data
family, the model/training recipe and a single run's measurements, so
the acceptance checks and the experiment scripts stay in sync.

The task: four sinusoid-mixture classes whose frequencies sit close
enough to overlap under noise.  The target domain damps amplitudes,
offsets every class frequency and adds extra noise; `shift_strength`
scales all three deviations at once (0 = no shift).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import alignment, data as da, metrics as me, model as mo, trainer as tr


@dataclass(frozen=True)
class BenchmarkSettings:
    num_classes: int = 4
    channels: int = 2
    length: int = 128
    n_per_class: int = 50
    freq_base: float = 2.0
    freq_gap: float = 1.5
    noise_sigma: float = 0.8
    # per unit of shift strength
    amp_drop: float = 0.3
    freq_shift: float = 0.4  # in units of freq_gap
    extra_noise: float = 1.0  # in units of noise_sigma
    train_fraction: float = 0.75
    conv_widths: tuple = (14, 14, 14)
    kernel_sizes: tuple = (8, 5, 3)
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 3e-3
    lambda3: float = 1.0
    num_scales: int = 2


def domain_specs(settings, seed, shift_strength):
    """Source and target synthetic specs for one seed and shift strength."""
    freqs = [settings.freq_base + settings.freq_gap * c
             for c in range(settings.num_classes)]
    amps = [1.0] * settings.num_classes
    base = dict(num_classes=settings.num_classes, channels=settings.channels,
                length=settings.length, n_per_class=settings.n_per_class,
                noise_sigma=settings.noise_sigma, seed=seed,
                class_freqs=freqs, class_amps=amps)
    source = da.SynthSpec(**base)
    target = da.SynthSpec(
        **base,
        amp_scale=1.0 - settings.amp_drop * shift_strength,
        freq_offset=settings.freq_shift * settings.freq_gap * shift_strength,
        extra_noise=settings.extra_noise * settings.noise_sigma * shift_strength)
    return source, target


def benchmark_domains(settings, seed, shift_strength):
    """Full source/target batches plus the unlabeled target training split.

    Training sees the labeled source training split and the target training
    split without labels; measurements use the complete 200-sample domains
    (transductive evaluation, the usual UDA protocol at this scale).
    """
    src_spec, tgt_spec = domain_specs(settings, seed, shift_strength)
    source = da.synth_generate(src_spec, "source")
    target = da.synth_generate(tgt_spec, "target")
    src_train, _ = da.split(source, settings.train_fraction, seed)
    tgt_train, _ = da.split(target, settings.train_fraction, seed)
    return source, target, src_train, tgt_train


@dataclass(frozen=True)
class RunResult:
    seed: int
    method: str
    evidential: str
    variant: str | None
    shift_strength: float
    target_f1: float          # primary head
    target_ece: float         # primary head
    target_f1_softmax: float
    target_ece_softmax: float
    uncertainty_source: float
    uncertainty_target: float
    feature_mmd: float        # RBF MMD between mixed features, src vs tgt test
    wall_clock: float


def run_uda(settings, seed, method, evidential, variant=None,
            shift_strength=1.0):
    """Train one configuration and measure the quantities the directional
    claims compare.  `variant=None` means the single-scale model."""
    started = time.perf_counter()
    source, target, src_train, tgt_train = benchmark_domains(
        settings, seed, shift_strength)
    model_config = mo.ModelConfig(
        channels=settings.channels, length=settings.length,
        num_classes=settings.num_classes,
        num_scales=settings.num_scales if variant else 0,
        variant=variant, conv_widths=settings.conv_widths,
        kernel_sizes=settings.kernel_sizes, seed=seed)
    weights = tr.LossWeights(
        lambda1=1.0, lambda2=tr.METHOD_LAMBDA2[method],
        lambda3=0.0 if evidential == "none" else settings.lambda3)
    train_config = tr.TrainConfig(
        epochs=settings.epochs, batch_size=settings.batch_size,
        learning_rate=settings.learning_rate, evidential=evidential,
        method=method, weights=weights, seed=seed)
    params, _ = tr.train(model_config, train_config, src_train, tgt_train)

    k = settings.num_classes
    pred_e, probs_e, u_tgt = mo.predict(params, target.values,
                                        head="evidential")
    pred_s, probs_s, _ = mo.predict(params, target.values, head="softmax")
    _, _, u_src = mo.predict(params, source.values, head="evidential")
    if params.train_meta["primary_head"] == "evidential":
        pred_p, probs_p = pred_e, probs_e
    else:
        pred_p, probs_p = pred_s, probs_s

    feats_src = mo.forward(params, source.values, mode="eval").mixed.data
    feats_tgt = mo.forward(params, target.values, mode="eval").mixed.data

    return RunResult(
        seed=seed, method=method, evidential=evidential, variant=variant,
        shift_strength=shift_strength,
        target_f1=me.macro_f1(pred_p, target.labels, k),
        target_ece=me.ece(probs_p, target.labels)[0],
        target_f1_softmax=me.macro_f1(pred_s, target.labels, k),
        target_ece_softmax=me.ece(probs_s, target.labels)[0],
        uncertainty_source=float(u_src.mean()),
        uncertainty_target=float(u_tgt.mean()),
        feature_mmd=alignment.mmd_rbf(feats_src, feats_tgt),
        wall_clock=time.perf_counter() - started)


@dataclass
class BenchmarkOutcome:
    """Everything criterion-style directional checks need, plus raw rows."""

    runs: dict = field(default_factory=dict)  # (method, evidential, variant, strength) -> [RunResult]

    def rows(self, method, evidential, variant=None, strength=1.0):
        return self.runs[(method, evidential, variant, strength)]


def run_benchmark(settings=None, seeds=range(10), methods=("noadapt", "ddc"),
                  shift_strengths=(0.5, 1.0, 1.5), multiscale_variant="M",
                  progress=None):
    """The full desk-scale study.

    At the reference strength (1.0): every method with and without the
    evidential-CE head.  Extra strengths: evidential noadapt runs for the
    uncertainty-vs-F1 correlation.  Multi-scale: plain ddc runs with the
    requested variant for the feature-discrepancy comparison.
    """
    settings = settings or BenchmarkSettings()
    outcome = BenchmarkOutcome()

    def record(key, result):
        outcome.runs.setdefault(key, []).append(result)
        if progress:
            progress(key, result)

    for seed in seeds:
        for method in methods:
            for evidential in ("none", "ce"):
                result = run_uda(settings, seed, method, evidential,
                                 shift_strength=1.0)
                record((method, evidential, None, 1.0), result)
        for strength in shift_strengths:
            if strength == 1.0:
                continue  # reuse the reference runs
            result = run_uda(settings, seed, "noadapt", "ce",
                             shift_strength=strength)
            record(("noadapt", "ce", None, strength), result)
        result = run_uda(settings, seed, "ddc", "none",
                         variant=multiscale_variant, shift_strength=1.0)
        record(("ddc", "none", multiscale_variant, 1.0), result)
    return outcome


def correlation_rows(outcome, shift_strengths=(0.5, 1.0, 1.5)):
    """(target F1, mean target uncertainty) across evidential noadapt runs."""
    f1s, uncertainties = [], []
    for strength in shift_strengths:
        for row in outcome.rows("noadapt", "ce", None, strength):
            f1s.append(row.target_f1)
            uncertainties.append(row.uncertainty_target)
    return f1s, uncertainties
