"""Desk-scale synthetic UDA benchmark: one place that defines the data
family, the model/training recipe and a single run's measurements, so
the acceptance checks and the experiment scripts stay in sync.

The task: four sinusoid-mixture classes whose frequencies sit close
enough to overlap under noise.  The target domain damps amplitudes,
offsets every class frequency and adds extra noise; `shift_strength`
scales all three deviations at once (0 = no shift).
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

import numpy as np

from . import alignment, data as da, metrics as me, model as mo, trainer as tr

# the study's grid, shared by run_benchmark and verdicts
STUDY_METHODS = ("noadapt", "ddc")
SHIFT_STRENGTHS = (0.5, 1.0, 1.5)
MULTISCALE_VARIANT = "M"


@dataclass(frozen=True)
class Arm:
    """One study configuration; `variant=None` is the single-scale model."""

    method: str
    evidential: str
    variant: str | None = None
    shift_strength: float = 1.0


# per seed, in run order: every method with and without the evidential-CE
# head at the reference strength 1.0; evidential noadapt at the other
# strengths (with the reference run, the uncertainty-vs-F1 correlation);
# plain ddc with `MULTISCALE_VARIANT` for the feature-discrepancy comparison
STUDY_ARMS = (*(Arm(m, e) for m in STUDY_METHODS for e in ("none", "ce")),
              *(Arm("noadapt", "ce", shift_strength=s)
                for s in SHIFT_STRENGTHS if s != 1.0),
              Arm("ddc", "none", MULTISCALE_VARIANT))


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
    arm: Arm
    target_f1: float          # primary head
    target_ece: float         # primary head
    target_f1_softmax: float
    target_ece_softmax: float
    uncertainty_source: float
    uncertainty_target: float
    feature_mmd: float        # RBF MMD between mixed features, src vs tgt test
    wall_clock: float


def run_uda(settings, seed, arm):
    """Train one study arm on one seed and measure the quantities the
    directional claims compare."""
    started = time.perf_counter()
    source, target, src_train, tgt_train = benchmark_domains(
        settings, seed, arm.shift_strength)
    model_config = mo.ModelConfig(
        channels=settings.channels, length=settings.length,
        num_classes=settings.num_classes,
        num_scales=settings.num_scales if arm.variant else 0,
        variant=arm.variant, conv_widths=settings.conv_widths,
        kernel_sizes=settings.kernel_sizes, seed=seed)
    weights = tr.LossWeights(lambda2=tr.METHOD_LAMBDA2[arm.method], lambda3=settings.lambda3)
    train_config = tr.TrainConfig(
        epochs=settings.epochs, batch_size=settings.batch_size,
        learning_rate=settings.learning_rate, evidential=arm.evidential,
        method=arm.method, weights=weights, seed=seed)
    params, _ = tr.train(model_config, train_config, src_train, tgt_train)

    k = settings.num_classes
    # one eval forward per domain gives every output
    out_src = mo.forward(params, source.values, mode="eval")
    out_tgt = mo.forward(params, target.values, mode="eval")
    pred_p, probs_p, u_tgt = mo.head_outputs(params, out_tgt)
    pred_s, probs_s, _ = mo.head_outputs(params, out_tgt, head="softmax")
    _, _, u_src = mo.head_outputs(params, out_src)

    return RunResult(
        seed=seed, arm=arm,
        target_f1=me.macro_f1(pred_p, target.labels, k),
        target_ece=me.ece(probs_p, target.labels)[0],
        target_f1_softmax=me.macro_f1(pred_s, target.labels, k),
        target_ece_softmax=me.ece(probs_s, target.labels)[0],
        uncertainty_source=float(u_src.mean()),
        uncertainty_target=float(u_tgt.mean()),
        feature_mmd=alignment.mmd_rbf(out_src.mixed.data, out_tgt.mixed.data),
        wall_clock=time.perf_counter() - started)


def run_benchmark(settings=None, seeds=range(10), progress=None):
    """The full desk-scale study: every arm of `STUDY_ARMS` on every seed,
    seed by seed, as {Arm: [RunResult] in seed order}."""
    settings = settings or BenchmarkSettings()
    runs = {arm: [] for arm in STUDY_ARMS}
    for seed in seeds:
        for arm in STUDY_ARMS:
            runs[arm].append(run_uda(settings, seed, arm))
            if progress:
                progress(runs[arm][-1])
    return runs


@dataclass(frozen=True)
class Verdict:
    """One sub-claim of criteria 5 and 6 on a study: per seed the (left, right)
    pair it compares, or one value per run; the win count (an int), gap, rho
    or seconds; the fixed bar; and whether it holds."""

    claim: str
    values: tuple
    statistic: float
    threshold: str
    passed: bool

    def line(self):
        stat = self.statistic
        stat = f"{stat}/{len(self.values)}" if isinstance(stat, int) else f"{stat:.4g}"
        values = " ".join("/".join(f"{x:.3g}" for x in np.atleast_1d(v))
                          for v in self.values)
        return (f"{'PASS' if self.passed else 'FAIL'} {self.claim}: {stat} "
                f"(needs {self.threshold}) [{values}]")


def verdicts(runs):
    """Criteria 5 and 6, sub-claim by sub-claim, on `run_benchmark`'s runs."""
    plain, evi = ([runs[Arm(m, kind)] for m in STUDY_METHODS]
                  for kind in ("none", "ce"))

    def wins(claim, pairs, beats, need):
        count = sum(bool(beats(a, b)) for a, b in pairs)
        return Verdict(claim, tuple(pairs), count, f">= {need}", count >= need)

    f1_avg = [tuple(float(np.mean([r.target_f1 for r in rows])) for rows in (e, p))
              for e, p in zip(zip(*evi), zip(*plain))]
    gap = float(np.mean([r.target_f1 for rows in evi for r in rows])
                - np.mean([r.target_f1 for rows in plain for r in rows]))
    table = [wins("5(a) method-average target F1, CE > plain", f1_avg, operator.gt, 6),
             Verdict("5(a) mean target F1, CE - plain", tuple(f1_avg), gap, "> 0", gap > 0)]
    table += [wins(f"5(b) {m} target ECE, CE <= plain", [(e.target_ece, p.target_ece)
                   for e, p in zip(e_rows, p_rows)], operator.le, 6)
              for m, e_rows, p_rows in zip(STUDY_METHODS, evi, plain)]
    table.append(wins("5(c) noadapt+CE mean u, target > source", [
        (r.uncertainty_target, r.uncertainty_source) for r in evi[0]], operator.gt, 8))
    points = [(r.target_f1, r.uncertainty_target) for s in SHIFT_STRENGTHS
              for r in runs[Arm("noadapt", "ce", shift_strength=s)]]
    rho = me.spearman(*zip(*points))
    table.append(Verdict("5(d) Spearman rho(target F1, u), noadapt+CE", tuple(points), rho,
                         "<= -0.3 over >= 30 runs", len(points) >= 30 and rho <= -0.3))
    seconds = tuple(r.wall_clock for arm, rows in runs.items() if arm.variant is None
                    for r in rows)
    table.append(Verdict("5 runtime of the single-scale runs, s", seconds, sum(seconds),
                         "<= 600", sum(seconds) <= 600.0))
    table.append(wins("6 ddc feature MMD, M < single-scale", [
        (m.feature_mmd, b.feature_mmd) for m, b in zip(
            runs[Arm("ddc", "none", MULTISCALE_VARIANT)], runs[Arm("ddc", "none")])],
        operator.lt, 6))
    return table
