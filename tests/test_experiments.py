import numpy as np
import pytest

from evits import data as da
from evits import experiments as ex
from evits import metrics as me
from evits import model as mo
from evits import trainer as tr


def quick_settings(**overrides):
    base = dict(epochs=3, n_per_class=8, length=64, conv_widths=(4, 4, 4),
                kernel_sizes=(5, 3, 3))
    base.update(overrides)
    return ex.BenchmarkSettings(**base)


def test_domain_specs_scale_shift():
    settings = ex.BenchmarkSettings()
    src, tgt = ex.domain_specs(settings, seed=3, shift_strength=0.0)
    assert tgt.amp_scale == 1.0 and tgt.freq_offset == 0.0 \
        and tgt.extra_noise == 0.0
    _, strong = ex.domain_specs(settings, seed=3, shift_strength=2.0)
    _, weak = ex.domain_specs(settings, seed=3, shift_strength=1.0)
    assert strong.freq_offset == pytest.approx(2.0 * weak.freq_offset)
    assert src.seed == strong.seed


def test_run_uda_fields_and_determinism():
    settings = quick_settings()
    a = ex.run_uda(settings, seed=1, method="noadapt", evidential="ce",
                   shift_strength=1.0)
    b = ex.run_uda(settings, seed=1, method="noadapt", evidential="ce",
                   shift_strength=1.0)
    assert a.target_f1 == b.target_f1
    assert a.target_ece == b.target_ece
    assert a.uncertainty_target == b.uncertainty_target
    assert 0.0 < a.uncertainty_target <= 1.0
    assert a.feature_mmd >= 0.0


def test_run_uda_multiscale_variant():
    settings = quick_settings()
    result = ex.run_uda(settings, seed=0, method="ddc", evidential="none",
                        variant="M", shift_strength=1.0)
    assert result.variant == "M"
    assert np.isfinite(result.feature_mmd)


def test_run_uda_scores_the_head_the_model_predicts_with():
    # lambda3 = 0 leaves the evidential head untrained, so training marks
    # the softmax head primary and the primary scores are the softmax ones
    result = ex.run_uda(ex.BenchmarkSettings(epochs=3, lambda3=0.0), seed=0,
                        method="ddc", evidential="ce")
    assert result.target_f1 == result.target_f1_softmax
    assert result.target_ece == result.target_ece_softmax


def test_benchmark_outcome_bookkeeping():
    settings = quick_settings()
    outcome = ex.run_benchmark(settings, seeds=range(2),
                               methods=("noadapt",),
                               shift_strengths=(1.0, 1.5))
    assert len(outcome.rows("noadapt", "none")) == 2
    assert len(outcome.rows("noadapt", "ce")) == 2
    assert len(outcome.rows("noadapt", "ce", None, 1.5)) == 2
    assert len(outcome.rows("ddc", "none", "M")) == 2
    f1s, us = ex.correlation_rows(outcome, shift_strengths=(1.0, 1.5))
    assert len(f1s) == len(us) == 4


def test_no_shift_control_gap():
    # distributionally identical domains (independent draws): a trained
    # baseline lands within 3 macro-F1 points of itself across domains
    gaps = []
    for seed in range(10):
        spec = da.SynthSpec(num_classes=3, channels=1, length=64,
                            n_per_class=20, noise_sigma=0.3, seed=seed,
                            class_freqs=[2.0, 5.0, 8.0],
                            class_amps=[1.0, 1.0, 1.0])
        source = da.synth_generate(spec, "source")
        other = da.synth_generate(
            da.SynthSpec(num_classes=3, channels=1, length=64,
                         n_per_class=20, noise_sigma=0.3, seed=seed + 1000,
                         class_freqs=[2.0, 5.0, 8.0],
                         class_amps=[1.0, 1.0, 1.0]), "target")
        src_train, src_test = da.split(source, 0.75, seed)
        config = mo.ModelConfig(channels=1, length=64, num_classes=3,
                                num_scales=0, variant=None,
                                conv_widths=(6, 6, 6),
                                kernel_sizes=(5, 3, 3), seed=seed)
        train_config = tr.TrainConfig(
            epochs=12, batch_size=15, method="noadapt", evidential="none",
            weights=tr.default_weights("noadapt", "none"), seed=seed,
            learning_rate=3e-3)
        params, _ = tr.train(config, train_config, src_train, None)
        pred_src, _, _ = mo.predict(params, src_test.values)
        pred_tgt, _, _ = mo.predict(params, other.values)
        gaps.append(me.macro_f1(pred_src, src_test.labels, 3)
                    - me.macro_f1(pred_tgt, other.labels, 3))
    assert abs(float(np.mean(gaps))) <= 0.03
