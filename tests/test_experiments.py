import csv
import importlib.util
from pathlib import Path

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
    a = ex.run_uda(settings, 1, ex.Arm("noadapt", "ce", shift_strength=1.0))
    b = ex.run_uda(settings, 1, ex.Arm("noadapt", "ce", shift_strength=1.0))
    assert a.target_f1 == b.target_f1
    assert a.target_ece == b.target_ece
    assert a.uncertainty_target == b.uncertainty_target
    assert 0.0 < a.uncertainty_target <= 1.0
    assert a.feature_mmd >= 0.0


def test_feature_mmd_is_a_python_float(tmp_path):
    result = ex.run_uda(quick_settings(epochs=1), 0, ex.Arm("noadapt", "none"))
    assert type(result.feature_mmd) is float
    # the study script's CSV writes it with repr, so the column must parse;
    # the arm's four fields stand in for `arm`, and the rows go arm by arm
    # in STUDY_ARMS order, seeds within
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_uda.py"
    spec = importlib.util.spec_from_file_location("run_synthetic_uda", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "rows.csv"
    assert script.main(["--seeds", "2", "--epochs", "1", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == [
        "seed", "method", "evidential", "variant", "shift_strength", "target_f1",
        "target_ece", "target_f1_softmax", "target_ece_softmax",
        "uncertainty_source", "uncertainty_target", "feature_mmd"]
    assert [(r["method"], r["evidential"], r["variant"], r["shift_strength"], r["seed"])
            for r in rows] == [
        (arm.method, arm.evidential, arm.variant or "none", repr(arm.shift_strength),
         str(seed)) for arm in ex.STUDY_ARMS for seed in (0, 1)]
    assert all(float(r["feature_mmd"]) >= 0.0 for r in rows)


def test_run_uda_multiscale_variant():
    settings = quick_settings()
    result = ex.run_uda(settings, 0, ex.Arm("ddc", "none", "M", 1.0))
    assert result.arm.variant == "M"
    assert np.isfinite(result.feature_mmd)


def test_run_uda_one_forward_per_domain_matches_five(monkeypatch):
    # the three predict calls and two forwards run_uda made before, on the
    # trained parameters, give every field but wall_clock bit for bit
    settings = quick_settings(epochs=1)
    real_train, kept = tr.train, []

    def keep(*args):
        kept.append(real_train(*args)[0])
        return kept[-1], None

    monkeypatch.setattr(tr, "train", keep)
    result = ex.run_uda(settings, 2, ex.Arm("ddc", "ce", "M"))
    params, k = kept[0], settings.num_classes
    source, target, _, _ = ex.benchmark_domains(settings, 2, 1.0)
    pred_p, probs_p, u_tgt = mo.predict(params, target.values)
    pred_s, probs_s, _ = mo.predict(params, target.values, head="softmax")
    _, _, u_src = mo.predict(params, source.values)
    feats_src = mo.forward(params, source.values, mode="eval").mixed.data
    feats_tgt = mo.forward(params, target.values, mode="eval").mixed.data
    want = ex.RunResult(
        seed=2, arm=ex.Arm("ddc", "ce", "M", 1.0),
        target_f1=me.macro_f1(pred_p, target.labels, k),
        target_ece=me.ece(probs_p, target.labels)[0],
        target_f1_softmax=me.macro_f1(pred_s, target.labels, k),
        target_ece_softmax=me.ece(probs_s, target.labels)[0],
        uncertainty_source=float(u_src.mean()),
        uncertainty_target=float(u_tgt.mean()),
        feature_mmd=ex.alignment.mmd_rbf(feats_src, feats_tgt),
        wall_clock=result.wall_clock)
    assert params.train_meta["primary_head"] == "evidential"
    assert result == want


def test_run_uda_scores_the_head_the_model_predicts_with():
    # lambda3 = 0 leaves the evidential head untrained, so training marks
    # the softmax head primary and the primary scores are the softmax ones
    result = ex.run_uda(ex.BenchmarkSettings(epochs=3, lambda3=0.0), 0,
                        ex.Arm("ddc", "ce"))
    assert result.target_f1 == result.target_f1_softmax
    assert result.target_ece == result.target_ece_softmax


def test_benchmark_outcome_bookkeeping():
    # seven arms per seed, in the study's run order
    assert ex.STUDY_ARMS == (
        ex.Arm("noadapt", "none"), ex.Arm("noadapt", "ce"), ex.Arm("ddc", "none"),
        ex.Arm("ddc", "ce"), ex.Arm("noadapt", "ce", None, 0.5),
        ex.Arm("noadapt", "ce", None, 1.5), ex.Arm("ddc", "none", "M"))
    runs = ex.run_benchmark(quick_settings(), seeds=range(2))
    assert list(runs) == list(ex.STUDY_ARMS)
    assert [[r.seed for r in rows] for rows in runs.values()] == [[0, 1]] * 7
    assert len(runs[ex.Arm("noadapt", "none")]) == 2
    assert len(runs[ex.Arm("ddc", "ce")]) == 2
    assert len(runs[ex.Arm("noadapt", "ce", None, 1.5)]) == 2
    assert len(runs[ex.Arm("ddc", "none", "M")]) == 2
    table = ex.verdicts(runs)
    assert [len(v.values) for v in table] == [2, 2, 2, 2, 2, 6, 12, 2]


def test_verdicts_on_hand_made_runs():
    # each claim sits at its bar, so a tie decides it: equal F1, u and MMD
    # lose, equal ECE wins
    f1 = [0.3 + 0.01 * j for j in range(30)]  # 5(d) order: shift 0.5, 1.0, 1.5 x seed
    u = [1.0 - v for v in f1]
    u[0], u[1] = u[1], u[0]
    ddc_f1 = [0.6] * 5 + [0.5] + [0.45] * 4             # 5(a): 5 wins, 1 tie
    # 5(c): 7 wins, 1 tie
    u_source = [v - g for v, g in zip(u[10:20], [0.1] * 7 + [0.0] + [-0.1] * 2)]
    columns = {
        ex.Arm("noadapt", "none", None, 1.0): dict(target_f1=f1[10:20]),
        ex.Arm("noadapt", "ce", None, 1.0): dict(  # 5(b): 5 wins, 1 tie
            target_f1=f1[10:20], target_ece=[0.05] * 5 + [0.1] + [0.2] * 4,
            uncertainty_target=u[10:20], uncertainty_source=u_source),
        ex.Arm("ddc", "none", None, 1.0): {},
        ex.Arm("ddc", "ce", None, 1.0): dict(target_f1=ddc_f1,
                                              target_ece=[0.05] * 2 + [0.2] * 8),
        ex.Arm("noadapt", "ce", None, 0.5): dict(target_f1=f1[:10], uncertainty_target=u[:10]),
        ex.Arm("noadapt", "ce", None, 1.5): dict(target_f1=f1[20:], uncertainty_target=u[20:]),
        ex.Arm("ddc", "none", "M", 1.0): dict(  # 6: 5 wins, 2 ties; not a core run
            feature_mmd=[0.1] * 5 + [0.2] * 2 + [0.3] * 3, wall_clock=[1e9] * 10)}
    base = dict(target_f1=0.5, target_ece=0.1, target_f1_softmax=0.5,
                target_ece_softmax=0.1, uncertainty_source=0.3,
                uncertainty_target=0.4, feature_mmd=0.2, wall_clock=10.0)
    runs = {arm: [ex.RunResult(seed, arm, **{
        **base, **{name: v[seed] for name, v in values.items()}}) for seed in range(10)]
        for arm, values in columns.items()}

    # ranks 1..30 against 30..1 give sum d^2 = 8990 (rho = -1); the swap makes it 8988
    rho = 1.0 - 6.0 * 8988 / (30 * (30 * 30 - 1))
    want = [("5(a) method-average", 5, False), ("5(a) mean", (sum(ddc_f1) - 5.0) / 20, True),
            ("5(b) noadapt", 6, True), ("5(b) ddc", 2, False), ("5(c)", 7, False),
            ("5(d)", rho, True), ("5 runtime", 600.0, True), ("6 ", 5, False)]
    table = ex.verdicts(runs)
    for verdict, (claim, statistic, passed) in zip(table, want, strict=True):
        assert verdict.claim.startswith(claim) and verdict.passed is passed
        assert type(verdict.statistic) is type(statistic)
        assert verdict.statistic == pytest.approx(statistic, abs=1e-12)
    assert table[5].values == tuple(zip(f1, u)) and len(table[6].values) == 60
    assert table[0].line().startswith(
        "FAIL 5(a) method-average target F1, CE > plain: 5/10 (needs >= 6) [0.5/0.45 ")


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
