import dataclasses
import re
import tracemalloc
import warnings
import weakref
from itertools import islice

import numpy as np
import pytest

from evits import data as da
from evits import experiments as ex
from evits import metrics as me
from evits import model as mo
from evits import trainer as tr
from evits.errors import ConfigError, NumericalAbort, ShapeError
from evits.evidential import AnnealSchedule, LabelBatch
from evits.tensor import Tensor


def tiny_model_config(**overrides):
    base = dict(channels=1, length=32, num_classes=2, num_scales=0,
                variant=None, conv_widths=(6, 6, 6), kernel_sizes=(8, 5, 3),
                seed=0)
    base.update(overrides)
    return mo.ModelConfig(**base)


def train_config(**overrides):
    base = dict(epochs=4, batch_size=8, learning_rate=3e-3, method="noadapt",
                evidential="none",
                weights=tr.default_weights("noadapt", "none"), seed=0)
    base.update(overrides)
    return tr.TrainConfig(**base)


def synth_pair(seed=0, **shift):
    spec = da.SynthSpec(num_classes=2, channels=1, length=32, n_per_class=12,
                        noise_sigma=0.2, seed=seed, **shift)
    source = da.synth_generate(spec, "source")
    target = da.synth_generate(spec, "target")
    return source, target


def fake_forward(evidence_rows, logits=None):
    evidence = Tensor(np.asarray(evidence_rows, dtype=np.float64))
    logits = Tensor(np.asarray(logits, dtype=np.float64)) \
        if logits is not None else evidence
    return mo.ForwardOutput(per_scale_features=[], mixed=evidence,
                            aux_logits=[], final_logits=logits,
                            evidence=evidence)


class TestCombinedLoss:
    def test_reduces_to_classification_when_other_weights_zero(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 3))
        fwd = fake_forward(np.abs(rng.standard_normal((4, 3))), logits)
        y = LabelBatch.from_labels([0, 1, 2, 0], 3)
        weights = tr.LossWeights(lambda1=1.0, lambda2=0.0, lambda3=0.0)
        total, parts = tr.combined_loss(fwd, None, y,
                                        train_config(weights=weights),
                                        AnnealSchedule(0))
        from evits.multiscale import softmax_cross_entropy
        want = softmax_cross_entropy(Tensor(logits), y).data
        assert total.data == pytest.approx(float(want), abs=1e-12)
        assert parts.domain == 0.0 and parts.evidential == 0.0

    def test_identical_batches_zero_domain(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 2))
        fwd = fake_forward(np.abs(rng.standard_normal((4, 2))), logits)
        y = LabelBatch.from_labels([0, 1, 0, 1], 2)
        weights = tr.LossWeights(lambda1=1.0, lambda2=1.0, lambda3=0.0)
        _, parts = tr.combined_loss(fwd, fwd, y,
                                    train_config(method="ddc", weights=weights),
                                    AnnealSchedule(0))
        assert parts.domain == 0.0

    def test_single_sample_ce_hand_value(self):
        # alpha (2, 1), true class 0, lambda3 = 1, epoch 0 -> total 0.5
        fwd = fake_forward([[1.0, 0.0]], [[0.0, 0.0]])
        y = LabelBatch.from_labels([0], 2)
        weights = tr.LossWeights(lambda1=0.0, lambda2=0.0, lambda3=1.0)
        total, parts = tr.combined_loss(
            fwd, None, y, train_config(evidential="ce", weights=weights),
            AnnealSchedule(0))
        assert total.data == pytest.approx(0.5, abs=1e-12)
        assert parts.evidential == pytest.approx(0.5, abs=1e-12)

    def test_noadapt_with_lambda2_warns_and_zeroes(self):
        fwd = fake_forward([[1.0, 0.0]], [[0.0, 0.0]])
        y = LabelBatch.from_labels([0], 2)
        weights = tr.LossWeights(lambda1=1.0, lambda2=0.5, lambda3=0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = train_config(weights=weights)
        assert any("noadapt" in str(w.message) for w in caught)
        _, parts = tr.combined_loss(fwd, None, y, cfg, AnnealSchedule(0))
        assert parts.domain == 0.0

    def test_accounting_identity(self):
        rng = np.random.default_rng(2)
        fwd_s = fake_forward(np.abs(rng.standard_normal((5, 3))),
                             rng.standard_normal((5, 3)))
        fwd_t = fake_forward(np.abs(rng.standard_normal((5, 3))),
                             rng.standard_normal((5, 3)))
        y = LabelBatch.from_labels(rng.integers(0, 3, 5), 3)
        weights = tr.LossWeights(lambda1=0.7, lambda2=1.3, lambda3=2.1)
        cfg = train_config(method="coral", evidential="mse", weights=weights)
        total, parts = tr.combined_loss(fwd_s, fwd_t, y, cfg, AnnealSchedule(3))
        reconstructed = (0.7 * parts.cls + 1.3 * parts.domain
                         + 2.1 * parts.evidential)
        assert total.data == pytest.approx(reconstructed, abs=1e-9)
        assert parts.total == pytest.approx(reconstructed, abs=1e-12)


class TestTrain:
    def test_overfit_oracle(self):
        spec = da.SynthSpec(num_classes=2, channels=1, length=32,
                            n_per_class=4, noise_sigma=0.1, seed=3)
        source = da.synth_generate(spec, "source")
        params, log = tr.train(
            tiny_model_config(), train_config(epochs=50, seed=1),
            source, None)
        assert log.records[-1].source_val_f1 == 1.0
        pred, _, _ = mo.predict(params, source.values)
        assert me.macro_f1(pred, source.labels, 2) == 1.0

    def test_loss_decreases(self):
        spec = da.SynthSpec(num_classes=2, channels=1, length=32,
                            n_per_class=4, noise_sigma=0.1, seed=3)
        source = da.synth_generate(spec, "source")
        _, log = tr.train(tiny_model_config(), train_config(epochs=50),
                          source, None)
        assert log.records[19].losses.total < log.records[0].losses.total

    def test_deterministic_same_seed(self):
        source, target = synth_pair(seed=5, amp_scale=0.8)
        cfg = train_config(method="ddc", evidential="ce",
                           weights=tr.default_weights("ddc", "ce"), seed=9)
        p1, log1 = tr.train(tiny_model_config(), cfg, source, target)
        p2, log2 = tr.train(tiny_model_config(), cfg, source, target)
        for name in p1.arrays:
            assert np.array_equal(p1.arrays[name], p2.arrays[name])
        assert log1.to_lines() == log2.to_lines()

    def test_target_labels_ignored(self):
        source, target = synth_pair(seed=6, amp_scale=0.7)
        cfg = train_config(method="ddc",
                           weights=tr.default_weights("ddc", "none"))
        p1, log1 = tr.train(tiny_model_config(), cfg, source, target)
        rng = np.random.default_rng(0)
        shuffled = da.TimeSeriesBatch(
            values=target.values,
            labels=rng.permutation(target.labels).astype(np.int32),
            num_classes=target.num_classes)
        p2, log2 = tr.train(tiny_model_config(), cfg, source, shuffled)
        for name in p1.arrays:
            assert np.array_equal(p1.arrays[name], p2.arrays[name])
        assert log1.to_lines() == log2.to_lines()

    def test_lambda3_zero_makes_kind_inert(self):
        source, target = synth_pair(seed=7)
        logs = []
        for kind in ("ml", "ce", "mse"):
            weights = tr.LossWeights(lambda1=1.0, lambda2=0.0, lambda3=0.0)
            cfg = train_config(evidential=kind, weights=weights, seed=4)
            _, log = tr.train(tiny_model_config(), cfg, source, None)
            logs.append(log.to_lines()[1:])  # drop the config echo line
        stripped = [[line for line in lines if not line.startswith("config.")]
                    for lines in logs]
        assert stripped[0] == stripped[1] == stripped[2]

    def test_epoch_records_reconstruct_totals(self):
        source, target = synth_pair(seed=8, amp_scale=0.75)
        weights = tr.LossWeights(lambda1=0.9, lambda2=0.6, lambda3=0.4)
        cfg = train_config(method="ddc", evidential="ce", weights=weights,
                           epochs=3)
        _, log = tr.train(tiny_model_config(), cfg, source, target)
        assert len(log.records) == 3
        for record in log.records:
            parts = record.losses
            want = (0.9 * parts.cls + 0.6 * parts.domain
                    + 0.4 * parts.evidential)
            assert parts.total == pytest.approx(want, abs=1e-9)

    def test_default_config_trains_without_warnings(self):
        source, _ = synth_pair(seed=15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr.train(tiny_model_config(), tr.TrainConfig(epochs=1), source, None)

    def test_homm_trains_multiscale(self):
        source, target = synth_pair(seed=16, amp_scale=0.8)
        cfg = train_config(method="homm", evidential="ce",
                           weights=tr.default_weights("homm", "ce"), epochs=2)
        _, log = tr.train(tiny_model_config(num_scales=2, variant="M"), cfg,
                          source, target)
        for record in log.records:
            assert np.isfinite(record.losses.domain)
            assert record.losses.domain > 0.0

    def test_nan_input_aborts_with_component(self):
        source, _ = synth_pair(seed=9)
        poisoned = da.TimeSeriesBatch(
            values=source.values.copy(), labels=source.labels,
            num_classes=source.num_classes)
        poisoned.values[0, 0, 0] = np.nan
        with pytest.raises(NumericalAbort, match="'source row 0' input") as failure:
            tr.train(tiny_model_config(), train_config(), poisoned, None)
        assert failure.value.component == "source row 0"

    def test_nan_target_input_named_when_read(self):
        source, target = synth_pair(seed=9)
        target.values[5, 0, 3] = np.inf
        cfg = train_config(method="ddc", weights=tr.default_weights("ddc", "none"))
        with pytest.raises(NumericalAbort) as failure:
            tr.train(tiny_model_config(), cfg, source, target)
        assert failure.value.component == "target row 5"
        # noadapt never reads the target, so its values are not checked
        tr.train(tiny_model_config(), train_config(epochs=1), source, target)

    @pytest.mark.parametrize("field,value,component", [
        ("mixed", np.inf, "domain"), ("mixed", np.nan, "domain"),
        ("final_logits", np.inf, "cls"), ("final_logits", np.nan, "cls"),
        ("evidence", np.inf, "evidential"), ("evidence", np.nan, "evidential")])
    def test_nonfinite_forward_names_component(self, monkeypatch, field, value,
                                               component):
        # one case per entry of combined_loss's term list
        source, target = synth_pair(seed=9)
        real_forward = mo.forward

        def poisoned(*args, **kwargs):
            out = real_forward(*args, **kwargs)
            getattr(out, field).data[0, 0] = value
            return out

        monkeypatch.setattr(mo, "forward", poisoned)
        evidential = "ce" if component == "evidential" else "none"
        cfg = train_config(method="ddc", evidential=evidential,
                           weights=tr.default_weights("ddc", evidential))
        with pytest.raises(NumericalAbort) as failure:
            tr.train(tiny_model_config(), cfg, source, target)
        assert failure.value.component == component

    def test_inf_gradient_aborts_before_the_update(self, monkeypatch):
        # a finite loss whose gradient holds an inf: the step names the
        # parameter and leaves every parameter as it was
        source, _ = synth_pair(seed=9)
        seen = {}
        real_tensors, real_backward = mo.make_param_tensors, tr.backward

        def capture(params, trainable=True):
            seen["params"] = params
            seen["before"] = {n: a.copy() for n, a in params.arrays.items()}
            seen["tensors"] = real_tensors(params, trainable)
            return seen["tensors"]

        def poisoned(total):
            real_backward(total)
            seen["tensors"]["final.b"].grad = np.array([0.0, np.inf])

        monkeypatch.setattr(mo, "make_param_tensors", capture)
        monkeypatch.setattr(tr, "backward", poisoned)
        with pytest.raises(NumericalAbort, match="final.b") as failure:
            tr.train(tiny_model_config(), train_config(), source, None)
        assert (failure.value.component, failure.value.epoch,
                failure.value.step) == ("final.b", 0, 0)
        params = seen["params"]
        for name in params.trainable_names():
            assert np.array_equal(params.arrays[name], seen["before"][name])

    def test_unlabeled_source_rejected(self):
        source, _ = synth_pair()
        unlabeled = da.TimeSeriesBatch(values=source.values, labels=None,
                                       num_classes=2)
        with pytest.raises(ConfigError):
            tr.train(tiny_model_config(), train_config(), unlabeled, None)

    def test_empty_source_rejected(self):
        source, _ = synth_pair()
        with pytest.raises(ConfigError, match="source batch holds no rows"):
            tr.train(tiny_model_config(), train_config(), source.subset([]), None)

    def test_alignment_needs_target(self):
        source, target = synth_pair()
        for method in ("coral", "ddc"):
            cfg = train_config(method=method,
                               weights=tr.default_weights(method, "none"))
            # an empty target fails here, not in the first step's sampler
            for missing in (None, target.subset([])):
                with pytest.raises(ConfigError,
                                   match=f"'{method}' needs a non-empty target"):
                    tr.train(tiny_model_config(), cfg, source, missing)

    @pytest.mark.parametrize("values", [np.zeros((5, 2, 32)), np.zeros((5, 1, 16))])
    def test_alignment_refuses_a_target_of_other_rows(self, values, monkeypatch):
        source, _ = synth_pair()
        target = da.TimeSeriesBatch(values=values, labels=None, num_classes=2)
        cfg = train_config(method="ddc", weights=tr.default_weights("ddc", "none"))
        monkeypatch.setattr(tr.mo, "init", lambda config: pytest.fail("built a model"))
        match = re.escape(f"target batch's [C, T] {values.shape[1:]} does not match "
                          "the source's (1, 32)")
        with pytest.raises(ShapeError, match=match):
            tr.train(tiny_model_config(), cfg, source, target)
        # a run that never reads the target does not check it
        tr.check_inputs(train_config(), source, target)

    def test_alignment_off_never_reads_the_target(self):
        # ddc with lambda2 = 0 runs no domain term, so it needs no target
        # and trains the noadapt model bit for bit
        source, _ = synth_pair(seed=17)
        weights = tr.LossWeights(lambda1=1.0, lambda2=0.0, lambda3=1.0)
        runs = [tr.train(tiny_model_config(), train_config(
            method=method, evidential="ce", weights=weights, epochs=2), source, None)[0]
            for method in ("ddc", "noadapt")]
        assert runs[0].arrays.keys() == runs[1].arrays.keys()
        for name in runs[0].arrays:
            assert np.array_equal(runs[0].arrays[name], runs[1].arrays[name])

    def test_noadapt_lambda2_warns_once_per_config(self):
        source, _ = synth_pair(seed=18)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = train_config(weights=tr.LossWeights(lambda2=0.5), epochs=2)
            tr.train(tiny_model_config(), cfg, source, None)
        assert sum("ignores lambda2" in str(w.message) for w in caught) == 1

    def test_evidential_component_scale_stable_across_batch_size(self):
        # L_evi is divided by batch size, so halving the batch keeps the
        # logged component on the same scale (within 20%)
        source, _ = synth_pair(seed=10)
        means = []
        for batch_size in (8, 16):
            weights = tr.LossWeights(lambda1=1.0, lambda2=0.0, lambda3=1.0)
            cfg = train_config(evidential="ce", weights=weights,
                               batch_size=batch_size, epochs=3)
            _, log = tr.train(tiny_model_config(), cfg, source, None)
            means.append(np.mean([r.losses.evidential for r in log.records]))
        ratio = means[0] / means[1]
        assert 0.8 <= ratio <= 1.25


class TestSelectLambda3:
    def test_single_point_grid(self):
        source, target = synth_pair(seed=11, amp_scale=0.8)
        best, rows = tr.select_lambda3(
            [0.3], tiny_model_config(), train_config(evidential="ce"),
            source, target, target)
        assert best == 0.3
        assert len(rows) == 1 and rows[0]["status"] == "ok"

    def test_rows_match_grid_and_tie_prefers_smaller(self):
        source, target = synth_pair(seed=12)
        grid = [0.2, 0.1]
        best, rows = tr.select_lambda3(
            grid, tiny_model_config(),
            train_config(evidential="ce", epochs=2), source, target, target)
        assert [row["lambda3"] for row in rows] == grid
        f1s = [row["target_f1"] for row in rows]
        if f1s[0] == f1s[1]:
            assert best == 0.1

    def test_empty_grid(self):
        source, target = synth_pair()
        with pytest.raises(ConfigError, match="must not be empty"):
            tr.select_lambda3([], tiny_model_config(),
                              train_config(evidential="ce"),
                              source, target, target)

    def test_no_evidential_head_rejected_before_training(self, monkeypatch):
        # lambda3 is inert without the evidential term: every grid value
        # would train the same model
        source, target = synth_pair()
        calls = []
        monkeypatch.setattr(tr, "train", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="needs an evidential head"):
            tr.select_lambda3([0.1, 0.5], tiny_model_config(),
                              train_config(evidential="none"),
                              source, target, target)
        assert calls == []

    def test_failed_point_marked_and_skipped(self):
        source, target = synth_pair(seed=13)
        poisoned = da.TimeSeriesBatch(
            values=source.values.copy(), labels=source.labels,
            num_classes=source.num_classes)

        calls = {"count": 0}
        real_train = tr.train

        def flaky_train(model_config, cfg, src, tgt):
            calls["count"] += 1
            if cfg.weights.lambda3 == 0.5:
                raise NumericalAbort("evidential", 0, 0)
            return real_train(model_config, cfg, src, tgt)

        tr_train = tr.train
        tr.train = flaky_train
        try:
            best, rows = tr.select_lambda3(
                [0.5, 0.1], tiny_model_config(),
                train_config(evidential="ce", epochs=2),
                poisoned, target, target)
        finally:
            tr.train = tr_train
        assert rows[0]["status"].startswith("failed")
        assert rows[0]["target_f1"] is None
        assert best == 0.1

    @pytest.mark.parametrize("num_classes,values,error,match", [
        (3, None, ConfigError, "validation batch has 3 classes, the source 2"),
        (2, np.zeros((4, 1, 16)), ShapeError,
         r"validation batch's \[C, T\] \(1, 16\) does not match the source's \(1, 32\)"),
    ])
    def test_mismatched_validation_rejected_before_training(
            self, monkeypatch, num_classes, values, error, match):
        source, target = synth_pair()
        values = target.values if values is None else values
        val = da.TimeSeriesBatch(values=values, labels=np.zeros(len(values)),
                                 num_classes=num_classes)
        calls = []
        monkeypatch.setattr(tr, "train", lambda *args: calls.append(args))
        with pytest.raises(error, match=match):
            tr.select_lambda3([0.1], tiny_model_config(),
                              train_config(evidential="ce"), source, target, val)
        assert calls == []

    def test_unlabeled_validation_rejected(self):
        source, target = synth_pair()
        unlabeled = da.TimeSeriesBatch(values=target.values, labels=None,
                                       num_classes=2)
        with pytest.raises(ConfigError, match="labeled target subset"):
            tr.select_lambda3([0.1], tiny_model_config(),
                              train_config(evidential="ce"),
                              source, target, unlabeled)


@pytest.mark.parametrize("count,size", [(5, 8), (24, 8), (7, 3)])
def test_cycled_rows_match_pool_and_pop(count, size):
    # the sampler the generator replaced, written out: refill a pool from the
    # next permutation whenever it runs dry and take rows off its end
    ref_rng, gen_rng = np.random.default_rng(4), np.random.default_rng(4)
    pool, want = [], []
    steps = -(-3 * count // size)  # batches that span three permutations
    for _ in range(steps):
        rows = []
        while len(rows) < size:
            if not pool:
                pool = list(ref_rng.permutation(count))
            rows.append(pool.pop())
        want.append(rows)
    cycled = tr._cycled_rows(count, gen_rng)
    assert [list(islice(cycled, size)) for _ in range(steps)] == want
    # both drew the same permutations, and no more
    assert gen_rng.bit_generator.state == ref_rng.bit_generator.state


def test_train_config_derived_switches():
    assert not train_config().aligns
    assert not train_config(method="ddc", weights=tr.LossWeights(lambda2=0.0)).aligns
    assert train_config(method="ddc", weights=tr.LossWeights(lambda2=1.0)).aligns
    assert not train_config(evidential="none", weights=tr.LossWeights()).evidential_on
    assert not train_config(evidential="ce", weights=tr.LossWeights(lambda3=0.0)).evidential_on
    assert train_config(evidential="ce", weights=tr.LossWeights()).evidential_on


def test_train_config_validation():
    with pytest.raises(ConfigError):
        train_config(epochs=0)
    with pytest.raises(ConfigError):
        train_config(batch_size=1)
    with pytest.raises(ConfigError):
        train_config(evidential="laplace")
    with pytest.raises(ConfigError):
        train_config(method="dann")
    with pytest.raises(ConfigError):
        tr.LossWeights(lambda1=-0.5)


@pytest.mark.parametrize("field,value", [
    ("learning_rate", -0.01), ("learning_rate", 0.0),
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("weight_decay", -1e-4), ("weight_decay", float("nan")),
    ("weight_decay", float("inf"))])
def test_train_config_rejects_bad_step_settings(field, value):
    with pytest.raises(ConfigError, match=field.replace("_", " ")):
        train_config(**{field: value})


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_train_config_rejects_a_seed_numpy_cannot_take(seed):
    with pytest.raises(ConfigError, match="seed"):
        train_config(seed=seed)


def test_default_weights_table():
    assert tr.default_weights("noadapt", "none").lambda2 == 0.0
    assert tr.default_weights("ddc", "ce").lambda2 == 1.0
    assert tr.default_weights("homm", "ce").lambda2 == pytest.approx(0.1)
    assert tr.default_weights("mmda", "ce").lambda2 == 0.5
    assert tr.default_weights("ddc", "none").lambda3 == 0.0


def test_log_serialization_round_trip(tmp_path):
    source, _ = synth_pair(seed=14)
    _, log = tr.train(tiny_model_config(), train_config(epochs=2),
                      source, None)
    path = tmp_path / "log.txt"
    log.save(path)
    text = path.read_text()
    assert text.startswith("seed=")
    assert "epoch=0" in text and "epoch=1" in text
    assert "wall" not in text  # timings stay out of the canonical form


def _first_node(root, op):
    stack, seen = [root], set()
    while stack:
        node = stack.pop()
        if node._op == op:
            return node
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    raise AssertionError(f"no {op!r} node on the tape")


def _block_bytes(settings, rows, num_scales):
    # what the block nodes of one forward keep: per block, the normalized
    # conv product [rows, width, t] in float64, the pooled output
    # [rows, width, t // 2] in float64 and two bool masks of that size
    total = 0
    for scale in range(num_scales + 1):
        length = settings.length >> scale
        for width, kernel in zip(settings.conv_widths, settings.kernel_sizes):
            t = length + 2 * (kernel // 2) - kernel + 1
            total += rows * width * (8 * t + (8 + 2) * (t // 2))
            length = t // 2
    return total


def _desk_step(num_scales, variant, method, evidential):
    # one desk-scale training step up to its loss, under tracemalloc: the
    # parameters, both forward outputs, the loss and the bytes the tape
    # holds before backward
    settings = ex.BenchmarkSettings()
    _, _, source, target = ex.benchmark_domains(settings, 0, 1.0)
    params = mo.init(mo.ModelConfig(
        channels=settings.channels, length=settings.length,
        num_classes=settings.num_classes, num_scales=num_scales,
        variant=variant, conv_widths=settings.conv_widths,
        kernel_sizes=settings.kernel_sizes, seed=0))
    config = tr.TrainConfig(batch_size=32, method=method, evidential=evidential,
                            weights=tr.default_weights(method, evidential))
    rng = np.random.default_rng(0)
    labels = LabelBatch.from_labels(source.labels[:32], settings.num_classes)
    tensors = mo.make_param_tensors(params, trainable=True)
    held_before = tracemalloc.get_traced_memory()[0]
    fwd_src = mo.forward(params, source.values[:32], mode="train", rng=rng,
                         param_tensors=tensors)
    fwd_tgt = mo.forward(params, target.values[:32], mode="train", rng=rng,
                         param_tensors=tensors)
    total, _ = tr.combined_loss(fwd_src, fwd_tgt, labels, config,
                                AnnealSchedule(epoch=0, horizon=10))
    held = tracemalloc.get_traced_memory()[0] - held_before
    return settings, params, tensors, fwd_src, total, held


@pytest.mark.parametrize("num_scales, variant, method, evidential",
                         [(0, None, "ddc", "ce"), (2, "M", "ddc", "none")])
def test_step_tape_holds_what_backward_reads(num_scales, variant, method,
                                             evidential):
    # before backward, the tape of a desk-scale step holds the block
    # nodes' arrays (for the source and the target forward) and a quarter
    # more for everything else: inputs, scale series, heads and loss.  A
    # block that also kept its raw conv product, one more full-size
    # buffer, or a padded copy of its input would not fit.
    tracemalloc.start()
    try:
        settings, *_, held = _desk_step(num_scales, variant, method, evidential)
    finally:
        tracemalloc.stop()
    assert held < 1.25 * 2 * _block_bytes(settings, 32, num_scales)


def test_backward_frees_the_step_graph():
    # one desk-scale ddc + evidential-CE step, its forward outputs and loss
    # still referenced: backward leaves behind only the parameter gradients
    # and the few arrays the caller holds, not the step's activations
    tracemalloc.start()
    try:
        settings, params, tensors, fwd_src, total, _ = _desk_step(0, None, "ddc", "ce")
        block_out = weakref.ref(_first_node(total, "conv_bn_pool_relu").data)
        tr.backward(total)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1e6
    assert block_out() is None  # so is the node, the array's only holder
    for name in params.trainable_names():
        assert np.all(np.isfinite(tensors[name].grad))
    assert fwd_src.final_logits.data.shape == (32, settings.num_classes)
