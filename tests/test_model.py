import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from evits import checks
from evits import model as mo
from evits import tensor as tz
from evits.errors import (ConfigError, DomainError, FormatError, ShapeError,
                          ToolkitError)
from evits.evidential import evidence_to_alpha, predict_mean
from evits.tensor import Tensor


def config(**overrides):
    base = dict(channels=3, length=128, num_classes=6, num_scales=2,
                variant="M", conv_widths=(64, 64, 64), kernel_sizes=(8, 5, 3),
                seed=0)
    base.update(overrides)
    return mo.ModelConfig(**base)


def tiny_config(**overrides):
    base = dict(channels=2, length=32, num_classes=3, num_scales=1,
                variant="A", conv_widths=(4, 4, 4), kernel_sizes=(5, 3, 3),
                seed=1)
    base.update(overrides)
    return mo.ModelConfig(**base)


def tiny_header(**overrides):
    return json.dumps({"config": {**tiny_config().to_dict(), **overrides}}).encode()


class TestInit:
    def test_same_seed_bit_identical(self):
        a, b = mo.init(config()), mo.init(config())
        assert a.arrays.keys() == b.arrays.keys()
        for name in a.arrays:
            assert np.array_equal(a.arrays[name], b.arrays[name])

    def test_different_seed_differs(self):
        a, b = mo.init(config()), mo.init(config(seed=7))
        assert any(not np.array_equal(a.arrays[n], b.arrays[n])
                   for n in a.arrays)

    def test_parameter_count_golden(self):
        # hand formula for the default config:
        #   per scale: 64*3*8 + 2*64 + 64*64*5 + 2*64 + 64*64*3 + 2*64 = 34688
        #   3 scales + final/evidence heads (192*6+6 each) + 3 aux (64*6+6)
        params = mo.init(config())
        assert sum(params.arrays[n].size
                   for n in params.trainable_names()) == 107550

    def test_normalization_init(self):
        params = mo.init(config())
        assert np.all(params.arrays["scale0.block0.bn_gamma"] == 1.0)
        assert np.all(params.arrays["scale0.block0.bn_beta"] == 0.0)
        assert np.all(params.arrays["scale0.block0.bn_running_var"] == 1.0)

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            config(num_classes=1)
        with pytest.raises(ConfigError):
            config(length=2, num_scales=3)
        with pytest.raises(ConfigError):
            config(variant="Z")
        for scales in (0, 1):  # an unknown variant is refused at any scale count
            with pytest.raises(ConfigError, match="'Q'"):
                config(num_scales=scales, variant="Q")
        with pytest.raises(ConfigError):
            config(num_scales=1, variant=None)

    def test_default_variant_builds_at_zero_scales(self):
        params = mo.init(config(num_scales=0))  # variant keeps its default "M"
        assert params.config.variant == "M"
        assert not any(name.startswith(("down", "aux")) for name in params.arrays)
        with pytest.raises(ConfigError):
            # scale-2 extent collapses below pooling width
            config(length=16, num_scales=2)


class TestForward:
    def test_shape_contract(self):
        params = mo.init(config())
        x = np.random.default_rng(0).standard_normal((4, 3, 128))
        out = mo.forward(params, x, mode="eval")
        assert out.final_logits.shape == (4, 6)
        assert out.evidence.shape == (4, 6)
        assert len(out.aux_logits) == 3
        assert out.mixed.shape == (4, 192)
        assert all(f.shape == (4, 64) for f in out.per_scale_features)

    def test_eval_deterministic(self):
        params = mo.init(tiny_config())
        x = np.random.default_rng(1).standard_normal((3, 2, 32))
        a = mo.forward(params, x, mode="eval")
        b = mo.forward(params, x, mode="eval")
        assert np.array_equal(a.final_logits.data, b.final_logits.data)
        assert np.array_equal(a.evidence.data, b.evidence.data)

    def test_zero_input_zero_heads_uniform_mean(self):
        params = mo.init(tiny_config())
        params.arrays["evidence.w"][:] = 0.0
        params.arrays["evidence.b"][:] = 0.0
        out = mo.forward(params, np.zeros((2, 2, 32)), mode="eval")
        probs = predict_mean(evidence_to_alpha(out.evidence)).data
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_evidence_non_negative(self):
        params = mo.init(tiny_config())
        x = np.random.default_rng(2).standard_normal((5, 2, 32)) * 10.0
        out = mo.forward(params, x, mode="eval")
        assert np.all(out.evidence.data >= 0.0)

    def test_shape_mismatch(self):
        params = mo.init(tiny_config())
        with pytest.raises(ShapeError):
            mo.forward(params, np.zeros((2, 2, 16)), mode="eval")

    def test_eval_names_the_first_non_finite_row(self):
        params = mo.init(tiny_config())
        x = np.zeros((5, 2, 32))
        x[3, 1, 4] = np.nan
        with pytest.raises(DomainError, match="input row 3 holds NaN or inf"):
            mo.forward(params, x, mode="eval")

    def test_bad_mode(self):
        params = mo.init(tiny_config())
        with pytest.raises(ConfigError):
            mo.forward(params, np.zeros((2, 2, 32)), mode="predict")

    def test_argmax_mean_matches_argmax_alpha(self):
        params = mo.init(tiny_config())
        x = np.random.default_rng(3).standard_normal((8, 2, 32))
        out = mo.forward(params, x, mode="eval")
        batch = evidence_to_alpha(out.evidence)
        probs = predict_mean(batch).data
        assert np.array_equal(probs.argmax(axis=1),
                              batch.alpha.data.argmax(axis=1))

    def test_train_mode_updates_running_stats(self):
        params = mo.init(tiny_config())
        before = params.arrays["scale0.block0.bn_running_mean"].copy()
        x = np.random.default_rng(4).standard_normal((6, 2, 32)) + 2.0
        mo.forward(params, x, mode="train")
        after = params.arrays["scale0.block0.bn_running_mean"]
        assert not np.array_equal(before, after)

    def test_eval_batchnorm_fold_matches_unfolded_reference(self):
        # random affine maps, one gamma negative: eval forward (batch-norm
        # scale folded into the conv, pooling before the bias) against
        # conv -> batch-norm -> pool -> relu -> heads written out here; in
        # the second input row 0 is constant, so away from the padded edges
        # every block's pairs tie
        cfg = tiny_config(num_scales=0, variant=None)
        params, rng = mo.init(cfg), np.random.default_rng(11)
        for block in range(3):
            bn = {stat: params.arrays[f"scale0.block{block}.bn_{stat}"] for stat in
                  ("gamma", "beta", "running_mean", "running_var")}
            bn["gamma"][:] = rng.uniform(0.5, 2.0, 4) * (1, -1, 1, 1)
            bn["beta"][:] = rng.standard_normal(4)
            bn["running_mean"][:] = rng.standard_normal(4)
            bn["running_var"][:] = rng.uniform(0.2, 3.0, 4)
        random = rng.standard_normal((7, 2, 32))
        tied = random.copy()
        tied[0] = 0.75
        for x in (random, tied):
            h = x
            for block, k in enumerate(cfg.kernel_sizes):
                a = {n: params.arrays[f"scale0.block{block}.{n}"] for n in
                     ("conv_w", "bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var")}
                h = tz.conv1d(Tensor(h), Tensor(a["conv_w"]), 1, k // 2).data
                h = ((h - a["bn_running_mean"][:, None])
                     / np.sqrt(a["bn_running_var"][:, None] + 1e-5)
                     * a["bn_gamma"][:, None] + a["bn_beta"][:, None])
                t = h.shape[2] // 2
                h = np.maximum(np.maximum(h[:, :, 0:2 * t:2], h[:, :, 1:2 * t:2]), 0.0)
            feat = h.mean(axis=2)
            logits = feat @ params.arrays["final.w"] + params.arrays["final.b"]
            evidence = np.logaddexp(0.0, feat @ params.arrays["evidence.w"]
                                    + params.arrays["evidence.b"])
            out = mo.forward(params, x, mode="eval")
            np.testing.assert_allclose(out.final_logits.data, logits, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(out.evidence.data, evidence, rtol=1e-12, atol=1e-12)
            assert np.array_equal(mo.predict(params, x, "softmax")[0], logits.argmax(axis=1))
            assert np.array_equal(mo.predict(params, x, "evidential")[0],
                                  evidence.argmax(axis=1))

    def test_eval_mode_leaves_running_stats(self):
        params = mo.init(tiny_config())
        x = np.random.default_rng(4).standard_normal((6, 2, 32)) + 2.0
        mo.forward(params, x, mode="train")  # move them off their init values
        running = {name: arr.copy() for name, arr in params.arrays.items()
                   if name.endswith(("running_mean", "running_var"))}
        assert len(running) == 12  # 2 scales x 3 blocks x (mean, var)
        mo.forward(params, x, mode="eval")
        for name, arr in running.items():
            assert np.array_equal(arr, params.arrays[name])


class TestPredict:
    def test_heads_disagree_allowed_but_shapes_match(self):
        params = mo.init(tiny_config())
        x = np.random.default_rng(5).standard_normal((7, 2, 32))
        pred_e, probs_e, u = mo.predict(params, x, head="evidential")
        pred_s, probs_s, _ = mo.predict(params, x, head="softmax")
        assert probs_e.shape == probs_s.shape == (7, 3)
        np.testing.assert_allclose(probs_e.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(probs_s.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((u > 0.0) & (u <= 1.0))

    def test_softmax_head_is_exp_of_log_softmax(self):
        params = mo.init(tiny_config())
        out = mo.forward(params, np.random.default_rng(6).standard_normal((9, 2, 32)),
                         mode="eval")
        for scale in (1.0, 40.0):
            logits = out.final_logits.data * scale
            shift = logits - logits.max(axis=1, keepdims=True)
            log_probs = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
            scaled = dataclasses.replace(out, final_logits=Tensor(logits))
            pred, probs, _ = mo.head_outputs(params, scaled, head="softmax")
            assert np.array_equal(probs, np.exp(log_probs))
            assert np.array_equal(pred, logits.argmax(axis=1))
        logits = out.final_logits.data.copy()
        logits[3, 1] = np.nan
        with pytest.raises(DomainError):
            mo.head_outputs(params, dataclasses.replace(out, final_logits=Tensor(logits)),
                            head="softmax")

    def test_unknown_head(self):
        params = mo.init(tiny_config())
        with pytest.raises(ConfigError):
            mo.predict(params, np.zeros((1, 2, 32)), head="both")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_names_the_first_row(self, bad):
        params = mo.init(tiny_config())
        x = np.zeros((5, 2, 32))
        x[3, 0, 0] = x[2, 1, 31] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before any op warns
            with pytest.raises(DomainError, match="input row 2 holds NaN or inf"):
                mo.predict(params, x)


def _forward_fields(out):
    return {"features": [f.data for f in out.per_scale_features], "mixed": out.mixed.data,
            "aux": [a.data for a in out.aux_logits], "final": out.final_logits.data,
            "evidence": out.evidence.data}


class TestEvalChunks:
    # eval rows are independent, so the chunked forward must equal one pass
    # over all rows (the chunk length raised past the row count) bit for bit
    C = mo._EVAL_ROWS
    ROWS = (1, C - 1, C, C + 1, 3 * C + 5)

    @pytest.mark.parametrize("variant", [None, "M", "A", "R", "L", "LM"])
    def test_chunked_eval_is_exact(self, variant, monkeypatch):
        cfg = tiny_config(num_scales=0 if variant is None else 2, variant=variant)
        params, rng = mo.init(cfg), np.random.default_rng(21)
        mo.forward(params, rng.standard_normal((6, 2, 32)) + 1.0, mode="train",
                   rng=np.random.default_rng(0))  # move the running stats
        x = rng.standard_normal((max(self.ROWS), 2, 32))
        per_row = [mo.forward(params, x[i:i + 1], mode="eval") for i in range(len(x))]
        for n in self.ROWS:
            chunked = _forward_fields(mo.forward(params, x[:n], mode="eval"))
            preds = [mo.predict(params, x[:n], head) for head in ("evidential", "softmax")]
            with monkeypatch.context() as m:
                m.setattr(mo, "_EVAL_ROWS", len(x))
                whole = _forward_fields(mo.forward(params, x[:n], mode="eval"))
                whole_preds = [mo.predict(params, x[:n], head)
                               for head in ("evidential", "softmax")]
            assert len(chunked["features"]) == len(whole["features"]) == cfg.num_scales + 1
            assert len(chunked["aux"]) == len(whole["aux"]) == (cfg.num_scales + 1) * bool(variant)
            for name in ("features", "aux"):
                assert all(np.array_equal(a, b) for a, b in zip(chunked[name], whole[name]))
            for name in ("mixed", "final", "evidence"):
                assert np.array_equal(chunked[name], whole[name]), name
            for pred, whole_pred in zip(preds, whole_preds):
                assert all(np.array_equal(a, b) for a, b in zip(pred, whole_pred))
            # the features are also each row's own forward, stacked (the
            # heads are not: a one-row product may take another BLAS path)
            assert np.array_equal(chunked["mixed"],
                                  np.concatenate([o.mixed.data for o in per_row[:n]]))
            for scale, feat in enumerate(chunked["features"]):
                assert np.array_equal(feat, np.concatenate(
                    [o.per_scale_features[scale].data for o in per_row[:n]]))

    def test_empty_batch(self):
        out = mo.forward(mo.init(tiny_config()), np.zeros((0, 2, 32)), mode="eval")
        assert out.mixed.shape == (0, 8) and out.evidence.shape == (0, 3)

    def test_eval_memory_does_not_grow_with_rows(self):
        # traced allocation peak of one eval forward at desk scale: one
        # pass over 8 C rows held about 8x the peak of C rows
        cfg = mo.ModelConfig(channels=2, length=128, num_classes=4, num_scales=2,
                             variant="M", conv_widths=(14, 14, 14))
        params = mo.init(cfg)
        x = np.random.default_rng(3).standard_normal((8 * self.C, 2, 128))
        peaks = []
        for n in (self.C, 8 * self.C):
            tracemalloc.start()
            try:
                mo.forward(params, x[:n], mode="eval")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        params = mo.init(config())
        params.train_meta = {"primary_head": "evidential", "method": "ddc"}
        path = tmp_path / "model.evtm"
        mo.save(params, path)
        back = mo.load(path)
        assert back.config == params.config
        assert back.train_meta == params.train_meta
        assert back.arrays.keys() == params.arrays.keys()
        for name in params.arrays:
            assert np.array_equal(back.arrays[name], params.arrays[name])

    def test_save_load_save_identical_bytes(self, tmp_path):
        params = mo.init(tiny_config())
        a, b = tmp_path / "a.evtm", tmp_path / "b.evtm"
        mo.save(params, a)
        mo.save(mo.load(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "m.evtm"
        mo.save(mo.init(tiny_config()), path)
        (tmp_path / "t.evtm").write_bytes(path.read_bytes()[:50])
        with pytest.raises(FormatError):
            mo.load(tmp_path / "t.evtm")

    def test_wrong_magic(self, tmp_path):
        import zlib
        path = tmp_path / "m.evtm"
        mo.save(mo.init(tiny_config()), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        body = bytes(raw[:-4])
        path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        with pytest.raises(FormatError, match="magic"):
            mo.load(path)

    @pytest.mark.parametrize("header", [
        b"\xff{not json",
        b'{"train_meta": {}}',
        b'{"config": {"channels": 2}}',
        pytest.param(tiny_header(conv_widths=[], kernel_sizes=[]), id="no-blocks"),
        pytest.param(tiny_header(num_scales=10 ** 12), id="huge-num_scales"),
        pytest.param(tiny_header(num_scales=0, variant="Q"), id="unknown-variant"),
        # shapes far beyond the bytes that follow: refused before any allocation
        pytest.param(tiny_header(conv_widths=[2 ** 30, 4, 4]), id="huge-conv_widths"),
        pytest.param(tiny_header(channels=2 ** 40), id="huge-channels"),
        pytest.param(tiny_header(num_classes=2 ** 40), id="huge-num_classes"),
        # a train_meta that is not an object would load and fail in resolve_head
        *(pytest.param(json.dumps({"config": tiny_config().to_dict(), "train_meta": meta})
                       .encode(), id=f"train_meta-{type(meta).__name__}")
          for meta in ([["primary_head", "softmax"]], "evidential", 3)),
    ])
    def test_bad_header_under_valid_checksum(self, tmp_path, header):
        import zlib
        path = tmp_path / "m.evtm"
        mo.save(mo.init(tiny_config()), path)
        raw = path.read_bytes()
        end = 12 + int.from_bytes(raw[8:12], "little")  # magic, version, length
        body = raw[:8] + len(header).to_bytes(4, "little") + header + raw[end:-4]
        path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        with pytest.raises(FormatError, match="header") as failure:
            mo.load(path)
        assert failure.value.offset == 12

    @pytest.mark.parametrize("edit", ["missing", "extra", "misshapen"])
    def test_arrays_must_match_the_config(self, tmp_path, edit):
        params = mo.init(tiny_config())
        if edit == "missing":
            del params.arrays["final.b"]
        elif edit == "extra":
            params.arrays["final.c"] = np.zeros(3)
        else:
            params.arrays["final.b"] = np.zeros(4)
        path = tmp_path / "m.evtm"
        mo.save(params, path)
        with pytest.raises(FormatError) as failure:
            mo.load(path)
        assert failure.value.offset is not None

    def test_every_bit_flip_under_valid_checksum(self, tmp_path):
        # each single-bit flip, CRC recomputed: the file fails with a
        # FormatError at an offset, or it loads and predicts on a valid
        # batch (or refuses it with a ToolkitError), never a bare exception
        import zlib
        path = tmp_path / "m.evtm"
        cfg = tiny_config(channels=1, length=8, num_classes=2, variant="L",
                          conv_widths=(2,), kernel_sizes=(3,))
        mo.save(mo.init(cfg), path)
        batch = np.random.default_rng(0).standard_normal((3, 1, 8))
        body = path.read_bytes()[:-4]
        for bit in range(8 * len(body)):
            flipped = bytearray(body)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped)
                             + zlib.crc32(flipped).to_bytes(4, "little"))
            try:
                params = mo.load(path)
            except FormatError as exc:
                assert exc.offset is not None, bit
                continue
            try:
                with np.errstate(all="ignore"):
                    mo.predict(params, batch)
            except ToolkitError:
                pass

    def test_corrupted_payload(self, tmp_path):
        path = tmp_path / "m.evtm"
        mo.save(mo.init(tiny_config()), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            mo.load(path)


def test_end_to_end_tiny_gradcheck():
    assert checks.end_to_end_suite(seed=0) < 1e-3
