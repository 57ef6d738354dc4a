import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evits import data as da
from evits.errors import ConfigError, DomainError, FormatError


def small_batch(n=6, c=2, t=5, labeled=True, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, c, t)).astype(np.float32).astype(np.float64)
    labels = rng.integers(0, 3, n).astype(np.int32) if labeled else None
    return da.TimeSeriesBatch(values=values, labels=labels, num_classes=3)


class TestEvtsContainer:
    def test_labeled_round_trip_bit_exact(self, tmp_path):
        batch = small_batch()
        path = tmp_path / "x.evts"
        da.write_evts(batch, path)
        back = da.read_evts(path)
        assert np.array_equal(back.values, batch.values)
        assert np.array_equal(back.labels, batch.labels)
        assert back.num_classes == batch.num_classes

    def test_unlabeled_round_trip(self, tmp_path):
        batch = small_batch(labeled=False)
        path = tmp_path / "u.evts"
        da.write_evts(batch, path)
        assert da.read_evts(path).labels is None

    def test_rewrite_is_byte_identical(self, tmp_path):
        batch = small_batch(seed=3)
        a, b = tmp_path / "a.evts", tmp_path / "b.evts"
        da.write_evts(batch, a)
        da.write_evts(da.read_evts(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_finite_value_beyond_float32_names_its_row(self, tmp_path):
        batch = small_batch()
        batch.values[4, 1, 2] = -1e39
        batch.values[5, 0, 0] = 4e38
        path = tmp_path / "big.evts"
        with pytest.raises(DomainError, match="row 4 "):
            da.write_evts(batch, path)
        assert not path.exists()

    def test_nan_and_inf_are_stored_as_given(self, tmp_path):
        batch = small_batch()
        batch.values[1, 0, 3] = np.nan
        batch.values[2, 1, 0] = -np.inf
        batch.values[3, 0, 1] = np.finfo(np.float32).max  # the largest storable
        path = tmp_path / "special.evts"
        da.write_evts(batch, path)
        assert np.array_equal(da.read_evts(path).values, batch.values,
                              equal_nan=True)

    def test_corrupted_checksum(self, tmp_path):
        path = tmp_path / "c.evts"
        da.write_evts(small_batch(), path)
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0x55
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            da.read_evts(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.evts"
        da.write_evts(small_batch(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        body = bytes(raw[:-4])
        import zlib
        path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        with pytest.raises(FormatError, match="magic"):
            da.read_evts(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.evts"
        da.write_evts(small_batch(), path)
        (tmp_path / "trunc.evts").write_bytes(path.read_bytes()[:30])
        with pytest.raises(FormatError):
            da.read_evts(tmp_path / "trunc.evts")

    def test_error_carries_offset(self, tmp_path):
        path = tmp_path / "o.evts"
        da.write_evts(small_batch(), path)
        raw = bytearray(path.read_bytes())
        raw[-2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as failure:
            da.read_evts(path)
        assert failure.value.offset is not None

    def test_label_outside_classes_is_a_format_error(self, tmp_path):
        import zlib
        path = tmp_path / "l.evts"
        da.write_evts(small_batch(), path)
        body = bytearray(path.read_bytes()[:-4])
        for label, slot in ((3, 2), (-1, 5)):
            at = len(body) - 4 * 6 + 4 * slot  # the six int32 labels end the body
            edited = bytearray(body)
            edited[at:at + 4] = label.to_bytes(4, "little", signed=True)
            path.write_bytes(bytes(edited) + zlib.crc32(edited).to_bytes(4, "little"))
            with pytest.raises(FormatError, match="outside") as failure:
                da.read_evts(path)
            assert failure.value.offset == at

    def test_every_bit_flip_and_truncation_under_valid_checksum(self, tmp_path):
        # each single-bit flip and each shorter length, CRC recomputed: the
        # file loads, or it fails with a FormatError at an offset
        import zlib
        path = tmp_path / "s.evts"
        da.write_evts(small_batch(), path)
        body = path.read_bytes()[:-4]
        flips = []
        for bit in range(8 * len(body)):
            flipped = bytearray(body)
            flipped[bit // 8] ^= 1 << (bit % 8)
            flips.append(bytes(flipped))
        for variant in flips + [body[:length] for length in range(len(body))]:
            path.write_bytes(variant + zlib.crc32(variant).to_bytes(4, "little"))
            try:
                with np.errstate(invalid="ignore"):  # a flipped float may be a NaN
                    da.read_evts(path)
            except FormatError as exc:
                assert exc.offset is not None, variant

    @given(st.integers(1, 8), st.integers(1, 3), st.integers(2, 9),
           st.booleans(), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, n, c, t, labeled, seed):
        import os
        import tempfile
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, c, t)).astype(np.float32)
        labels = rng.integers(0, 4, n).astype(np.int32) if labeled else None
        batch = da.TimeSeriesBatch(values=values.astype(np.float64),
                                   labels=labels, num_classes=4)
        handle, path = tempfile.mkstemp(suffix=".evts")
        os.close(handle)
        try:
            da.write_evts(batch, path)
            back = da.read_evts(path)
        finally:
            os.unlink(path)
        assert np.array_equal(back.values, batch.values)


class TestSplit:
    def test_stratified_balanced(self):
        labels = np.repeat(np.arange(2), 50).astype(np.int32)
        batch = da.TimeSeriesBatch(values=np.zeros((100, 1, 4)),
                                   labels=labels, num_classes=2)
        train, test = da.split(batch, 0.7, seed=0)
        assert len(train) == 70 and len(test) == 30
        assert np.bincount(train.labels).tolist() == [35, 35]
        assert np.bincount(test.labels).tolist() == [15, 15]

    def test_deterministic(self):
        batch = small_batch(n=40, seed=1)
        a_train, a_test = da.split(batch, 0.6, seed=5)
        b_train, b_test = da.split(batch, 0.6, seed=5)
        assert np.array_equal(a_train.values, b_train.values)
        assert np.array_equal(a_test.values, b_test.values)

    def test_union_is_input_multiset(self):
        batch = small_batch(n=31, seed=2)
        train, test = da.split(batch, 0.5, seed=9)
        combined = np.sort(
            np.r_[train.values.sum(axis=(1, 2)), test.values.sum(axis=(1, 2))])
        assert np.allclose(combined, np.sort(batch.values.sum(axis=(1, 2))))
        assert len(train) + len(test) == len(batch)

    def test_singleton_class_goes_to_train_with_warning(self):
        batch = da.TimeSeriesBatch(
            values=np.zeros((3, 1, 2)),
            labels=np.array([0, 0, 1], np.int32), num_classes=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            train, test = da.split(batch, 0.5, seed=0)
        assert any("single sample" in str(w.message) for w in caught)
        assert 1 in train.labels and 1 not in test.labels

    def test_stratification_within_one_sample(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, 91).astype(np.int32)
        batch = da.TimeSeriesBatch(values=np.zeros((91, 1, 2)),
                                   labels=labels, num_classes=3)
        train, _ = da.split(batch, 0.65, seed=1)
        for c in range(3):
            want = 0.65 * (labels == c).sum()
            got = (train.labels == c).sum()
            assert abs(got - want) <= 1.0

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            da.split(small_batch(), 1.0, seed=0)


class TestSynth:
    def test_zero_shift_is_bit_identical(self):
        spec = da.SynthSpec(seed=11)
        src = da.synth_generate(spec, "source")
        tgt = da.synth_generate(spec, "target")
        assert np.array_equal(src.values, tgt.values)
        assert np.array_equal(src.labels, tgt.labels)

    def test_deterministic_per_seed_and_domain(self):
        spec = da.SynthSpec(seed=4, amp_scale=0.8, extra_noise=0.2)
        a = da.synth_generate(spec, "target")
        b = da.synth_generate(spec, "target")
        assert np.array_equal(a.values, b.values)

    def test_balanced_labels(self):
        spec = da.SynthSpec(num_classes=5, n_per_class=7, seed=0)
        batch = da.synth_generate(spec, "source")
        assert np.bincount(batch.labels).tolist() == [7] * 5

    def test_shift_actually_shifts(self):
        spec = da.SynthSpec(seed=5, amp_scale=0.6, freq_offset=1.0,
                            extra_noise=0.5)
        src = da.synth_generate(spec, "source")
        tgt = da.synth_generate(spec, "target")
        assert not np.array_equal(src.values, tgt.values)

    def test_bad_domain(self):
        with pytest.raises(ConfigError):
            da.synth_generate(da.SynthSpec(), "middle")

    def test_mmd_grows_with_amplitude_shift(self):
        from evits import alignment as al
        means = []
        for amp in (1.0, 1.5, 2.0):
            values = []
            for seed in range(10):
                spec = da.SynthSpec(seed=seed, amp_scale=amp,
                                    n_per_class=12, length=64)
                src = da.synth_generate(spec, "source")
                tgt = da.synth_generate(spec, "target")
                flat_src = src.values.reshape(len(src), -1)
                flat_tgt = tgt.values.reshape(len(tgt), -1)
                values.append(al.mmd_rbf(flat_src, flat_tgt))
            means.append(np.mean(values))
        assert means[0] < means[1] < means[2]


def test_validation_errors():
    with pytest.raises(DomainError):
        da.TimeSeriesBatch(values=np.zeros((2, 3)), labels=None, num_classes=0)
    with pytest.raises(DomainError):
        da.TimeSeriesBatch(values=np.zeros((2, 1, 3)),
                           labels=np.array([0, 5], np.int32), num_classes=3)
    with pytest.raises(ConfigError):
        da.SynthSpec(num_classes=1)
    with pytest.raises(ConfigError):
        da.SynthSpec(amp_scale=float("inf"))


@pytest.mark.parametrize("field,values", [
    ("class_freqs", [np.nan, 1.0, 2.0]), ("class_freqs", [1.0, np.inf, 2.0]),
    ("class_amps", [1.0, 2.0, -np.inf]), ("class_amps", [np.nan, 1.0, 2.0])])
def test_synth_spec_rejects_non_finite_class_values(field, values):
    with pytest.raises(ConfigError, match="must be finite"):
        da.SynthSpec(num_classes=3, **{field: values})


@pytest.mark.parametrize("field", ["noise_sigma", "extra_noise"])
def test_synth_spec_rejects_negative_noise(field):
    with pytest.raises(ConfigError, match=field):
        da.SynthSpec(**{field: -1.0})
    assert getattr(da.SynthSpec(**{field: 0.0}), field) == 0.0


def test_synth_spec_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        da.SynthSpec(seed=-1)
