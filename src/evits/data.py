"""Dataset container, stratified splitting and the seeded
synthetic domain-shift generator.

Storage is 32-bit (files stay small); computation is 64-bit.  The EVTS
container is bit-exact on round trip:

    magic "EVTS" | u32 version | u32 N | u32 C | u32 T | u32 K
    | u8 label flag | float32-LE values (row-major) | [int32-LE labels]
    | u32 CRC32 of everything before it

The magic/version/CRC32 frame and its u32 fields are shared with the
EVTM model container.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, FormatError

EVTS_MAGIC = b"EVTS"
EVTS_VERSION = 1

DOMAINS = ("source", "target")


@dataclass
class TimeSeriesBatch:
    """Windows of multichannel series with optional integer labels."""

    values: np.ndarray  # [N, C, T] float64
    labels: np.ndarray | None  # [N] int32 or None
    num_classes: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise DomainError("values must be [N, C, T]")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int32).reshape(-1)
            if len(self.labels) != len(self.values):
                raise DomainError("labels length must match sample count")
            if self.labels.size and (
                    self.labels.min() < 0 or self.labels.max() >= self.num_classes):
                raise DomainError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self):
        return len(self.values)

    @property
    def labeled(self):
        return self.labels is not None

    def subset(self, indices):
        indices = np.asarray(indices, dtype=np.int64)
        labels = self.labels[indices] if self.labeled else None
        return TimeSeriesBatch(values=self.values[indices], labels=labels,
                               num_classes=self.num_classes)


def pack_u32(value):
    return int(value).to_bytes(4, "little")


def write_framed(path, magic, version, chunks):
    """Write magic | u32 version | chunks | u32 CRC32 of everything before."""
    payload = b"".join([magic, pack_u32(version), *chunks])
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(pack_u32(zlib.crc32(payload)))


class FrameReader:
    """Reads a `write_framed` file back field by field, once its CRC32,
    magic and version check out; every fault is a FormatError at an offset."""

    def __init__(self, path, magic, version):
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < 4:
            raise FormatError("file too short for a checksum", offset=len(data))
        self.data, self.offset = data[:-4], 0
        if zlib.crc32(self.data) != int.from_bytes(data[-4:], "little"):
            raise FormatError("checksum mismatch", offset=len(self.data))
        name = magic.decode()
        if self.take(4, "magic") != magic:
            raise FormatError(f"bad magic; not an {name} file", offset=0)
        found = self.u32("version")
        if found != version:
            raise FormatError(f"unsupported {name} version {found}", offset=4)

    def take(self, count, what):
        if self.offset + count > len(self.data):
            raise FormatError(f"truncated file while reading {what}",
                              offset=self.offset)
        chunk = self.data[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def u32(self, what):
        return int.from_bytes(self.take(4, what), "little")


def write_evts(batch, path):
    n, c, t = batch.values.shape
    chunks = [pack_u32(n), pack_u32(c), pack_u32(t),
              pack_u32(batch.num_classes),
              (b"\x01" if batch.labeled else b"\x00"),
              np.ascontiguousarray(batch.values, dtype="<f4").tobytes()]
    if batch.labeled:
        chunks.append(np.ascontiguousarray(batch.labels, dtype="<i4").tobytes())
    write_framed(path, EVTS_MAGIC, EVTS_VERSION, chunks)


def read_evts(path):
    r = FrameReader(path, EVTS_MAGIC, EVTS_VERSION)
    n, c, t, k = (r.u32(what) for what in "NCTK")
    flag = r.take(1, "label flag")[0]
    if flag not in (0, 1):
        raise FormatError(f"bad label flag {flag}", offset=24)
    body, offset = r.data, r.offset
    values_bytes = 4 * n * c * t
    expected = offset + values_bytes + (4 * n if flag else 0)
    if len(body) != expected:
        raise FormatError(
            f"declared {expected + 4} bytes but file holds {len(body) + 4}",
            offset=min(len(body), expected))
    values = np.frombuffer(body, dtype="<f4", count=n * c * t, offset=offset)
    values = values.reshape(n, c, t).astype(np.float64)
    labels = None
    if flag:
        labels = np.frombuffer(body, dtype="<i4", count=n,
                               offset=offset + values_bytes).copy()
        bad = np.flatnonzero((labels < 0) | (labels >= k))
        if bad.size:
            raise FormatError(f"label {labels[bad[0]]} outside [0, {k})",
                              offset=offset + values_bytes + 4 * int(bad[0]))
    return TimeSeriesBatch(values=values, labels=labels, num_classes=k)


def split(batch, train_fraction, seed):
    """Seeded disjoint-exhaustive split, stratified by label when present.

    A class with a single sample goes to the training side with a warning.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5117]))
    n = len(batch)
    if not batch.labeled:
        order = rng.permutation(n)
        cut = int(round(train_fraction * n))
        return batch.subset(np.sort(order[:cut])), batch.subset(np.sort(order[cut:]))

    train_idx, test_idx = [], []
    for c in range(batch.num_classes):
        members = np.flatnonzero(batch.labels == c)
        if members.size == 0:
            continue
        if members.size == 1:
            warnings.warn(
                f"class {c} has a single sample; keeping it in train",
                stacklevel=2)
            train_idx.extend(members.tolist())
            continue
        shuffled = members[rng.permutation(members.size)]
        cut = int(round(train_fraction * members.size))
        cut = min(max(cut, 1), members.size - 1)
        train_idx.extend(shuffled[:cut].tolist())
        test_idx.extend(shuffled[cut:].tolist())
    return batch.subset(np.sort(train_idx)), batch.subset(np.sort(test_idx))


@dataclass
class SynthSpec:
    """Recipe for the sinusoid-mixture stand-in task.

    Each class c mixes two sinusoids (class-specific base frequency and
    amplitude, random phase per sample/channel) plus Gaussian noise.  The
    target domain scales amplitudes, offsets frequencies and adds extra
    noise; with all three at their neutral values the two domains are
    bit-identical for the same seed.
    """

    num_classes: int = 4
    channels: int = 2
    length: int = 128
    n_per_class: int = 50
    noise_sigma: float = 0.3
    amp_scale: float = 1.0
    freq_offset: float = 0.0
    extra_noise: float = 0.0
    seed: int = 0
    class_freqs: list = field(default_factory=list)
    class_amps: list = field(default_factory=list)

    def __post_init__(self):
        if self.num_classes < 2 or self.channels < 1 or self.length < 2:
            raise ConfigError("synthetic spec needs K >= 2, C >= 1, T >= 2")
        if self.n_per_class < 1:
            raise ConfigError("n_per_class must be positive")
        for value in (self.amp_scale, self.freq_offset, self.extra_noise,
                      self.noise_sigma):
            if not np.isfinite(value):
                raise ConfigError("shift and noise parameters must be finite")
        if not self.class_freqs:
            self.class_freqs = [2.0 + 3.0 * c for c in range(self.num_classes)]
        if not self.class_amps:
            self.class_amps = [1.0 + 0.15 * c for c in range(self.num_classes)]
        if (len(self.class_freqs) != self.num_classes
                or len(self.class_amps) != self.num_classes):
            raise ConfigError("need one frequency and amplitude per class")


def synth_generate(spec, domain):
    """Deterministic synthetic batch for one domain tag.

    Both domains consume the same random stream in the same order, so the
    zero-shift target is bit-identical to the source.
    """
    if domain not in DOMAINS:
        raise ConfigError(f"domain must be one of {DOMAINS}")
    rng = np.random.default_rng(np.random.SeedSequence([int(spec.seed), 0xD474]))
    n = spec.num_classes * spec.n_per_class
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int32),
                       spec.n_per_class)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, spec.channels, 2))
    noise = rng.standard_normal((n, spec.channels, spec.length))
    extra = rng.standard_normal((n, spec.channels, spec.length))

    shifted = domain == "target"
    amp = spec.amp_scale if shifted else 1.0
    freq_off = spec.freq_offset if shifted else 0.0
    extra_sigma = spec.extra_noise if shifted else 0.0

    grid = np.arange(spec.length) / spec.length
    values = np.empty((n, spec.channels, spec.length))
    for c in range(spec.num_classes):
        rows = slice(c * spec.n_per_class, (c + 1) * spec.n_per_class)
        base_amp = spec.class_amps[c]
        for ch in range(spec.channels):
            freq = (spec.class_freqs[c] + freq_off) * (1.0 + 0.35 * ch)
            angle1 = 2.0 * np.pi * freq * grid[None, :] + phases[rows, ch, 0][:, None]
            angle2 = (2.0 * np.pi * 2.3 * freq * grid[None, :]
                      + phases[rows, ch, 1][:, None])
            values[rows, ch] = amp * (base_amp * np.sin(angle1)
                                      + 0.5 * base_amp * np.sin(angle2))
    values += spec.noise_sigma * noise + extra_sigma * extra
    return TimeSeriesBatch(values=values, labels=labels,
                           num_classes=spec.num_classes)
