"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured values (run with -s or look at captured stdout).

The desk-scale UDA study (criteria 5 and 6) trains 70 small models once
per session via a shared fixture; `experiments.verdicts` works out every
sub-claim, the test prints each one, then fails listing all that failed.
"""

import math
import time

import numpy as np
import pytest

from evits import checks
from evits import cli
from evits import data as da
from evits import evidential as ev
from evits import experiments as ex
from evits import metrics as me
from evits.tensor import Tensor


def _report(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS [{detail}]")


def test_criterion_1_closed_form_oracles():
    started = time.perf_counter()

    def dirichlet(rows):
        return ev.evidence_to_alpha(np.asarray(rows, float) - 1.0)

    y0 = ev.LabelBatch.from_labels([0], 2)
    assert ev.loss_ce(dirichlet([[2, 1]]), y0).data[0] == \
        pytest.approx(0.5, abs=1e-9)
    assert ev.loss_ml(dirichlet([[1, 1]]), y0).data[0] == \
        pytest.approx(math.log(2.0), abs=1e-9)
    assert ev.loss_mse(dirichlet([[1, 1]]), y0).data[0] == \
        pytest.approx(2.0 / 3.0, abs=1e-9)
    assert ev.kl_to_uniform(Tensor([[2.0, 1.0]])).data[0] == \
        pytest.approx(math.log(2.0) - 0.5, abs=1e-9)
    for epoch, want in ((0, 0.0), (5, 0.5), (20, 1.0)):
        assert ev.AnnealSchedule(epoch=epoch).coefficient() == \
            pytest.approx(want, abs=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "closed-form oracles", f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_monte_carlo_integral_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20240)
    draws_per_case = 1_000_000
    checked = 0
    for case in range(20):
        k = int(rng.integers(2, 5))
        alpha = rng.uniform(1.0, 5.0, size=k)
        true_class = int(rng.integers(0, k))
        labels = ev.LabelBatch.from_labels([true_class], k)
        batch = ev.evidence_to_alpha(alpha[None, :] - 1.0)
        draws = rng.dirichlet(alpha, size=draws_per_case)
        p_true = np.clip(draws[:, true_class], 1e-300, None)

        kind = ("ml", "ce", "mse")[case % 3]
        if kind == "ml":
            mean = p_true.mean()
            estimate = -math.log(mean)
            stderr = p_true.std(ddof=1) / math.sqrt(draws_per_case) / mean
            closed = ev.loss_ml(batch, labels).data[0]
        elif kind == "ce":
            values = -np.log(p_true)
            estimate = values.mean()
            stderr = values.std(ddof=1) / math.sqrt(draws_per_case)
            closed = ev.loss_ce(batch, labels).data[0]
        else:
            values = ((labels.one_hot[0][None, :] - draws) ** 2).sum(axis=1)
            estimate = values.mean()
            stderr = values.std(ddof=1) / math.sqrt(draws_per_case)
            closed = ev.loss_mse(batch, labels).data[0]
        assert abs(closed - estimate) <= 3.0 * stderr, \
            f"case {case} ({kind}): |{closed} - {estimate}| > 3*{stderr}"
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 20 and elapsed < 120.0
    _report(2, "Monte-Carlo integral oracle", f"20 cases, {elapsed:.1f} s")


def test_criterion_3_gradient_suites():
    started = time.perf_counter()
    details = []
    for name in checks.SUITES:
        worst, tolerance = checks.run_suite(name, points=100, seed=0)
        assert worst <= tolerance, f"suite {name}: {worst} > {tolerance}"
        details.append(f"{name}={worst:.2e}")
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(3, "gradient suites", ", ".join(details) + f", {elapsed:.1f} s")


def test_criterion_4_metric_oracles():
    assert me.macro_f1([0, 1, 1, 1], [0, 0, 1, 1], 2) == \
        pytest.approx(11.0 / 15.0, abs=1e-9)

    probs = np.array([[0.9, 0.1], [0.9, 0.1], [0.6, 0.4], [0.6, 0.4]])
    truth = np.array([0, 0, 0, 1])
    assert me.ece(probs, truth)[0] == pytest.approx(0.1, abs=1e-9)

    rng = np.random.default_rng(4)
    calibrated = rng.dirichlet(np.ones(3), 100_000)
    labels = (calibrated.cumsum(axis=1) >
              rng.random((100_000, 1))).argmax(axis=1)
    calibrated_ece = me.ece(calibrated, labels)[0]
    assert calibrated_ece <= 0.01

    assert me.spearman([1, 2, 3], [2, 1, 3]) == pytest.approx(0.5, abs=1e-12)
    _report(4, "metric oracles", f"calibrated ECE={calibrated_ece:.4f}")


@pytest.fixture(scope="session")
def benchmark_outcome():
    return ex.run_benchmark(ex.BenchmarkSettings(), seeds=range(10))


def _check_study_criterion(number, name, outcome):
    table = [v for v in ex.verdicts(outcome) if v.claim.startswith(str(number))]
    for verdict in table:
        print(verdict.line())
    failed = [verdict.line() for verdict in table if not verdict.passed]
    assert not failed, "failed claims:\n" + "\n".join(failed)
    _report(number, name, f"all {len(table)} sub-claims hold")


def test_criterion_5_desk_scale_uda_directions(benchmark_outcome):
    _check_study_criterion(5, "desk-scale UDA directions", benchmark_outcome)


def test_criterion_6_multiscale_reduces_feature_mmd(benchmark_outcome):
    _check_study_criterion(6, "multi-scale feature MMD", benchmark_outcome)


def test_criterion_7_determinism_and_round_trip(tmp_path):
    data_dir = tmp_path / "data"
    assert cli.main(["gen-data", "--out-dir", str(data_dir), "--classes",
                     "3", "--channels", "1", "--length", "64",
                     "--n-per-class", "6", "--seed", "5",
                     "--shift", "amp=0.7,freq=0.5,noise=0.3"]) == 0
    source = data_dir / "source.evts"
    target = data_dir / "target.evts"

    # identical seeds -> byte-identical data, models, logs, reports
    twin = tmp_path / "data2"
    assert cli.main(["gen-data", "--out-dir", str(twin), "--classes", "3",
                     "--channels", "1", "--length", "64", "--n-per-class",
                     "6", "--seed", "5",
                     "--shift", "amp=0.7,freq=0.5,noise=0.3"]) == 0
    assert source.read_bytes() == (twin / "source.evts").read_bytes()

    model_bytes = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert cli.main(["train", "--source", str(source), "--target",
                         str(target), "--out-dir", str(out), "--epochs",
                         "4", "--widths", "4,4,4", "--kernels", "5,3,3",
                         "--method", "ddc", "--evidential", "ce",
                         "--seed", "2"]) == 0
        model_bytes.append((out / "model.evtm").read_bytes())
    assert model_bytes[0] == model_bytes[1]
    assert (tmp_path / "r1" / "train_log.txt").read_bytes() == \
        (tmp_path / "r2" / "train_log.txt").read_bytes()

    # evaluating the same inputs twice reproduces every report byte
    for run in ("e1", "e2"):
        assert cli.main(["eval", "--model",
                         str(tmp_path / "r1" / "model.evtm"), "--data",
                         str(target), "--out-dir",
                         str(tmp_path / f"eval_{run}")]) == 0
    for name in ("report.txt", "confusion.csv", "reliability.csv",
                 "uncertainty_hist.csv", "per_sample.csv"):
        assert (tmp_path / "eval_e1" / name).read_bytes() == \
            (tmp_path / "eval_e2" / name).read_bytes()

    # bit-exact containers
    from evits import model as mo
    batch = da.read_evts(source)
    da.write_evts(batch, tmp_path / "copy.evts")
    again = da.read_evts(tmp_path / "copy.evts")
    assert np.array_equal(batch.values, again.values)
    assert np.array_equal(batch.labels, again.labels)

    params = mo.load(tmp_path / "r1" / "model.evtm")
    mo.save(params, tmp_path / "copy.evtm")
    assert (tmp_path / "copy.evtm").read_bytes() == model_bytes[0]

    # corrupted files rejected with the documented errors
    from evits.errors import FormatError
    raw = bytearray((tmp_path / "copy.evts").read_bytes())
    raw[20] ^= 0xFF
    (tmp_path / "bad.evts").write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        da.read_evts(tmp_path / "bad.evts")
    raw = bytearray(model_bytes[0])
    raw[-3] ^= 0x01
    (tmp_path / "bad.evtm").write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        mo.load(tmp_path / "bad.evtm")
    _report(7, "determinism and round-trip", "models, logs, reports, containers")
