import os
import subprocess
import sys
import types

import numpy as np
import pytest

from evits import cli
from evits import data as da
from evits import model as mo


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def dataset(tmp_path):
    code = run_cli("gen-data", "--out-dir", str(tmp_path), "--classes", "3",
                   "--channels", "1", "--length", "64", "--n-per-class", "8",
                   "--noise", "0.4",
                   "--class-freqs", "2,4,6",
                   "--shift", "amp=0.7,freq=0.5,noise=0.3", "--seed", "3")
    assert code == 0
    return tmp_path / "source.evts", tmp_path / "target.evts"


def unlabeled_copy(path, tmp_path):
    """`path` rewritten without labels, declaring 0 classes."""
    batch = da.read_evts(path)
    out = tmp_path / "unlabeled.evts"
    da.write_evts(da.TimeSeriesBatch(values=batch.values, labels=None,
                                     num_classes=0), out)
    return out


def train_args(source, target, out_dir, *extra):
    return ["train", "--source", str(source), "--target", str(target),
            "--out-dir", str(out_dir), "--epochs", "3", "--widths", "4,4,4",
            "--kernels", "5,3,3", "--seed", "1", "--method", "ddc",
            "--evidential", "ce", *extra]


class TestGenData:
    def test_sample_counts(self, tmp_path, capsys):
        assert run_cli("gen-data", "--out-dir", str(tmp_path), "--classes",
                       "4", "--n-per-class", "50", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "class0=50" in out
        batch = da.read_evts(tmp_path / "source.evts")
        assert len(batch) == 200

    def test_deterministic_files(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli("gen-data", "--out-dir", str(tmp_path / sub),
                           "--seed", "7", "--n-per-class", "5") == 0
        assert (tmp_path / "a" / "source.evts").read_bytes() == \
            (tmp_path / "b" / "source.evts").read_bytes()
        assert (tmp_path / "a" / "target.evts").read_bytes() == \
            (tmp_path / "b" / "target.evts").read_bytes()

    def test_neutral_shift_identical_domains(self, tmp_path):
        assert run_cli("gen-data", "--out-dir", str(tmp_path), "--seed", "1",
                       "--n-per-class", "4",
                       "--shift", "amp=1.0,noise=0,freq=0") == 0
        src = da.read_evts(tmp_path / "source.evts")
        tgt = da.read_evts(tmp_path / "target.evts")
        assert np.array_equal(src.values, tgt.values)

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as failure:
            run_cli("gen-data", "--classses", "4")
        assert failure.value.code == 2

    def test_bad_shift_field(self, tmp_path):
        assert run_cli("gen-data", "--out-dir", str(tmp_path),
                       "--shift", "warp=2") == 2


class TestTrain:
    def test_train_writes_model_and_log(self, dataset, tmp_path):
        source, target = dataset
        out = tmp_path / "run"
        assert run_cli(*train_args(source, target, out)) == 0
        assert (out / "model.evtm").exists()
        log_text = (out / "train_log.txt").read_text()
        assert "epoch=2" in log_text
        assert "config.method='ddc'" in log_text

    def test_deterministic_model_files(self, dataset, tmp_path):
        source, target = dataset
        for sub in ("r1", "r2"):
            assert run_cli(*train_args(source, target, tmp_path / sub)) == 0
        assert (tmp_path / "r1" / "model.evtm").read_bytes() == \
            (tmp_path / "r2" / "model.evtm").read_bytes()
        assert (tmp_path / "r1" / "train_log.txt").read_bytes() == \
            (tmp_path / "r2" / "train_log.txt").read_bytes()

    def test_unlabeled_source_exits_2(self, dataset, tmp_path, capsys):
        source, target = dataset
        path = unlabeled_copy(source, tmp_path)
        assert run_cli(*train_args(path, target, tmp_path / "x")) == 2
        assert "the source batch must carry labels" in capsys.readouterr().err

    def test_nan_data_exits_3(self, dataset, tmp_path):
        source, target = dataset
        batch = da.read_evts(source)
        batch.values[0, 0, 0] = np.nan
        poisoned = tmp_path / "poisoned.evts"
        da.write_evts(batch, poisoned)
        assert run_cli(*train_args(poisoned, target, tmp_path / "x")) == 3

    def test_alignment_without_target_exits_2(self, dataset, tmp_path, capsys):
        source, target = dataset
        args = train_args(source, "unused", tmp_path / "x")
        del args[3:5]  # --target and its path
        assert run_cli(*args) == 2
        assert "'ddc' needs a non-empty target batch" in capsys.readouterr().err
        # a target file with no rows fails the same way before the first step
        batch = da.read_evts(target)
        empty = tmp_path / "empty.evts"
        da.write_evts(batch.subset([]), empty)
        assert run_cli(*train_args(source, empty, tmp_path / "y")) == 2
        assert "'ddc' needs a non-empty target batch" in capsys.readouterr().err

    def test_config_file_flags_win(self, dataset, tmp_path):
        source, target = dataset
        config = tmp_path / "run.conf"
        config.write_text("epochs = 50\nmethod = coral\n")
        out = tmp_path / "cfg"
        code = run_cli("train", "--source", str(source), "--target",
                       str(target), "--out-dir", str(out), "--config",
                       str(config), "--epochs", "2", "--widths", "4,4,4",
                       "--kernels", "5,3,3", "--seed", "0")
        assert code == 0
        text = (out / "train_log.txt").read_text()
        assert "config.epochs=2" in text      # flag beat the file
        assert "config.method='coral'" in text  # file filled the gap

    def test_noadapt_without_target(self, dataset, tmp_path):
        source, _ = dataset
        code = run_cli("train", "--source", str(source), "--out-dir",
                       str(tmp_path / "na"), "--epochs", "2", "--widths",
                       "4,4,4", "--kernels", "5,3,3", "--method", "noadapt",
                       "--evidential", "none", "--seed", "0")
        assert code == 0

    def test_best_found_combination_runs(self, dataset, tmp_path):
        # ddc + evidential-CE + max-pool multi-scale
        source, target = dataset
        out = tmp_path / "best"
        code = run_cli("train", "--source", str(source), "--target",
                       str(target), "--out-dir", str(out), "--epochs", "2",
                       "--widths", "4,4,4", "--kernels", "5,3,3",
                       "--method", "ddc", "--evidential", "ce",
                       "--multiscale", "M", "--seed", "0")
        assert code == 0
        from evits import model as mo
        params = mo.load(out / "model.evtm")
        assert params.config.variant == "M"
        assert params.config.num_scales == 2

    @pytest.mark.parametrize("variant", ["L", "LM", "A", "R"])
    def test_every_multiscale_variant_trains(self, dataset, tmp_path,
                                             variant):
        source, target = dataset
        out = tmp_path / f"var_{variant}"
        code = run_cli("train", "--source", str(source), "--target",
                       str(target), "--out-dir", str(out), "--epochs", "1",
                       "--widths", "4,4,4", "--kernels", "5,3,3",
                       "--method", "ddc", "--evidential", "ce",
                       "--multiscale", variant, "--seed", "0")
        assert code == 0


@pytest.fixture()
def trained(dataset, tmp_path):
    source, target = dataset
    out = tmp_path / "trained"
    assert run_cli(*train_args(source, target, out)) == 0
    return source, target, out / "model.evtm"


class TestEval:
    def test_report_files(self, trained, tmp_path, capsys):
        source, target, model = trained
        out = tmp_path / "eval"
        assert run_cli("eval", "--model", str(model), "--data", str(target),
                       "--out-dir", str(out)) == 0
        for name in ("report.txt", "confusion.csv", "reliability.csv",
                     "uncertainty_hist.csv", "per_sample.csv"):
            assert (out / name).exists(), name
        report = (out / "report.txt").read_text()
        assert "macro_f1=" in report
        assert f"# evits_version=" in report
        per_sample = [line for line in
                      (out / "per_sample.csv").read_text().splitlines()
                      if line and not line.startswith("#")]
        assert len(per_sample) == 1 + len(da.read_evts(target))

    def test_rerun_byte_identical(self, trained, tmp_path):
        source, target, model = trained
        outs = []
        for sub in ("e1", "e2"):
            out = tmp_path / sub
            assert run_cli("eval", "--model", str(model), "--data",
                           str(target), "--out-dir", str(out)) == 0
            outs.append(out)
        for name in ("report.txt", "confusion.csv", "reliability.csv",
                     "uncertainty_hist.csv", "per_sample.csv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()

    def test_one_forward_gives_the_two_predict_reports(self, trained, tmp_path,
                                                       monkeypatch):
        source, target, model = trained
        modes, forward = [], mo.forward
        monkeypatch.setattr(mo, "forward", lambda params, x, mode="train", **kw:
                            modes.append(mode) or forward(params, x, mode, **kw))
        assert run_cli("eval", "--model", str(model), "--data", str(target),
                       "--out-dir", str(tmp_path / "one")) == 0
        assert modes == ["eval"]
        # the same command with each head taken from its own full predict
        two = types.SimpleNamespace(**vars(mo))
        two.forward = lambda params, values, mode: values
        two.head_outputs = lambda params, values, head: mo.predict(params, values, head)
        monkeypatch.setattr(cli, "mo", two)
        assert run_cli("eval", "--model", str(model), "--data", str(target),
                       "--out-dir", str(tmp_path / "two")) == 0
        assert modes == ["eval"] * 3
        for name in ("report.txt", "confusion.csv", "reliability.csv",
                     "uncertainty_hist.csv", "per_sample.csv"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes(), name

    def test_class_count_mismatch_exits_2(self, trained, tmp_path):
        source, target, model = trained
        batch = da.read_evts(target)
        wrong = da.TimeSeriesBatch(values=batch.values,
                                   labels=np.zeros(len(batch), np.int32),
                                   num_classes=1)
        path = tmp_path / "wrong.evts"
        da.write_evts(wrong, path)
        assert run_cli("eval", "--model", str(model), "--data",
                       str(path)) == 2

    def test_non_finite_data_exits_2_naming_the_row(self, trained, tmp_path,
                                                     capsys):
        source, target, model = trained
        batch = da.read_evts(target)
        batch.values[4, 0, 7] = np.nan
        path = tmp_path / "poisoned.evts"
        da.write_evts(batch, path)
        assert run_cli("eval", "--model", str(model), "--data", str(path),
                       "--out-dir", str(tmp_path / "e")) == 2
        assert "input row 4 holds NaN or inf" in capsys.readouterr().err

    def test_spearman_line_ranks_per_class_f1(self, trained, tmp_path,
                                              monkeypatch):
        # hand oracle: every class has F1 2/3 (class 0 has two false
        # positives, classes 1 and 2 one miss each), a three-way tie, so
        # rho is 0; recall-only scores (1/2, 1/3, 1/3) would give -0.866
        source, target, model = trained
        truth, pred = np.array([0, 0, 1, 1, 2, 2]), np.array([0, 0, 0, 1, 0, 2])
        values = da.read_evts(target).values[:6]
        path = tmp_path / "six.evts"
        da.write_evts(da.TimeSeriesBatch(values=values, labels=truth,
                                         num_classes=3), path)
        fixed = types.SimpleNamespace(**vars(mo))
        fixed.head_outputs = lambda params, out, head: (
            pred, np.eye(3)[pred], np.repeat([0.1, 0.2, 0.3], 2))
        monkeypatch.setattr(cli, "mo", fixed)
        assert run_cli("eval", "--model", str(model), "--data", str(path),
                       "--out-dir", str(tmp_path / "e")) == 0
        report = (tmp_path / "e" / "report.txt").read_text().splitlines()
        assert "spearman_f1_uncertainty_per_class=0.0" in report

    def test_overfit_then_eval_reaches_one(self, tmp_path):
        run_cli("gen-data", "--out-dir", str(tmp_path), "--classes", "2",
                "--channels", "1", "--length", "32", "--n-per-class", "4",
                "--noise", "0.1", "--seed", "2")
        source = tmp_path / "source.evts"
        out = tmp_path / "overfit"
        assert run_cli("train", "--source", str(source), "--out-dir",
                       str(out), "--epochs", "50", "--widths", "6,6,6",
                       "--kernels", "8,5,3", "--method", "noadapt",
                       "--evidential", "none", "--batch-size", "8",
                       "--learning-rate", "0.003", "--seed", "0") == 0
        eval_dir = tmp_path / "eval"
        assert run_cli("eval", "--model", str(out / "model.evtm"), "--data",
                       str(source), "--out-dir", str(eval_dir)) == 0
        report = (eval_dir / "report.txt").read_text()
        line = [l for l in report.splitlines()
                if l.startswith("macro_f1=")][0]
        assert float(line.split("=")[1]) == 1.0


class TestDiscrepancy:
    def test_same_file_near_zero(self, trained, tmp_path, capsys):
        source, target, model = trained
        out = tmp_path / "disc"
        assert run_cli("discrepancy", "--model", str(model), "--source",
                       str(source), "--target", str(source), "--out-dir",
                       str(out), "--seed", "4") == 0
        text = (out / "discrepancy.txt").read_text()
        values = {line.split("=")[0]: line.split("=", 1)[1]
                  for line in text.splitlines()
                  if "=" in line and not line.startswith("#")}
        assert abs(float(values["mmd_rbf"])) <= 1e-9
        assert abs(float(values["sliced_wd"])) <= 1e-9
        assert "bandwidths" in values and "n_projections" in values
        assert "mixed" in values["measurement_layer"]

    def test_seeded_reproducible(self, trained, tmp_path):
        source, target, model = trained
        texts = []
        for sub in ("d1", "d2"):
            out = tmp_path / sub
            assert run_cli("discrepancy", "--model", str(model), "--source",
                           str(source), "--target", str(target), "--out-dir",
                           str(out), "--seed", "11") == 0
            texts.append((out / "discrepancy.txt").read_bytes())
        assert texts[0] == texts[1]

    def test_one_distance_matrix_gives_reported_values(self, trained, tmp_path,
                                                       monkeypatch):
        # the bandwidths and the MMD come from one pooled distance matrix, and
        # read as the plain-numpy median heuristic and mmd_rbf at those
        # bandwidths do
        from test_alignment import reference_bandwidths
        source, target, model = trained
        calls = []
        pooled = cli.alignment._pooled_sq_dists
        monkeypatch.setattr(cli.alignment, "_pooled_sq_dists",
                            lambda *args: calls.append(1) or pooled(*args))
        out = tmp_path / "disc"
        assert run_cli("discrepancy", "--model", str(model), "--source",
                       str(source), "--target", str(target), "--out-dir",
                       str(out), "--seed", "11") == 0
        assert len(calls) == 1
        params = mo.load(model)
        feats = [mo.forward(params, da.read_evts(path).values, mode="eval").mixed.data
                 for path in (source, target)]
        widths = reference_bandwidths(*feats)
        lines = (out / "discrepancy.txt").read_text().splitlines()
        assert f"mmd_rbf={cli.alignment.mmd_rbf(*feats, widths)!r}" in lines
        assert "bandwidths=" + ",".join(map(repr, widths)) in lines

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_non_finite_data_exits_2_naming_the_file(self, trained, tmp_path,
                                                     capsys, side):
        files = dict(zip(("source", "target"), trained[:2]))
        batch = da.read_evts(files[side])
        batch.values[4, 0, 7] = np.nan
        files[side] = tmp_path / "poisoned.evts"
        da.write_evts(batch, files[side])
        out = tmp_path / "disc"
        assert run_cli("discrepancy", "--model", str(trained[2]), "--source",
                       str(files["source"]), "--target", str(files["target"]),
                       "--out-dir", str(out)) == 2
        assert (f"--{side} {files[side]}: input row 4 holds NaN or inf"
                in capsys.readouterr().err)
        assert not (out / "discrepancy.txt").exists()


class TestGradcheck:
    def test_single_suite(self, capsys):
        assert run_cli("gradcheck", "--suite", "ce", "--points", "5",
                       "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "suite=ce" in out and "PASS" in out
        assert "suite=ml" not in out

    def test_deterministic_output(self, capsys):
        run_cli("gradcheck", "--suite", "kl", "--points", "4", "--seed", "9")
        first = capsys.readouterr().out
        run_cli("gradcheck", "--suite", "kl", "--points", "4", "--seed", "9")
        assert capsys.readouterr().out == first


class TestSelectLambda3:
    def test_grid_of_one(self, dataset, tmp_path, capsys):
        source, target = dataset
        out = tmp_path / "sel"
        code = run_cli("select-lambda3", "--source", str(source), "--target",
                       str(target), "--out-dir", str(out), "--grid", "0.2",
                       "--epochs", "2", "--widths", "4,4,4", "--kernels",
                       "5,3,3", "--evidential", "ce", "--seed", "0")
        assert code == 0
        assert "best lambda3=0.2" in capsys.readouterr().out
        rows = [line for line in
                (out / "lambda3_risk.csv").read_text().splitlines()
                if line and not line.startswith("#")]
        assert len(rows) == 2  # header + one grid point

    def test_table_rows_match_grid(self, dataset, tmp_path):
        source, target = dataset
        out = tmp_path / "sel2"
        code = run_cli("select-lambda3", "--source", str(source), "--target",
                       str(target), "--out-dir", str(out), "--grid",
                       "0.1,0.3", "--epochs", "2", "--widths", "4,4,4",
                       "--kernels", "5,3,3", "--evidential", "ce",
                       "--seed", "0")
        assert code == 0
        rows = [line for line in
                (out / "lambda3_risk.csv").read_text().splitlines()
                if line and not line.startswith("#")]
        assert len(rows) == 3

    def test_no_evidential_head_exits_2(self, dataset, tmp_path, capsys):
        source, target = dataset
        out = tmp_path / "sel3"
        code = run_cli("select-lambda3", "--source", str(source), "--target",
                       str(target), "--out-dir", str(out), "--grid",
                       "0.1,0.5", "--epochs", "2", "--widths", "4,4,4",
                       "--kernels", "5,3,3", "--evidential", "none",
                       "--seed", "0")
        assert code == 2
        assert "needs an evidential head" in capsys.readouterr().err
        assert not (out / "lambda3_risk.csv").exists()

    def test_unlabeled_source_exits_2(self, dataset, tmp_path, capsys):
        source, target = dataset
        out = tmp_path / "sel4"
        code = run_cli("select-lambda3", "--source",
                       str(unlabeled_copy(source, tmp_path)), "--target",
                       str(target), "--out-dir", str(out), "--grid", "0.1",
                       "--epochs", "2", "--evidential", "ce")
        assert code == 2
        assert "the source batch must carry labels" in capsys.readouterr().err
        assert not (out / "lambda3_risk.csv").exists()


class TestConfigFile:
    def test_value_that_does_not_parse_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("seed = 1\npoints = abc\n")
        assert run_cli("gradcheck", "--suite", "ce", "--config",
                       str(config)) == 2
        assert f"{config}:2: points" in capsys.readouterr().err

    def test_key_no_command_takes_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("epochs = 3\n")  # a train key: still allowed
        argv = ("gradcheck", "--suite", "ce", "--points", "2", "--config",
                str(config))
        assert run_cli(*argv) == 0
        config.write_text("epochs = 3\npoint = 3\n")
        assert run_cli(*argv) == 2
        assert f"{config}:2:" in capsys.readouterr().err


# one text per run parameter, each different from the parameter's default
RUN_VALUES = {
    "seed": "7", "out_dir": "elsewhere", "classes": "3", "channels": "1",
    "length": "64", "n_per_class": "5", "noise": "0.25",
    "shift": "amp=0.5,noise=0.1", "class_freqs": "2,4.5",
    "class_amps": "1,0.5", "method": "coral", "evidential": "mse",
    "multiscale": "LM", "scales": "1", "widths": "4,5,6", "kernels": "3,3,5",
    "epochs": "3", "batch_size": "8", "learning_rate": "0.01",
    "weight_decay": "0.001", "lambda1": "0.5", "lambda2": "0.25",
    "lambda3": "0.75", "anneal_horizon": "4", "grid": "0.2,0.4", "bins": "5",
    "n_proj": "9", "points": "3", "suite": "kl",
}


def resolve(command, *argv):
    paths = [arg for key in cli._COMMANDS[command][2]
             for arg in (cli._flag(key), "unused")]
    return cli._Run(cli.build_parser().parse_args([command, *paths, *argv]))


@pytest.mark.parametrize("command,key", [
    (command, param.key) for param in cli.PARAMS for command in param.commands])
def test_flag_and_config_line_resolve_alike(tmp_path, command, key):
    config = tmp_path / "run.conf"
    config.write_text(f"{key} = {RUN_VALUES[key]}\n")
    by_flag = resolve(command, cli._flag(key), RUN_VALUES[key])
    by_file = resolve(command, "--config", str(config))
    assert by_flag.get(key) == by_file.get(key) != resolve(command).get(key)
    assert cli._echo_lines(by_flag.echo) == cli._echo_lines(by_file.echo)


@pytest.mark.parametrize("command,key", [("eval", "seed"),
                                         ("gradcheck", "out_dir")])
def test_flag_the_command_does_not_read_exits_2(tmp_path, command, key):
    with pytest.raises(SystemExit) as result:
        resolve(command, cli._flag(key), RUN_VALUES[key])
    assert result.value.code == 2
    # another command reads the key, so a shared config file may set it
    config = tmp_path / "run.conf"
    config.write_text(f"{key} = {RUN_VALUES[key]}\n")
    assert key not in resolve(command, "--config", str(config)).values


def test_blas_thread_count_leaves_training_bytes(tmp_path):
    # 3 epochs of multi-scale M / ddc / evidential-CE in fresh processes,
    # one and two OpenBLAS threads: identical model and log bytes
    assert run_cli("gen-data", "--out-dir", str(tmp_path), "--seed", "0",
                   "--shift", "amp=0.7,freq=0.6,noise=0.3") == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH"))))}
        subprocess.run(
            [sys.executable, "-m", "evits.cli", "train",
             "--source", str(tmp_path / "source.evts"),
             "--target", str(tmp_path / "target.evts"),
             "--out-dir", str(out_dir), "--multiscale", "M", "--method",
             "ddc", "--evidential", "ce", "--epochs", "3", "--widths",
             "14,14,14"],
            env=env, check=True, capture_output=True)
        outputs.append(((out_dir / "model.evtm").read_bytes(),
                        (out_dir / "train_log.txt").read_bytes()))
    assert outputs[0] == outputs[1]


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
    assert run_cli("gen-data", "--seed", "0", "--n-per-class", "3") == 0
    assert (tmp_path / "envout" / "source.evts").exists()


def test_missing_file_exits_2(tmp_path):
    assert run_cli("eval", "--model", str(tmp_path / "nope.evtm"),
                   "--data", str(tmp_path / "nope.evts")) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as result:
        run_cli("--version")
    assert result.value.code == 0
