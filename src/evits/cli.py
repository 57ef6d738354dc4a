"""Operator surface: data generation, training, evaluation, discrepancy
measurement, gradient checking and lambda3 selection.

Every command with --seed is end-to-end deterministic, and every report
file embeds the resolved run configuration plus the toolkit version.
Exit codes: 0 success, 1 check failure, 2 usage/config error,
3 numerical abort.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import alignment, checks, data as da, metrics as me, model as mo
from . import multiscale as ms
from . import trainer as tr
from .errors import ConfigError, DomainError, NumericalAbort, ToolkitError

OUTPUT_DIR_ENV = "EVITS_OUTDIR"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _tuple_of(convert):
    """Parser for comma-separated values, each read by `convert`."""
    return lambda text: tuple(convert(tok) for tok in text.split(",")
                              if tok.strip())


_SHIFT_FIELDS = {"amp": "amp_scale", "freq": "freq_offset", "noise": "extra_noise"}


def _parse_shift(text):
    """`amp=..,freq=..,noise=..` as the SynthSpec fields it sets."""
    fields = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"bad --shift entry {chunk!r}; use key=value")
        key, value = chunk.split("=", 1)
        key = key.strip()
        if key not in _SHIFT_FIELDS:
            raise ConfigError(f"unknown shift field {key!r}")
        fields[_SHIFT_FIELDS[key]] = float(value)
    return fields


class Param(NamedTuple):
    """One run parameter: a `--key` flag and a `key = value` config line."""

    key: str
    parse: Callable  # flag or config text -> value
    default: object  # None: the command works it out from other values
    commands: tuple
    choices: tuple | None = None
    help: str | None = None


_GEN = ("gen-data",)
_TRAIN = ("train", "select-lambda3")

PARAMS = (
    Param("seed", int, tr.TrainConfig.seed,
          _GEN + _TRAIN + ("discrepancy", "gradcheck")),
    # None: $EVITS_OUTDIR, else "."
    Param("out_dir", str, None, _GEN + _TRAIN + ("eval", "discrepancy")),
    Param("classes", int, da.SynthSpec.num_classes, _GEN),
    Param("channels", int, da.SynthSpec.channels, _GEN),
    Param("length", int, da.SynthSpec.length, _GEN),
    Param("n_per_class", int, da.SynthSpec.n_per_class, _GEN),
    Param("noise", float, da.SynthSpec.noise_sigma, _GEN),
    Param("shift", _parse_shift, {}, _GEN, help="amp=..,freq=..,noise=.."),
    Param("class_freqs", _tuple_of(float), (), _GEN),
    Param("class_amps", _tuple_of(float), (), _GEN),
    Param("method", str, tr.TrainConfig.method, _TRAIN, alignment.METHODS),
    Param("evidential", str, tr.TrainConfig.evidential, _TRAIN,
          tr.EVIDENTIAL_KINDS),
    Param("multiscale", str, "none", _TRAIN, ("none",) + ms.VARIANTS),
    Param("scales", int, mo.ModelConfig.num_scales, _TRAIN),
    Param("widths", _tuple_of(int), mo.ModelConfig.conv_widths, _TRAIN),
    Param("kernels", _tuple_of(int), mo.ModelConfig.kernel_sizes, _TRAIN),
    Param("epochs", int, tr.TrainConfig.epochs, _TRAIN),
    Param("batch_size", int, tr.TrainConfig.batch_size, _TRAIN),
    Param("learning_rate", float, tr.TrainConfig.learning_rate, _TRAIN),
    Param("weight_decay", float, tr.TrainConfig.weight_decay, _TRAIN),
    # None: trainer.default_weights for the resolved method and head
    Param("lambda1", float, None, _TRAIN),
    Param("lambda2", float, None, _TRAIN),
    Param("lambda3", float, None, _TRAIN),
    Param("anneal_horizon", int, tr.TrainConfig.anneal_horizon, _TRAIN),
    Param("grid", _tuple_of(float), tr.DEFAULT_LAMBDA3_GRID,
          ("select-lambda3",)),
    Param("bins", int, me.DEFAULT_ECE_BINS, ("eval",)),
    Param("n_proj", int, alignment.DEFAULT_NUM_PROJECTIONS, ("discrepancy",)),
    Param("points", int, checks.DEFAULT_POINTS, ("gradcheck",)),
    Param("suite", str, "all", ("gradcheck",), ("all",) + checks.SUITES),
)

_KEYS = {param.key for param in PARAMS}


def _flag(key):
    return "--" + key.replace("_", "-")


def _read_config_file(path):
    """Flat key=value lines; '#' starts a comment.  Maps each key to its
    text and to where it stands, for error messages."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _KEYS:
                raise ConfigError(f"{path}:{line_no}: no command takes {key!r}")
            values[key] = (value.strip(), f"{path}:{line_no}: {key}")
    return values


def _convert(param, text, where):
    try:
        value = param.parse(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot use {text!r} ({exc})") from exc
    if param.choices and value not in param.choices:
        raise ConfigError(f"{where}: {text!r} is not one of {param.choices}")
    return value


class _Run:
    """The run parameters of `args.command`: the flag if given, else the
    config-file line, else the default.

    Every parameter the command reads lands in `echo`, which its reports
    carry; the destination directory stays out of it.
    """

    def __init__(self, args):
        lines = _read_config_file(args.config) if args.config else {}
        self.values = {}
        for param in PARAMS:
            if args.command not in param.commands:
                continue
            flag = getattr(args, param.key)
            if flag is not None:
                value = _convert(param, flag, _flag(param.key))
            elif param.key in lines:
                value = _convert(param, *lines[param.key])
            else:
                value = param.default
            self.values[param.key] = value
        self.echo = {}

    def get(self, key, default=None):
        """The resolved value, or `default` where the table leaves it None."""
        value = self.values[key]
        if value is None:
            value = default
        if key != "out_dir":
            self.echo[key] = value
        return value


def _out_dir(run):
    path = run.get("out_dir", os.environ.get(OUTPUT_DIR_ENV, "."))
    os.makedirs(path, exist_ok=True)
    return path


def _echo_lines(echo):
    lines = [f"# evits_version={__version__}"]
    for key in sorted(echo):
        lines.append(f"# config.{key}={echo[key]!r}")
    return lines


def _write_report(path, echo, body_lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_echo_lines(echo) + body_lines) + "\n")


# -- gen-data ----------------------------------------------------------------


def cmd_gen_data(args):
    run = _Run(args)
    classes = run.get("classes")
    spec = da.SynthSpec(
        num_classes=classes, channels=run.get("channels"),
        length=run.get("length"), n_per_class=run.get("n_per_class"),
        noise_sigma=run.get("noise"), seed=run.get("seed"),
        class_freqs=run.get("class_freqs"), class_amps=run.get("class_amps"),
        **run.get("shift"))
    out_dir = _out_dir(run)
    for domain in ("source", "target"):
        batch = da.synth_generate(spec, domain)
        path = os.path.join(out_dir, f"{domain}.evts")
        da.write_evts(batch, path)
        counts = np.bincount(batch.labels, minlength=classes)
        print(f"{path}: " + " ".join(
            f"class{c}={counts[c]}" for c in range(classes)))
    return EXIT_OK


# -- train ---------------------------------------------------------------------


def _model_config_from(run, source):
    _, c, t = source.values.shape
    variant = run.get("multiscale")
    multiscale = variant != "none"
    return mo.ModelConfig(
        channels=c, length=t, num_classes=source.num_classes,
        num_scales=run.get("scales") if multiscale else 0,
        variant=variant if multiscale else None,
        conv_widths=run.get("widths"), kernel_sizes=run.get("kernels"),
        seed=run.get("seed"))


def _train_config_from(run):
    method, evidential = run.get("method"), run.get("evidential")
    defaults = tr.default_weights(method, evidential)
    weights = tr.LossWeights(
        lambda1=run.get("lambda1", defaults.lambda1),
        lambda2=run.get("lambda2", defaults.lambda2),
        lambda3=run.get("lambda3", defaults.lambda3))
    return tr.TrainConfig(
        epochs=run.get("epochs"), batch_size=run.get("batch_size"),
        learning_rate=run.get("learning_rate"),
        weight_decay=run.get("weight_decay"), evidential=evidential,
        method=method, weights=weights,
        anneal_horizon=run.get("anneal_horizon"), seed=run.get("seed"))


def cmd_train(args):
    run = _Run(args)
    source = da.read_evts(args.source)
    target = da.read_evts(args.target) if args.target else None
    train_config = _train_config_from(run)
    tr.check_inputs(train_config, source, target)
    model_config = _model_config_from(run, source)

    params, log = tr.train(model_config, train_config, source, target)

    out_dir = _out_dir(run)
    model_path = args.model_out or os.path.join(out_dir, "model.evtm")
    log_path = args.log_out or os.path.join(out_dir, "train_log.txt")
    mo.save(params, model_path)
    log.save(log_path)
    print(f"model written to {model_path}")
    print(f"log written to {log_path}")
    print(f"final source_val_f1={log.records[-1].source_val_f1!r}")
    return EXIT_OK


# -- eval ----------------------------------------------------------------------


def cmd_eval(args):
    run = _Run(args)
    params = mo.load(args.model)
    batch = da.read_evts(args.data)
    if not batch.labeled:
        raise ConfigError("evaluation needs a labeled EVTS file")
    k = params.config.num_classes
    if batch.num_classes != k:
        raise ConfigError(
            f"model expects {k} classes but the file declares {batch.num_classes}")
    bins = run.get("bins")
    out_dir = _out_dir(run)
    primary_head = mo.resolve_head(params, "auto")
    run.echo.update({"model": args.model, "data": args.data,
                     "primary_head": primary_head})

    out = mo.forward(params, batch.values, mode="eval")
    truth = batch.labels
    outputs, f1, ece, reliability = {}, {}, {}, {}
    for head in mo.HEADS:  # u is the same for both heads
        pred, probs, u = mo.head_outputs(params, out, head=head)
        outputs[head] = pred, probs
        f1[head] = me.macro_f1(pred, truth, k)
        ece[head], reliability[head] = me.ece(probs, truth, bins)
    pred_p, probs_p = outputs[primary_head]
    confusion = me.confusion_matrix(pred_p, truth, k)
    u_stats = me.uncertainty_stats(u)

    present = confusion.sum(axis=1) > 0  # classes with rows in the file
    per_class_u = [float(u[truth == c].mean()) for c in np.flatnonzero(present)]
    rho = (me.spearman(me.per_class_f1(confusion)[present], per_class_u)
           if len(per_class_u) >= 3 else None)

    body = [
        f"primary_head={primary_head}",
        f"macro_f1={f1[primary_head]!r}",
        *(f"macro_f1_{head}={f1[head]!r}" for head in mo.HEADS),
        *(f"ece_{head}={ece[head]!r}" for head in mo.HEADS),
        f"uncertainty_mean={u_stats.mean!r}",
        f"spearman_f1_uncertainty_per_class="
        f"{'n/a' if rho is None else repr(rho)}",
        f"samples={len(batch)}",
    ]
    _write_report(os.path.join(out_dir, "report.txt"), run.echo, body)

    rows = ["truth\\pred," + ",".join(str(c) for c in range(k))]
    for i in range(k):
        rows.append(str(i) + "," + ",".join(str(v) for v in confusion[i]))
    _write_report(os.path.join(out_dir, "confusion.csv"), run.echo, rows)

    rows = ["head,bin,count,mean_confidence,accuracy"]
    for head in mo.HEADS:
        for b, entry in enumerate(reliability[head]):
            rows.append(f"{head},{b},{entry.count},{entry.mean_confidence!r},"
                        f"{entry.accuracy!r}")
    _write_report(os.path.join(out_dir, "reliability.csv"), run.echo, rows)

    rows = ["bin,mass"]
    rows += [f"{b},{float(mass)!r}" for b, mass in enumerate(u_stats.histogram)]
    _write_report(os.path.join(out_dir, "uncertainty_hist.csv"),
                  run.echo, rows)

    confidence = probs_p.max(axis=1)
    rows = ["prediction,confidence,uncertainty"]
    rows += [f"{int(pred_p[i])},{float(confidence[i])!r},{float(u[i])!r}"
             for i in range(len(batch))]
    _write_report(os.path.join(out_dir, "per_sample.csv"), run.echo, rows)

    print(f"macro_f1={f1[primary_head]!r} "
          + " ".join(f"ece_{head}={ece[head]!r}" for head in mo.HEADS))
    print(f"reports written to {out_dir}")
    return EXIT_OK


# -- discrepancy ------------------------------------------------------------------


def cmd_discrepancy(args):
    run = _Run(args)
    params = mo.load(args.model)
    source = da.read_evts(args.source)
    target = da.read_evts(args.target)
    seed = run.get("seed")
    n_proj = run.get("n_proj")
    out_dir = _out_dir(run)
    run.echo.update({"model": args.model, "source": args.source,
                     "target": args.target})

    feats = []
    for flag, path, batch in (("--source", args.source, source),
                              ("--target", args.target, target)):
        try:
            feats.append(mo.forward(params, batch.values, mode="eval").mixed.data)
        except DomainError as exc:
            raise DomainError(f"{flag} {path}: {exc}") from exc
    feats_src, feats_tgt = feats
    mmd_value, bandwidths = alignment._mmd_rbf(feats_src, feats_tgt)
    wd_value = float(alignment.sliced_wd(feats_src, feats_tgt, n_proj,
                                         np.random.default_rng(seed)))
    body = [
        "measurement_layer=mixed (concatenated per-scale features)",
        f"mmd_rbf={mmd_value!r}",
        f"sliced_wd={wd_value!r}",
        "bandwidths=" + ",".join(repr(b) for b in bandwidths),
        f"n_projections={n_proj}",
    ]
    _write_report(os.path.join(out_dir, "discrepancy.txt"),
                  run.echo, body)
    print(f"mmd_rbf={mmd_value!r} sliced_wd={wd_value!r}")
    return EXIT_OK


# -- gradcheck ----------------------------------------------------------------------


def cmd_gradcheck(args):
    run = _Run(args)
    seed, points, suite = run.get("seed"), run.get("points"), run.get("suite")
    names = checks.SUITES if suite == "all" else (suite,)
    failed = False
    for name in names:
        worst, tolerance = checks.run_suite(name, points=points, seed=seed)
        status = "PASS" if worst <= tolerance else "FAIL"
        failed = failed or status == "FAIL"
        print(f"suite={name} worst_rel_error={worst:.6e} "
              f"tolerance={tolerance:g} {status}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# -- select-lambda3 ----------------------------------------------------------------


def cmd_select_lambda3(args):
    run = _Run(args)
    source = da.read_evts(args.source)
    target = da.read_evts(args.target)
    target_val = da.read_evts(args.target_val) if args.target_val else target
    grid = run.get("grid")
    train_config = _train_config_from(run)
    tr.check_inputs(train_config, source, target)
    model_config = _model_config_from(run, source)
    out_dir = _out_dir(run)

    best, rows = tr.select_lambda3(grid, model_config, train_config, source,
                                   target, target_val)
    lines = ["lambda3,target_f1,status"]
    for row in rows:
        f1 = "" if row["target_f1"] is None else repr(row["target_f1"])
        lines.append(f"{row['lambda3']!r},{f1},{row['status']}")
    _write_report(os.path.join(out_dir, "lambda3_risk.csv"),
                  run.echo, lines)
    print(f"best lambda3={best!r}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


# name -> (help, handler, required paths, optional paths); paths are flags
# only, never config keys
_COMMANDS = {
    "gen-data": ("write synthetic EVTS files", cmd_gen_data, (), ()),
    "train": ("train a model", cmd_train,
              ("source",), ("target", "model_out", "log_out")),
    "eval": ("evaluate a model on labeled data", cmd_eval,
             ("model", "data"), ()),
    "discrepancy": ("feature-space MMD and sliced WD", cmd_discrepancy,
                    ("model", "source", "target"), ()),
    "gradcheck": ("finite-difference gradient suites", cmd_gradcheck, (), ()),
    "select-lambda3": ("grid-search lambda3 by target risk",
                       cmd_select_lambda3, ("source", "target"),
                       ("target_val",)),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evits",
        description="Uncertainty-aware domain adaptation for time series")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, (help_text, handler, required, optional) in _COMMANDS.items():
        sub = subs[name] = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument("--config", help="key=value config file; flags win")
        for key in required + optional:
            sub.add_argument(_flag(key), required=key in required)
    for param in PARAMS:
        for name in param.commands:
            subs[name].add_argument(_flag(param.key), choices=param.choices,
                                    help=param.help)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NumericalAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ToolkitError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
