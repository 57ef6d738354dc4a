#!/usr/bin/env python3
"""The evits benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload uda_single_ce --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the toolkit is imported from
`src/` there.  With `--trace 0` the last stdout line carries the
end-to-end metrics of `BENCHMARK.json`.  The timed units alternate with
the same units run by `perfbench/reference/evits`, a frozen copy of the
toolkit, so that the gated time is a ratio taken under the same machine
load.  With `--trace 1` the line carries the per-layer metrics from the
outside-in tracer (`perfbench/tracer.py`).  A full record (environment,
named metrics, failures, span totals) goes to `perfbench/out/`.  See
`perfbench/README.md`.
"""

import os

# BLAS threads are fixed before numpy loads; one thread keeps the small
# matrices of this toolkit off thread hand-offs and the timings steady.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, metric_names  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
OUT = HERE / "out"

EVITS_MODULES = ("errors", "tensor", "special", "evidential", "multiscale",
                 "alignment", "model", "trainer", "metrics", "data", "checks",
                 "experiments")
UDA_EPOCHS = 2
UDA_MODEL_SEEDS = 3
GRADCHECK_POINTS = 50  # per suite; end2end checks every parameter instead
# end2end's model has relu and max-pool kinks; on about 1 seed in 10 one lies
# within its +-1e-5 finite-difference step, where the difference leaves the
# (correct) taped gradient by up to 5e-2.  It runs at the seed the
# acceptance test checks instead of the workload seed.
END2END_SEED = 0
SHIFT_STRENGTH = 1.0
COVERAGE_FLOOR = 0.9
ROW_SUM_TOLERANCE = 1e-9
SETUP_PROBES = 5  # fresh-process set-ups per untraced run
PROBE_TIMEOUT_S = 60.0
# glibc's initial mmap threshold, fixed for the memory probe: large arrays
# are then always mapped and unmapped, so the peak follows live memory
# rather than how the heap fragmented on the way.
MEMORY_PROBE_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


# -- loading -----------------------------------------------------------------


def load_evits(src):
    """Import the toolkit afresh from `src`.

    The modules import each other relatively and only at import time, so
    a namespace loaded earlier from another directory keeps working."""
    for name in [n for n in sys.modules if n == "evits" or n.startswith("evits.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        ev = SimpleNamespace(evits=importlib.import_module("evits"))
        for name in EVITS_MODULES:
            setattr(ev, name, importlib.import_module(f"evits.{name}"))
    finally:
        sys.path.remove(str(src))
    if Path(ev.evits.__file__).resolve().parent != src / "evits":
        raise SystemExit(f"evits imported from {ev.evits.__file__}, not {src}")
    return ev


# -- measurement units ---------------------------------------------------------


@dataclass
class Unit:
    """One repetition of a workload's work.

    Units with the same `key` run the same inputs and must produce the
    same `fingerprint`; `steps_ms` feed the step percentiles and
    `work / work_s` the throughput.
    """

    key: object = None
    fingerprint: str = ""
    steps_ms: list = field(default_factory=list)
    work: int = 0
    work_s: float = 0.0
    extra: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _params_digest(params):
    return _digest(*(name.encode() + np.ascontiguousarray(arr).tobytes()
                     for name, arr in sorted(params.arrays.items())))


def _rows_sum_to_one(probs):
    return bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= ROW_SUM_TOLERANCE))


# -- workloads -----------------------------------------------------------------


class Workload:
    """What a workload runs; `run.py` does the timing and the checks.

    `step` names the printed `<step>_ms_*` times and `work_name` the
    printed throughput; `coverage_roots` are the spans `trace.coverage`
    is taken over.
    """

    name = ""
    coverage_floor = None
    cycle = 1  # units before the inputs repeat

    def named(self, units):
        """Extra human-readable metrics: name -> (value, unit)."""
        return {}

    def cleanup(self):
        pass


class UdaWorkload(Workload):
    """Desk-scale training runs cycled over a few model seeds."""

    step = "epoch"
    work_name = "train_samples_per_s"
    coverage_roots = ("trainer.train",)
    coverage_floor = COVERAGE_FLOOR
    cycle = UDA_MODEL_SEEDS

    def __init__(self, variant, evidential):
        self.variant = variant
        self.evidential = evidential

    def setup(self, ev, seed):
        settings = ev.experiments.BenchmarkSettings(epochs=UDA_EPOCHS)
        _, self.target, self.source, self.target_train = \
            ev.experiments.benchmark_domains(settings, seed, SHIFT_STRENGTH)
        self.num_classes = settings.num_classes
        weights = ev.trainer.LossWeights(
            lambda1=1.0, lambda2=ev.trainer.METHOD_LAMBDA2["ddc"],
            lambda3=0.0 if self.evidential == "none" else settings.lambda3)
        self.configs = []
        for model_seed in range(seed, seed + UDA_MODEL_SEEDS):
            model_config = ev.model.ModelConfig(
                channels=settings.channels, length=settings.length,
                num_classes=settings.num_classes,
                num_scales=settings.num_scales if self.variant else 0,
                variant=self.variant, conv_widths=settings.conv_widths,
                kernel_sizes=settings.kernel_sizes, seed=model_seed)
            train_config = ev.trainer.TrainConfig(
                epochs=settings.epochs, batch_size=settings.batch_size,
                learning_rate=settings.learning_rate,
                evidential=self.evidential, method="ddc", weights=weights,
                seed=model_seed)
            self.configs.append((model_config, train_config))

    def unit(self, ev, index):
        model_config, train_config = self.configs[index % len(self.configs)]
        started = time.perf_counter()
        params, log = ev.trainer.train(model_config, train_config,
                                       self.source, self.target_train)
        train_s = time.perf_counter() - started
        pred, probs, _ = ev.model.predict(params, self.target.values)
        f1 = ev.metrics.macro_f1(pred, self.target.labels, self.num_classes)
        failures = []
        if not all(np.isfinite(r.losses.total) for r in log.records):
            failures.append("non-finite loss")
        if not _rows_sum_to_one(probs):
            failures.append("probability rows do not sum to 1")
        lines = "\n".join(log.to_lines()).encode()
        return Unit(key=model_config.seed,
                    fingerprint=_digest(lines, _params_digest(params), f1),
                    steps_ms=[r.wall_clock * 1e3 for r in log.records],
                    work=len(self.source) * train_config.epochs,
                    work_s=train_s, extra={"target_f1": f1},
                    failures=failures)

    def named(self, units):
        first = {}
        for u in units:
            if "target_f1" in u.extra:
                first.setdefault(u.key, u.extra["target_f1"])
        return {"target_f1": (statistics.fmean(first.values()), "f1")}


class EvalWorkload(Workload):
    """Eval-mode predict, metrics and file round trips on the target domain."""

    step = "pass"
    work_name = "eval_samples_per_s"
    coverage_roots = ("bench.",)
    heads = ("evidential", "softmax")

    def __init__(self):
        stem = f"roundtrip-{os.getpid()}-{id(self)}"
        self.model_path = OUT / f"{stem}.evtm"
        self.data_path = OUT / f"{stem}.evts"

    def setup(self, ev, seed):
        settings = ev.experiments.BenchmarkSettings()
        self.source, self.target, _, _ = ev.experiments.benchmark_domains(
            settings, seed, SHIFT_STRENGTH)
        self.seed = seed
        self.num_classes = settings.num_classes
        common = dict(channels=settings.channels, length=settings.length,
                      num_classes=settings.num_classes,
                      conv_widths=settings.conv_widths,
                      kernel_sizes=settings.kernel_sizes, seed=seed)
        self.models = {
            "single": ev.model.init(ev.model.ModelConfig(
                num_scales=0, variant=None, **common)),
            "M": ev.model.init(ev.model.ModelConfig(
                num_scales=settings.num_scales, variant="M", **common)),
        }
        OUT.mkdir(exist_ok=True)

    def unit(self, ev, index):
        started = time.perf_counter()
        values, labels = self.target.values, self.target.labels
        results, failures, extra = [], [], {}
        for kind, params in self.models.items():
            for head in self.heads:
                t0 = time.perf_counter()
                pred, probs, u = ev.model.predict(params, values, head=head)
                extra.setdefault(f"predict_ms.{kind}", []).append(
                    (time.perf_counter() - t0) * 1e3)
                if not _rows_sum_to_one(probs):
                    failures.append(f"{kind}/{head}: rows do not sum to 1")
                results += [pred.tobytes(), probs.tobytes(), u.tobytes(),
                            ev.metrics.macro_f1(pred, labels, self.num_classes),
                            ev.metrics.ece(probs, labels)[0]]
            feats_src = ev.model.forward(params, self.source.values,
                                         mode="eval").mixed.data
            feats_tgt = ev.model.forward(params, values, mode="eval").mixed.data
            results += [
                ev.alignment.mmd_rbf(feats_src, feats_tgt),
                ev.alignment.sliced_wd(feats_src, feats_tgt,
                                       rng=np.random.default_rng(self.seed))]
            ev.model.save(params, self.model_path)
            loaded = ev.model.load(self.model_path)
            if (_params_digest(loaded) != _params_digest(params)
                    or loaded.config != params.config
                    or loaded.train_meta != params.train_meta):
                failures.append(f"{kind}: EVTM round trip differs")
        ev.data.write_evts(self.target, self.data_path)
        back = ev.data.read_evts(self.data_path)
        stored = values.astype("<f4").astype(np.float64)
        if (back.values.tobytes() != stored.tobytes()
                or back.labels.tobytes() != labels.tobytes()
                or back.num_classes != self.target.num_classes):
            failures.append("EVTS round trip differs")
        pass_s = time.perf_counter() - started
        return Unit(key="pass", fingerprint=_digest(*results),
                    steps_ms=[pass_s * 1e3],
                    work=len(values) * len(self.models), work_s=pass_s,
                    extra=extra, failures=failures)

    def named(self, units):
        calls = {}
        for u in units:
            for name, ms in u.extra.items():
                calls.setdefault(name.partition(".")[2], []).extend(ms)
        out = {}
        for kind, ms in sorted(calls.items()):
            p50, p75 = np.percentile(ms, [50, 75])
            out[f"predict_ms_p50.{kind}"] = (float(p50), "ms")
            out[f"predict_ms_p75.{kind}"] = (float(p75), "ms")
        return out

    def cleanup(self):
        for path in (self.model_path, self.data_path):
            path.unlink(missing_ok=True)


class GradcheckWorkload(Workload):
    """The finite-difference gradient suites, one suite per unit, each at
    `GRADCHECK_POINTS` points so that every suite gets several timed pairs.
    All but `end2end` take the workload seed; `end2end` takes
    `END2END_SEED`."""

    step = "suite"
    work_name = "suite_runs_per_s"
    coverage_roots = ("checks.run_suite.",)

    def setup(self, ev, seed):
        self.seed = seed
        self.suites = ev.checks.SUITES
        self.cycle = len(self.suites)

    def unit(self, ev, index):
        suite = self.suites[index % len(self.suites)]
        seed = END2END_SEED if suite == "end2end" else self.seed
        started = time.perf_counter()
        error, tolerance = ev.checks.run_suite(
            suite, points=GRADCHECK_POINTS, seed=seed)
        suite_s = time.perf_counter() - started
        failures = []
        if not error <= tolerance:
            failures.append(f"{suite}: error {error!r} over {tolerance!r}")
        return Unit(key=suite, fingerprint=_digest(error),
                    steps_ms=[suite_s * 1e3], work=1, work_s=suite_s,
                    failures=failures)

    def named(self, units):
        """`gradcheck_s`: one pass over all suites, each at its median."""
        by_suite = {}
        for u in units:
            by_suite.setdefault(u.key, []).append(u.work_s)
        return {"gradcheck_s": (sum(statistics.median(times)
                                    for times in by_suite.values()), "s")}


WORKLOADS = {
    "uda_single_ce": lambda: UdaWorkload(None, "ce"),
    "uda_multiscale_M": lambda: UdaWorkload("M", "none"),
    "eval_predict": EvalWorkload,
    "gradcheck_suite": GradcheckWorkload,
}


# -- running -------------------------------------------------------------------


class Runner:
    """Runs one side's units, under `tracer` if given, and keeps them."""

    def __init__(self, workload, ev, tracer=None):
        self.workload, self.ev, self.tracer = workload, ev, tracer
        self.units = []

    def run(self, index):
        try:
            if self.tracer is None:
                unit = self.workload.unit(self.ev, index)
            else:
                self.tracer.install()
                try:
                    unit = self.tracer.call(f"bench.{self.workload.name}",
                                            self.workload.unit, self.ev, index)
                finally:
                    self.tracer.uninstall()
        except self.ev.errors.ToolkitError as exc:
            unit = Unit(failures=[f"{type(exc).__name__}: {exc}"])
        self.units.append(unit)
        return unit


def run_pairs(a, b, deadline, after_pair=None):
    """Run unit `index` on `a` and on `b` back to back, from index 1 until
    the pair that would end after `deadline` (on `time.perf_counter`).

    Which side runs first flips with every cycle of inputs, so each key
    alternates between the two orders.  The run goes on at least until
    every key has run with each side first, which also repeats index 0's
    inputs.  Return (key, a seconds, b seconds, a ran first) for each pair
    where both units ran to the end (a failed check still counts as run;
    a raised `ToolkitError` does not)."""
    pairs, index, longest = [], 1, 0.0
    cycle = a.workload.cycle
    while True:
        pair_started = time.perf_counter()
        a_first = (index // cycle) % 2 == 0
        for side in ((a, b) if a_first else (b, a)):
            gc.collect()  # each unit starts from the same collector state
            side.run(index)
        unit_a, unit_b = a.units[-1], b.units[-1]
        if unit_a.work_s and unit_b.work_s:
            pairs.append((unit_a.key, unit_a.work_s, unit_b.work_s, a_first))
        index += 1
        longest = max(longest, time.perf_counter() - pair_started)
        if after_pair is not None:
            after_pair()
        if index > 2 * cycle and time.perf_counter() + longest > deadline:
            return pairs


def time_ratio(pairs):
    """`a` time over `b` time from (key, a seconds, b seconds, a first)
    pairs.

    Each key's ratio is the interquartile mean of its pairs' ratios, with
    at least the highest and the lowest left out, so the pairs whose
    halves the machine ran at different speeds drop out within the key;
    `run_pairs` runs each key with either side first about equally often.
    The result is the time of one cycle of keys on `a`, each key at its
    median `b` time times its ratio, over that cycle's time on `b`.  So a
    slowdown limited to one key shows with that key's share of the work."""
    if not pairs:
        raise SystemExit("no pair of units ran to the end")
    by_key = {}
    for key, a_s, b_s, _ in pairs:
        ratios, b_times = by_key.setdefault(key, ([], []))
        ratios.append(a_s / b_s)
        b_times.append(b_s)
    a_cycle = b_cycle = 0.0
    for ratios, b_times in by_key.values():
        ratios.sort()
        cut = max(1, len(ratios) // 4) if len(ratios) > 2 else 0
        b_time = statistics.median(b_times)
        a_cycle += b_time * statistics.fmean(ratios[cut:len(ratios) - cut])
        b_cycle += b_time
    return a_cycle / b_cycle


def check_repeats(units):
    """Fail every unit whose fingerprint differs from the first unit with
    the same key (bit-reproducibility of a repeated seed, pass or suite)."""
    first = {}
    for unit in units:
        if unit.key is None:
            continue
        if first.setdefault(unit.key, unit.fingerprint) != unit.fingerprint:
            unit.failures.append(f"repeat of {unit.key!r} differs")


def peak_rss_mb():
    """Peak resident memory of this process image in MB.

    Linux's `VmHWM` is read first: `ru_maxrss` also counts the parent's
    memory that a child shares between `vfork` and `exec`."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report_setup_ready(workload, seed, memory):
    """Body of a set-up probe: set up, note when the inputs were ready.

    A memory probe then runs a cycle of the checkout's units and the first
    unit again, so every input runs and one repeats, and reports the peak
    resident memory of the process."""
    ev = load_evits(SRC)
    workload.setup(ev, seed)
    report = {"ready": time.perf_counter()}
    if memory:
        runner = Runner(workload, ev)
        try:
            for index in range(workload.cycle + 1):
                runner.run(index)
        finally:
            workload.cleanup()
        report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report))
    return 0


def probe_setup(args, memory=False):
    """Run a set-up probe, or with `memory` a memory probe, in a fresh
    process; return its report with `setup_s`, the seconds from the
    process's start until its inputs were ready.

    Both ends read the system-wide monotonic clock behind
    `time.perf_counter`."""
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-probe"]
    env = None
    if memory:
        command.append("--memory-probe")
        env = {**os.environ, **MEMORY_PROBE_ENV}
    spawned = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=PROBE_TIMEOUT_S, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report.pop("ready") - spawned
    return report


def step_summary(units):
    """(p50, p75, samples) of the units' step times in ms."""
    steps = [ms for u in units for ms in u.steps_ms]
    p50, p75 = np.percentile(steps, [50, 75])
    return float(p50), float(p75), len(steps)


def run_untraced(args, workload, record):
    """End-to-end metrics.

    Set-up is timed in fresh processes spread over the run, and peak
    memory in one more at the end.  After one warm-up unit per side, the
    checkout's and the reference's units run in pairs until `--seconds`
    have passed."""
    started = time.perf_counter()
    deadline = started + args.seconds
    setups = [probe_setup(args)["setup_s"]]
    mine = Runner(workload, load_evits(SRC))
    workload.setup(mine.ev, args.seed)
    mine.run(0)
    ref = Runner(WORKLOADS[args.workload](), load_evits(REFERENCE))
    ref.workload.setup(ref.ev, args.seed)
    ref.run(0)

    def spread_setup_probes():
        progress = (time.perf_counter() - started) / args.seconds
        if len(setups) < 1 + int(progress * (SETUP_PROBES - 1)):
            setups.append(probe_setup(args)["setup_s"])

    pairs = run_pairs(mine, ref, deadline, spread_setup_probes)
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(args)["setup_s"])
    rss = probe_setup(args, memory=True)["peak_rss_mb"]
    for side in (mine, ref):
        check_repeats(side.units)
        side.workload.cleanup()

    metrics = {"setup_s": statistics.median(setups),
               "time_ratio": time_ratio(pairs),
               "peak_rss_mb": rss}
    timed, ref_timed = mine.units[1:], ref.units[1:]
    p50, p75, samples = step_summary(timed)
    ref_p50, ref_p75, _ = step_summary(ref_timed)
    ran = [u for u in timed if u.work_s]
    units = mine.units + ref.units
    step = workload.step
    named = {
        "setup_s": (metrics["setup_s"], "s"),
        "time_ratio": (metrics["time_ratio"], "ratio"),
        f"{step}_ms_p50": (p50, "ms"),
        f"{step}_ms_p75": (p75, "ms"),
        f"ref_{step}_ms_p50": (ref_p50, "ms"),
        f"ref_{step}_ms_p75": (ref_p75, "ms"),
        workload.work_name: (sum(u.work for u in ran)
                             / sum(u.work_s for u in ran), "1/s"),
        "peak_rss_mb": (rss, "MB"),
        **workload.named(ran),
        "failed_ratio": (sum(bool(u.failures) for u in units) / len(units),
                         "ratio"),
    }
    print(f"{workload.name}: {len(pairs)} timed pairs, {samples} {step} "
          f"samples per side, {len(setups)} set-up probes")
    for name, (value, unit) in named.items():
        print(f"  {name} = {value:.6g} {unit}")
    record.update(named={k: v for k, (v, _) in named.items()},
                  setup_s=setups, pairs=pairs)
    return units, metrics


def run_traced(args, workload, record):
    """Per-layer metrics, checkout only.  Set-up runs traced; then the
    same units run untraced and traced in pairs, so a traced unit must
    match its untraced twin bit for bit, and the pairs give the overhead."""
    deadline = time.perf_counter() + args.seconds
    ev = load_evits(SRC)
    tracer = Tracer(vars(ev))
    tracer.install()
    try:
        workload.setup(ev, args.seed)
    finally:
        tracer.uninstall()
    plain, traced = Runner(workload, ev), Runner(workload, ev, tracer)
    for side in (plain, traced):
        side.run(0)
    try:
        pairs = run_pairs(traced, plain, deadline)
    finally:
        workload.cleanup()
    units = plain.units + traced.units
    check_repeats(units)

    metrics = tracer.metrics()
    coverage = tracer.coverage(workload.coverage_roots)
    metrics["trace.coverage"] = coverage
    metrics["trace.overhead_ratio"] = time_ratio(pairs)
    if workload.coverage_floor and coverage < workload.coverage_floor:
        traced.units[0].failures.append(
            f"trace coverage {coverage:.3f} below {workload.coverage_floor}")
    record.update(pairs=pairs, spans={
        name: {"calls": c, "ms": t * 1e3, "self_ms": x * 1e3}
        for name, (c, t, x) in sorted(tracer.totals.items())})
    return units, metrics


def git_commit(root):
    if not (root / ".git").exists():  # a directory, or a file in a worktree
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(ROOT),
    }


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layer != metric_names():
        raise SystemExit("BENCHMARK.json per_layer differs from tracer.metric_names()")
    return spec


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--memory-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for src in (SRC, REFERENCE):
        if not (src / "evits" / "__init__.py").is_file():
            print(f"no evits sources under {src}", file=sys.stderr)
            return 2
    workload = WORKLOADS[args.workload]()
    workload.name = args.workload
    if args.setup_probe:
        return report_setup_ready(workload, args.seed, args.memory_probe)
    spec = load_spec()

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env}
    run = run_traced if args.trace else run_untraced
    units, metrics = run(args, workload, record)

    failures = [f for u in units for f in u.failures]
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    failed = sum(bool(u.failures) for u in units)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record.update(failures=failures, result=result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
