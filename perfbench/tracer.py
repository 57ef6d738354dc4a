"""Outside-in span tracer for the evits benchmark.

The tracer wraps public functions of the evits modules from outside the
package: every module namespace that binds a traced function (including
`from`-imports such as `trainer.backward` or `checks.grad_check`) gets the
wrapper, and `uninstall` puts the originals back.  Nothing under `src/`
knows about it.

Spans are aggregated per name in memory (calls, inclusive seconds, self
seconds), which keeps the hundreds of thousands of tape-op spans of the
gradient suites cheap.  Self time is a span's duration minus the time its
direct child spans took.  Tape ops additionally wrap the backward closure
of the node they return; those closures run under `tensor.backward` and
are recorded as `<op>.bwd` child spans.
"""

from __future__ import annotations

import time

TAPE_OPS = ("conv1d", "pool1d", "matmul", "add", "mul", "div", "power",
            "relu", "tsum", "concat", "softplus")

# module -> traced public functions
SPANS = {
    "tensor": TAPE_OPS + ("backward", "grad_check"),
    "special": ("lgamma", "digamma", "trigamma"),
    "evidential": ("evidential_total", "evidence_to_alpha"),
    "multiscale": ("build_scales", "aux_classification_loss"),
    "alignment": ("alignment_loss", "mmd_rbf", "sliced_wd"),
    "model": ("forward", "predict", "make_param_tensors", "save", "load"),
    "trainer": ("train", "combined_loss"),
    "metrics": ("macro_f1", "ece"),
    "data": ("synth_generate", "write_evts", "read_evts"),
    "checks": ("run_suite",),
}

SUITES = ("ml", "ce", "mse", "kl", "alignment", "end2end")


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "train")
    return f"model.forward.{mode}"


def _suite_name(args, kwargs):
    return f"checks.run_suite.{args[0] if args else kwargs['name']}"


_DYNAMIC_NAMES = {"model.forward": _forward_name,
                  "checks.run_suite": _suite_name}


def _is_tape_op(name):
    module, _, func = name.partition(".")
    return module == "tensor" and func in TAPE_OPS


def span_names():
    """Every span name the per-layer report covers, in report order."""
    names = []
    for module, funcs in SPANS.items():
        for func in funcs:
            base = f"{module}.{func}"
            if base == "model.forward":
                names += ["model.forward.train", "model.forward.eval"]
            elif base == "checks.run_suite":
                names += [f"{base}.{suite}" for suite in SUITES]
            else:
                names.append(base)
    return names


def metric_names():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for name in span_names():
        if name.startswith("checks.run_suite."):
            out.append((f"{name}.ms", "ms", "lower"))
            continue
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.ms", "ms", "lower"))
        out.append((f"{name}.self_ms", "ms", "lower"))
        if _is_tape_op(name):
            out.append((f"{name}.bwd_ms", "ms", "lower"))
    out.append(("trace.coverage", "ratio", "higher"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class Tracer:
    """Per-name span aggregates for one process; install/uninstall patches."""

    def __init__(self, modules):
        self.modules = modules  # short name -> imported evits module
        self.totals = {}        # span name -> [calls, seconds, self seconds]
        self._stack = []        # open spans: [child seconds]
        self._patched = []      # (namespace, attribute, original)

    # -- recording ---------------------------------------------------------
    def _close(self, name, frame, elapsed):
        self._stack.pop()
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def call(self, name, fn, *args, **kwargs):
        """Run `fn` under a span called `name`."""
        frame = [0.0]
        self._stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, frame, time.perf_counter() - started)

    def _wrap_backward(self, closure, name):
        def traced_backward(g):
            return self.call(name, closure, g)
        traced_backward.traced = True
        return traced_backward

    def _wrap(self, fn, base, tape_op):
        namer = _DYNAMIC_NAMES.get(base)
        bwd_name = f"{base}.bwd"

        def traced(*args, **kwargs):
            name = namer(args, kwargs) if namer else base
            out = self.call(name, fn, *args, **kwargs)
            closure = out._backward if tape_op else None
            if closure is not None and not getattr(closure, "traced", False):
                out._backward = self._wrap_backward(closure, bwd_name)
            return out

        return traced

    # -- patching ----------------------------------------------------------
    def install(self):
        namespaces = [vars(m) for m in self.modules.values()]
        for module, funcs in SPANS.items():
            for func in funcs:
                original = getattr(self.modules[module], func)
                base = f"{module}.{func}"
                wrapper = self._wrap(original, base, _is_tape_op(base))
                for namespace in namespaces:
                    for attr, value in list(namespace.items()):
                        if value is original:
                            namespace[attr] = wrapper
                            self._patched.append((namespace, attr, original))

    def uninstall(self):
        while self._patched:
            namespace, attr, original = self._patched.pop()
            namespace[attr] = original

    # -- report ------------------------------------------------------------
    def coverage(self, root_prefixes):
        """Share of the root spans' time that named child spans cover."""
        total = covered = 0.0
        for name, (_, seconds, self_seconds) in self.totals.items():
            if name.startswith(root_prefixes):
                total += seconds
                covered += seconds - self_seconds
        return covered / total if total else 0.0

    def metrics(self):
        """Per-layer values keyed like `metric_names`, zeros for idle spans."""
        out = {}
        for metric, _, _ in metric_names():
            span, _, field = metric.rpartition(".")
            if span == "trace":
                continue  # filled in by the caller
            if field == "bwd_ms":
                span, field = f"{span}.bwd", "ms"
            calls, seconds, self_seconds = self.totals.get(span, (0, 0.0, 0.0))
            out[metric] = {"calls": calls, "ms": seconds * 1e3,
                           "self_ms": self_seconds * 1e3}[field]
        return out
