"""The names the benchmark harness in perfbench/ reads from the toolkit.

`--trace 1` wraps every function named in the tracer's SPANS by looking it
up with getattr, the harness imports every module in EVITS_MODULES, and it
builds its configs by keyword, so deleting or renaming one of them breaks
the benchmark, not the toolkit.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_span_resolves_to_a_callable():
    for module, names in _tracer().SPANS.items():
        evits_module = importlib.import_module(f"evits.{module}")
        for name in names:
            assert callable(getattr(evits_module, name, None)), f"{module}.{name}"


def _run_py():
    return ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))


def test_every_benchmarked_module_imports():
    tree = _run_py()
    modules = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "EVITS_MODULES" for t in node.targets)]
    assert len(modules) == 1 and modules[0]
    for name in modules[0]:
        importlib.import_module(f"evits.{name}")


CONFIG_CLASSES = {"ModelConfig": "model", "TrainConfig": "trainer",
                  "LossWeights": "trainer", "BenchmarkSettings": "experiments"}


def test_every_config_keyword_is_a_field():
    calls = [node for node in ast.walk(_run_py()) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) in CONFIG_CLASSES]
    assert {call.func.attr for call in calls} == set(CONFIG_CLASSES)
    for call in calls:
        module = importlib.import_module(f"evits.{CONFIG_CLASSES[call.func.attr]}")
        fields = {f.name for f in dataclasses.fields(getattr(module, call.func.attr))}
        for keyword in call.keywords:
            if keyword.arg is not None:  # a ** spread names no field here
                assert keyword.arg in fields, f"{call.func.attr}({keyword.arg}=...)"
