"""The names the benchmark harness in perfbench/ reads from the toolkit.

`--trace 1` wraps every function named in the tracer's SPANS by looking it
up with getattr, and the harness imports every module in EVITS_MODULES, so
deleting or renaming one of them breaks the benchmark, not the toolkit.
"""

import ast
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


def test_every_benchmarked_module_imports():
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    modules = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "EVITS_MODULES" for t in node.targets)]
    assert len(modules) == 1 and modules[0]
    for name in modules[0]:
        importlib.import_module(f"evits.{name}")
