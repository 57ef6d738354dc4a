"""Training bit identity: the digests of `scripts/digest_runs.py` against
the record in `tests/golden/digests.json`.

Each digest covers a 2-epoch run's parameters, `TrainLog` lines and both
heads' predictions, so a change that moves any float of training fails
here.  A change that means to move them records the file again:

    python3 scripts/digest_runs.py --record tests/golden/digests.json
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "digest_runs.py"
RECORD = json.loads((ROOT / "tests" / "golden" / "digests.json").read_text())

_spec = importlib.util.spec_from_file_location("digest_runs", SCRIPT)
digest_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest_runs)


def _versions(env):
    return f"numpy {env['numpy']}, {env['blas']}, BLAS threads {env['blas_threads']}"


def test_record_covers_the_grid():
    assert list(RECORD["digests"]) == [digest_runs.label(e) for e in digest_runs.GRID]


@pytest.mark.parametrize("entry", digest_runs.GRID, ids=digest_runs.label)
def test_digest_matches_record(entry):
    name = digest_runs.label(entry)
    recorded, current = RECORD["digests"][name], digest_runs.digest(*entry)
    assert current == recorded, (
        f"{name}: recorded {recorded} ({_versions(RECORD)}), "
        f"now {current} ({_versions(digest_runs.environment())})")


@pytest.mark.parametrize("threads", ["1", "2", None], ids=["1", "2", "unset"])
def test_digests_do_not_depend_on_blas_threads(threads):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    lines = subprocess.run([sys.executable, str(SCRIPT)], env=env, check=True,
                           capture_output=True, text=True).stdout.splitlines()
    current = dict(line.rsplit(" sha256=", 1) for line in lines)
    moved = [f"{name}: recorded {sha}, now {current.get(name)}"
             for name, sha in RECORD["digests"].items() if current.get(name) != sha]
    assert not moved, f"OPENBLAS_NUM_THREADS={threads or 'unset'}: " + "; ".join(moved)
