#!/usr/bin/env python3
"""Print one SHA-256 per fixed training configuration.

Each digest covers the trained parameters, the `TrainLog` lines and both
heads' `predict` outputs on the target domain after a 2-epoch run.  The
grid covers every down-sampling variant (LM at 3 scales, L at an odd
length, where its conv drops the last step), every alignment method and
every evidential kind, so two source trees that print the same lines
train and predict bit for bit alike on all of them:

    python3 scripts/digest_runs.py > digests.txt

`--record PATH` also writes the digests as JSON, keyed by each line's
configuration, with the numpy version, the BLAS library and the BLAS
thread settings of the run; `tests/golden/digests.json` is that record,
and `tests/test_digests.py` recomputes it.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from evits import data as da, model as mo, trainer as tr

# (variant, num_scales, length, method, evidential)
GRID = (
    (None, 0, 32, "noadapt", "ce"),
    ("M", 2, 32, "ddc", "none"),
    ("L", 2, 33, "coral", "ml"),
    ("LM", 3, 64, "homm", "mse"),
    ("A", 2, 32, "mmda", "ce"),
    ("R", 2, 32, "ddc", "ml"),
    ("LM", 2, 35, "coral", "mse"),
)


def digest(variant, num_scales, length, method, evidential, seed=0):
    spec = da.SynthSpec(num_classes=3, channels=2, length=length,
                        n_per_class=8, noise_sigma=0.3, seed=seed,
                        amp_scale=0.8, freq_offset=0.3, extra_noise=0.2)
    source = da.synth_generate(spec, "source")
    target = da.synth_generate(spec, "target")
    model_config = mo.ModelConfig(
        channels=2, length=length, num_classes=3, num_scales=num_scales,
        variant=variant, conv_widths=(4, 4, 4), kernel_sizes=(5, 3, 3),
        seed=seed)
    train_config = tr.TrainConfig(
        epochs=2, batch_size=8, learning_rate=3e-3, evidential=evidential,
        method=method, weights=tr.default_weights(method, evidential),
        seed=seed)
    params, log = tr.train(model_config, train_config, source, target)
    h = hashlib.sha256()
    for name, arr in sorted(params.arrays.items()):
        h.update(name.encode() + np.ascontiguousarray(arr).tobytes())
    h.update("\n".join(log.to_lines()).encode())
    for head in ("evidential", "softmax"):
        for out in mo.predict(params, target.values, head=head):
            h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


def label(entry):
    variant, num_scales, length, method, evidential = entry
    return (f"variant={variant} scales={num_scales} length={length} "
            f"method={method} evidential={evidential}")


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {var: os.environ.get(var) for var in threads}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="PATH",
                        help="also write the digests and the environment as JSON")
    args = parser.parse_args(argv)
    digests = {}
    for entry in GRID:
        digests[label(entry)] = digest(*entry)
        print(f"{label(entry)} sha256={digests[label(entry)]}", flush=True)
    if args.record:
        record = {**environment(), "digests": digests}
        with open(args.record, "w") as f:
            f.write(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
