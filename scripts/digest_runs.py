#!/usr/bin/env python3
"""Print one SHA-256 per fixed training configuration.

Each digest covers the trained parameters, the `TrainLog` lines and both
heads' `predict` outputs on the target domain after a 2-epoch run.  The
grid covers every down-sampling variant (LM at 3 scales, L at an odd
length so that its conv output is cropped), every alignment method and
every evidential kind, so two source trees that print the same lines
train and predict bit for bit alike on all of them:

    python3 scripts/digest_runs.py > digests.txt
"""

import hashlib
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


def main():
    for entry in GRID:
        variant, num_scales, length, method, evidential = entry
        print(f"variant={variant} scales={num_scales} length={length} "
              f"method={method} evidential={evidential} "
              f"sha256={digest(*entry)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
