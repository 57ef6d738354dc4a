#!/usr/bin/env python3
"""Run the desk-scale synthetic UDA study and print its verdicts.

Trains every benchmark configuration (methods x {plain, evidential-CE},
extra shift strengths for the uncertainty correlation, plus the
multi-scale max-pool arm) and prints `experiments.verdicts`: one PASS or
FAIL line per sub-claim of acceptance criteria 5 and 6, the same lines the
acceptance test prints.  Writes one CSV row per run when --out is given.
"""

import argparse
import dataclasses
import sys

from evits import experiments as ex


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--epochs", type=int,
                        default=ex.BenchmarkSettings().epochs)
    parser.add_argument("--out", help="write per-run rows as CSV")
    args = parser.parse_args(argv)

    settings = ex.BenchmarkSettings(epochs=args.epochs)

    def progress(key, result):
        method, evidential, variant, strength = key
        print(f"seed {result.seed} {method}+{evidential}"
              f"{' +M_' + variant if variant else ''} shift {strength}: "
              f"target F1 {result.target_f1:.3f} "
              f"ECE {result.target_ece:.3f} "
              f"u {result.uncertainty_source:.2f}->"
              f"{result.uncertainty_target:.2f} "
              f"({result.wall_clock:.1f}s)", flush=True)

    outcome = ex.run_benchmark(settings, seeds=range(args.seeds),
                               progress=progress)

    print("\n=== verdicts ===")
    for verdict in ex.verdicts(outcome):
        print(verdict.line())

    if args.out:
        names = [f.name for f in dataclasses.fields(ex.RunResult)
                 if f.name != "wall_clock"]
        lines = [",".join(names)] + [
            ",".join("none" if c is None else c if isinstance(c, str) else repr(c)
                     for c in (getattr(r, name) for name in names))
            for rows in outcome.runs.values() for r in rows]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"rows written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
