#!/usr/bin/env python3
"""Run the desk-scale synthetic UDA study and print its verdicts.

Trains every arm of `experiments.STUDY_ARMS` on every seed (methods x
{plain, evidential-CE}, extra shift strengths for the uncertainty
correlation, plus the multi-scale max-pool arm) and prints
`experiments.verdicts`: one PASS or FAIL line per sub-claim of acceptance
criteria 5 and 6, the same lines the acceptance test prints.  Writes one
CSV row per run when --out is given.
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

    def progress(result):
        arm = result.arm
        print(f"seed {result.seed} {arm.method}+{arm.evidential}"
              f"{' +M_' + arm.variant if arm.variant else ''} "
              f"shift {arm.shift_strength}: "
              f"target F1 {result.target_f1:.3f} "
              f"ECE {result.target_ece:.3f} "
              f"u {result.uncertainty_source:.2f}->"
              f"{result.uncertainty_target:.2f} "
              f"({result.wall_clock:.1f}s)", flush=True)

    runs = ex.run_benchmark(settings, seeds=range(args.seeds),
                            progress=progress)

    print("\n=== verdicts ===")
    for verdict in ex.verdicts(runs):
        print(verdict.line())

    if args.out:
        # the arm's fields stand in for `arm`; rows go arm by arm in
        # `STUDY_ARMS` order, seeds within
        names = ["seed", *(f.name for f in dataclasses.fields(ex.Arm)),
                 *(f.name for f in dataclasses.fields(ex.RunResult)
                   if f.name not in ("seed", "arm", "wall_clock"))]
        cells = [{**vars(r.arm), **vars(r)} for rows in runs.values() for r in rows]
        lines = [",".join(names)] + [
            ",".join("none" if c is None else c if isinstance(c, str) else repr(c)
                     for c in (cell[name] for name in names))
            for cell in cells]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"rows written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
