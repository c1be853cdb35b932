#!/usr/bin/env python3
"""Sweep the four triangle-inequality cases over their p-ranges.

Writes one CSV per case (plus a p/defect file for plotting) under --out-dir
and prints a one-line summary per case.  Exit status follows the worst
verdict encountered: 0 all Confirmed, 1 any Refuted, 2 any Inconclusive;
SKIPPED rows (grid points outside a case's precondition) are ignored.
"""
import argparse
import pathlib
import sys
import time

from disknorms.cli import (SWEEP_CASES, plot_csv, run_sweep, sweep_csv,
                           sweep_exit_code)
from disknorms.verify import DEFAULT_KAPPA

# per-case default p-ranges; the large-p case stops at 0.9 because the
# Bergman norms of the pair are honest only below it: the radial mass below
# the depth floor is in neither the value nor its estimate.  At 0.9 (window
# midpoint) the norms at least come back unconverged, though with an
# estimate 5x short of the error; above it they come back converged and
# wrong (error 0.108 against an estimate of 2.5e-7 at 0.95).  Ending the
# range below 0.9 waits on ROADMAP item 3.
RANGES = {
    "hp-counterexample": (0.05, 0.95),
    "hp-equality": (0.05, 0.95),
    "ap-large-p": (0.5, 0.9),
    "ap-small-p": (0.05, 0.49),
}
if sorted(RANGES) != sorted(SWEEP_CASES):
    raise RuntimeError(f"RANGES covers {sorted(RANGES)}, but the sweepable "
                       f"cases are {sorted(SWEEP_CASES)}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out-dir", type=pathlib.Path, default="results",
                    help="directory for the CSV output (default: results)")
    ap.add_argument("--steps", type=int, default=9,
                    help="grid points per sweep (default: 9)")
    ap.add_argument("--kappa", type=float, default=DEFAULT_KAPPA,
                    help="margin multiplier on summed error estimates "
                         f"(default: {DEFAULT_KAPPA:g})")
    ap.add_argument("--case", action="append", choices=sorted(RANGES),
                    help="restrict to one or more cases (default: all)")
    args = ap.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for case in (args.case or list(RANGES)):
        lo, hi = RANGES[case]
        start = time.perf_counter()
        rows = run_sweep(case, lo, hi, args.steps, kappa=args.kappa)
        elapsed = time.perf_counter() - start

        text = sweep_csv(case, rows)
        (args.out_dir / f"{case}.csv").write_text(text)
        (args.out_dir / f"{case}-defect.csv").write_text(plot_csv(rows))

        summary = text.strip().splitlines()[-1].lstrip("# ")
        print(f"{case:20s} {elapsed:6.1f}s  {summary}")
        worst = max(worst, sweep_exit_code(rows))
    return worst


if __name__ == "__main__":
    sys.exit(main())
