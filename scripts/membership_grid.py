#!/usr/bin/env python3
"""Tabulate membership of (1-z)^{-alpha} in the Bergman space A^p.

For every (alpha, p) on the grid this prints the rule-based classification
(p*alpha vs 2) next to the numerical growth diagnostic obtained from
truncated integrals over disks of radius 1 - 2^-k.  Each point's verdict
is verify_lemma_ap's: the diagnostic must be Convergent exactly at the
Member points, so a Boundary point must look divergent.  Exit status is 0
when every point is Confirmed, 1 otherwise.
"""
import argparse
import dataclasses
import json
import sys

from disknorms.verify import verify_lemma_ap


def _floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--alphas", type=_floats, default=[0.5, 1.0, 2.0, 4.0],
                    help="comma-separated alpha values")
    ap.add_argument("--ps", type=_floats, default=[0.25, 0.5, 0.9, 1.5],
                    help="comma-separated p values")
    ap.add_argument("--json", action="store_true",
                    help="emit the full evidence records as JSON")
    args = ap.parse_args(argv)

    reports = [verify_lemma_ap(alpha, p)
               for alpha in args.alphas for p in args.ps]
    verdicts = [dict(r.sub_results)["evidence"] for r in reports]

    if args.json:
        print(json.dumps([dataclasses.asdict(v) for v in verdicts],
                         indent=2))
    else:
        print(f"{'alpha':>7} {'p':>6} {'p*alpha':>8}  "
              f"{'classification':<14} {'diagnostic':<14} {'I(R_max)':>12}")
        for v in verdicts:
            last = v.evidence[-1][1]
            print(f"{v.alpha:7.3g} {v.p:6.3g} {v.product:8.4g}  "
                  f"{v.classification:<14} {v.diagnostic:<14} {last:12.6g}")

    disagreements = [r for r in reports if r.verdict != "Confirmed"]
    print(f"# {len(verdicts)} points, "
          f"{len(disagreements)} classifier/evidence disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
