#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N \\
        --seeds S [S ...] [--seconds 25] [--trace-seed T [T ...]] [--out FILE]

Runs ``perfbench/run.py --trace 0`` from each checkout once per pair, with
the pair's seed; the parent runs first on even pairs and the change on odd
ones.  --seeds gives one seed per pair, or a first seed that the pairs count
up from.  The result is the workload's block of a BENCH_*.json: every run of
each end-to-end metric, the medians, the quartiles (numpy.percentile 25 and
75), the change's relative move and the pairs it wins (better is read from
the change's BENCHMARK.json; ties count for neither) and a verdict (see
verdict), the same spread of the raw wall_s seconds with no verdict,
whether every run was correct, and the distinct outputs_sha256 digests of
each side.  With --trace-seed it adds one ``--trace 1`` run per side and
seed, alternating as the pairs do, and reports each per-layer value as the
median of that side's traced runs, the names of the per-layer counts whose
medians differ between the sides (counts_differ) and, per side, of those
that differ between that side's own runs (counts_unrepeated), since a count
must repeat exactly.  The block is printed; with --out it is also stored
under ["workloads"][W] of that JSON file, which is created when missing.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """The result of one perfbench/run.py run from its standard output: the
    JSON object of its last line, plus its outputs_sha256 digest and its
    raw median pass time wall_s in seconds, when printed."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        _, sep, value = line.partition(" outputs_sha256 = ")
        if sep:
            result["digest"] = value.strip()
        _, sep, value = line.partition(" wall_s = ")
        if sep:
            result["wall_s"] = float(value.split()[0])
    return result


def run(checkout: pathlib.Path, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    """One run of the benchmark of checkout; correct only when it exits 0."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=1800)
    result = parse_run(proc.stdout)
    result["correct"] = result["correct"] and proc.returncode == 0
    return result


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """The verdict on one end-to-end metric from its runs in pairs.

    "gain": the change wins at least nine tenths of the pairs (ties count
    for neither) and its median is better than the parent's by more than
    the parent's quartile spread.  "regression": its median is worse than
    the parent's by more than bound, relative to the parent's median.
    "unresolved": neither, and the parent's quartile spread is wider than
    bound (relative), unless every change run beats every parent run.
    Otherwise "within bound"."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = statistics.median(parent), statistics.median(change)
    q1, q3 = np.percentile(parent, [25, 75])
    wins = sum(sign * (y - x) < 0.0 for x, y in zip(parent, change))
    if wins >= 0.9 * len(parent) and sign * (p - c) > q3 - q1:
        return "gain"
    if sign * (c - p) > bound * abs(p):
        return "regression"
    every_run_better = all(sign * (y - x) < 0.0
                           for x in parent for y in change)
    if q3 - q1 > bound * abs(p) and not every_run_better:
        return "unresolved"
    return "within bound"


def spread(values: dict) -> dict:
    """The medians, the change's relative move, the quartiles
    (numpy.percentile 25 and 75) and the runs of values[side], each side's
    values of one quantity."""
    parent_median = statistics.median(values["parent"])
    change_median = statistics.median(values["change"])
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "change_frac": (change_median / parent_median - 1.0
                        if parent_median else None),
        **{f"{side}_quartiles": np.percentile(values[side], [25, 75]).tolist()
           for side in SIDES},
        **{f"{side}_runs": values[side] for side in SIDES},
    }


def summarize(runs: dict, better: dict, bounds: dict = None) -> dict:
    """The end-to-end block of pairs of runs: runs[side][i] is the result of
    pair i on that side, better[name] is "lower" or "higher", and
    bounds[name], when given, the relative bound of each metric, which
    adds its verdict.  When every run printed its raw wall_s, the block
    adds its spread too, with no verdict: wall_ref is the metric judged,
    and wall_s shows whether the raw seconds move the same way."""
    n = len(runs["parent"])
    block = {"end_to_end": {}}
    for name, metric in runs["change"][0]["metrics"].items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        sign = 1.0 if better[name] == "lower" else -1.0
        block["end_to_end"][name] = {
            "unit": metric["unit"],
            **spread(values),
            f"change_wins_of_{n}_pairs": sum(
                sign * (c - p) < 0.0
                for p, c in zip(values["parent"], values["change"])),
        }
        if bounds and name in bounds:
            block["end_to_end"][name]["verdict"] = verdict(
                values["parent"], values["change"], better[name], bounds[name])
    if all("wall_s" in r for side in SIDES for r in runs[side]):
        block["wall_s"] = {"unit": "s", **spread(
            {side: [r["wall_s"] for r in runs[side]] for side in SIDES})}
    digests = {side: sorted({r.get("digest") for r in runs[side]})
               for side in SIDES}
    block["outputs_sha256"] = {**digests, "equal": (
        len(digests["parent"]) == 1 and digests["parent"] == digests["change"])}
    block["all_runs_correct"] = {side: all(r["correct"] for r in runs[side])
                                 for side in SIDES}
    return block


def per_layer(traced: dict) -> dict:
    """The per-layer values of the traced runs traced[side] (a list), each
    side's median and runs side by side; counts_differ, the names of the
    metrics of unit count whose medians differ between the sides; and
    counts_unrepeated, per side, the names of those whose values differ
    between that side's runs."""
    names = traced["change"][0]["metrics"]
    values = {side: {name: [r["metrics"][name]["value"] for r in traced[side]]
                     for name in names} for side in SIDES}
    layers = {name: {"unit": names[name]["unit"],
                     **{side: statistics.median(values[side][name])
                        for side in SIDES},
                     **{f"{side}_runs": values[side][name] for side in SIDES}}
              for name in names}
    counts = [name for name in names if names[name]["unit"] == "count"]
    return {
        "per_layer": layers,
        "counts_differ": [name for name in counts
                          if layers[name]["parent"] != layers[name]["change"]],
        "counts_unrepeated": {
            side: [name for name in counts if len(set(values[side][name])) > 1]
            for side in SIDES},
        "traced_failed_of_attempted": {
            side: [[r["failed"], r["attempted"]] for r in traced[side]]
            for side in SIDES},
        "traced_outputs_sha256": {
            side: sorted({r.get("digest") for r in traced[side]})
            for side in SIDES},
        "traced_runs_correct": {side: all(r["correct"] for r in traced[side])
                                for side in SIDES},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace-seed", type=int, nargs="+")
    ap.add_argument("--out", type=pathlib.Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    seeds = args.seeds
    if len(seeds) == 1:
        seeds = list(range(seeds[0], seeds[0] + args.pairs))
    elif len(seeds) != args.pairs:
        ap.error(f"--seeds gives {len(seeds)} seeds for {args.pairs} pairs")
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload {args.workload!r} is not in the change's "
                 f"BENCHMARK.json: {', '.join(names)}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def alternating(seeds: list, trace: int) -> dict:
        """One run per seed and side, the parent first on even seeds."""
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result = run(checkouts[side], args.workload, seed,
                             args.seconds, trace)
                runs[side].append(result)
                wall_ref = result["metrics"].get("wall_ref", {}).get("value")
                print(f"# {'traced' if trace else 'pair'} {i} seed {seed} "
                      f"{side}: correct={result['correct']} "
                      f"wall_ref={wall_ref} wall_s={result.get('wall_s')}",
                      file=sys.stderr, flush=True)
        return runs

    block = summarize(alternating(seeds, 0), better, bounds)
    if args.trace_seed:
        block.update(per_layer(alternating(args.trace_seed, 1)))

    print(json.dumps(block, indent=2))
    if args.out:
        doc = (json.loads(args.out.read_text()) if args.out.exists()
               else {})
        doc.setdefault("workloads", {})[args.workload] = block
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    correct = all(block["all_runs_correct"].values()) and all(
        block.get("traced_runs_correct", {}).values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
