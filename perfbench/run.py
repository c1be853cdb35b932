"""Benchmark of disknorms: time to verdict and its accuracy, end to end and
per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload in turn

Run from anywhere inside a checkout; the library is imported from ``src/``
of the checkout that holds this file, in this one process and thread.  The
metrics printed, and their units, are the ones ``BENCHMARK.json`` lists.

With ``--trace 0`` a run times cold starts of the CLI (``setup_s``) and then
repeats passes over the workload's operation list until ``--seconds`` is
spent.  Each pass runs the operations in an order drawn from ``--seed``;
every result is checked, and every operation's output numbers must repeat
bit for bit in every pass.  A pass's time is reported as ``wall_ref``, its
cost in runs of a reference kernel sampled while it runs (``speed.py``),
because raw seconds on a shared machine swing with its load.

With ``--trace 1`` half the time goes to untraced passes and half to traced
ones (spans from ``tracer.py``), with the expression-layer microbenchmarks
in between; the outputs of both kinds of pass must agree, and per-layer
counts must repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the run is correct, 1 when a check failed and 2 when the library
cannot be found.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

COLD_STARTS = 9         # timed pairs of starts per run; see setup_seconds
# The reference start: an interpreter that imports numpy, the part of a cold
# start that is not disknorms.  REF_START_S is its median time on a 2-core
# machine with Python 3.11.7 and numpy 2.4.6, the speed setup_s is given at.
REF_START = ("-c", "import numpy")
REF_START_S = 0.2
MICRO_TARGET_S = 0.02    # minimum duration of one microbenchmark sample
MICRO_SAMPLES = 7


class RunState:
    """Checks, failure counts and output records of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: dict[str, str] = {}     # seed defects that showed
        self.digits: list[float] = []
        self.records: dict[str, str] = {}

    def observe(self, op, outcome, label: str) -> None:
        self.attempted += 1
        problems = list(outcome.problems)
        self.unexpected.extend(problems)
        if outcome.seed_defect:
            self.known[op.name] = outcome.seed_defect
        record = repr(outcome.record)
        if record != self.records.setdefault(op.name, record):
            problems.append(f"{op.name}: output of a {label} pass differs "
                            f"from the first pass")
            self.unexpected.append(problems[-1])
        self.failed += bool(problems or outcome.seed_defect)
        self.digits.extend(outcome.digits)

    @property
    def correct(self) -> bool:
        return not self.unexpected

    def digest(self) -> str:
        text = "\n".join(f"{k}\t{v}" for k, v in sorted(self.records.items()))
        return hashlib.sha256(text.encode()).hexdigest()


def run_passes(workload, rng, budget: float, state: RunState, label: str,
               after_pass=None, min_passes: int = 1
               ) -> tuple[list[float], list[float]]:
    """Passes over the operation list until the next one would overrun
    budget seconds, and at least min_passes.  Returns, for each pass, its
    time in the library and its cost in reference kernels (see speed.py).

    An operation that raises counts as failed; the pass goes on.
    """
    from speed import SpeedProbe
    from workloads import Outcome

    probe = SpeedProbe()
    ops = workload.ops
    times: list[float] = []
    costs: list[float] = []
    start = time.perf_counter()
    while True:
        seconds = cost = 0.0
        for i in rng.permutation(len(ops)):
            op = ops[i]
            try:
                result, op_seconds, op_cost = probe.measure(op.run)
                outcome = op.check(result)
            except Exception as exc:
                op_seconds = op_cost = 0.0
                outcome = Outcome(problems=[f"{op.name}: raised {exc!r}"],
                                  record=("raised", repr(exc)))
            seconds += op_seconds
            cost += op_cost
            state.observe(op, outcome, label)
        times.append(seconds)
        costs.append(cost)
        if after_pass is not None:
            after_pass()
        elapsed = time.perf_counter() - start
        if (len(times) >= min_passes
                and elapsed + statistics.median(times) > budget):
            return times, costs


def setup_seconds(workload) -> tuple[float, float]:
    """(setup_s, the median raw time of the cold starts in seconds).

    A cold start is a fresh interpreter that imports disknorms and
    disknorms.cli and parses the workload's expressions (cold_start.py).
    The machine's speed drifts by tens of percent over minutes, and the
    time of a cold start with it.  So each timed cold start comes right
    after a reference start, which drifts alike, and setup_s is the median
    ratio of the two times REF_START_S: the cold start's time at the speed
    of the machine REF_START_S was measured on.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cold = [sys.executable, str(HERE / "cold_start.py"), *workload.expressions]
    ref = [sys.executable, *REF_START]

    def seconds(cmd) -> float:
        # No timeout: with one, subprocess polls the child and rounds the
        # wait up to its polling interval.
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        return time.perf_counter() - t0

    ratios, raw = [], []
    # the first pair writes bytecode caches; users start with them in place
    for i in range(COLD_STARTS + 1):
        r = seconds(ref)
        t = seconds(cold)
        if i:
            ratios.append(t / r)
            raw.append(t)
    return statistics.median(ratios) * REF_START_S, statistics.median(raw)


def ns_per_point(call, points: int) -> float:
    """Median time of call() per point, in ns, over samples of at least
    MICRO_TARGET_S each."""
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            call()
        if time.perf_counter() - t0 >= MICRO_TARGET_S:
            break
        loops *= 2
    samples = []
    for _ in range(MICRO_SAMPLES):
        t0 = time.perf_counter()
        for _ in range(loops):
            call()
        samples.append((time.perf_counter() - t0) / (loops * points) * 1e9)
    return statistics.median(samples)


def microbenchmarks(workload, rng) -> dict:
    """expr.near and expr.value at 15 and 15,000 points on the workload's
    first expression."""
    from disknorms import BoundaryEvaluator
    from workloads import microbench_inputs

    out = {}
    for n in (15, 15000):
        expr, anchor, delta, z = microbench_inputs(workload, rng, n)
        ev = BoundaryEvaluator(expr, workload.env)
        out[f"expr.near.ns_per_point.b{n}"] = ns_per_point(
            lambda: ev.near(anchor, delta, 0.0), n)
        out[f"expr.value.ns_per_point.b{n}"] = ns_per_point(
            lambda: ev.value(z), n)
    return out


def traced_run(workload, rng, seconds: float, state: RunState) -> dict:
    from tracer import Tracer

    _, untraced = run_passes(workload, rng, seconds / 2.0, state, "untraced")
    values = microbenchmarks(workload, rng)
    tracer = Tracer()
    snapshots = []

    def after_pass():
        snapshots.append(tracer.snapshot())
        tracer.reset()

    tracer.install()
    try:
        # two traced passes at least, so that the counts can be compared
        _, traced = run_passes(workload, rng, seconds / 2.0, state, "traced",
                               after_pass, min_passes=2)
    finally:
        tracer.uninstall()

    for key, value in snapshots[0].items():
        if key.endswith(".self_s"):
            values[key] = statistics.median(s[key] for s in snapshots)
            continue
        values[key] = value
        if any(s[key] != value for s in snapshots):
            state.unexpected.append(f"per-layer count {key} differs between "
                                    f"traced passes")
    values["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(untraced) - 1.0)
    return values


def untraced_run(workload, rng, seconds: float, state: RunState) -> dict:
    setup_s, setup_raw = setup_seconds(workload)
    times, costs = run_passes(workload, rng, seconds, state, "untraced")
    print(f"{workload.name} wall_s = {statistics.median(times):.6g} s, "
          f"cold start = {setup_raw:.6g} s (raw, not steady on a shared "
          f"machine; wall_ref and setup_s are)")
    return {
        "wall_ref": statistics.median(costs),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": 1.0 - state.failed / state.attempted,
        "min_digits": min(state.digits, default=0.0),
    }


def select(spec: list, values: dict) -> dict:
    """The metrics spec names, with their units; any mismatch is a bug."""
    names = [m["name"] for m in spec]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"missing {missing}, unlisted {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def run_one(args, spec: dict) -> int:
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    state = RunState()
    if args.trace:
        metrics = select(spec["per_layer"],
                         traced_run(workload, rng, args.seconds, state))
    else:
        metrics = select(spec["end_to_end"],
                         untraced_run(workload, rng, args.seconds, state))

    for problem in dict.fromkeys(state.unexpected):
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, reason in state.known.items():
        print(f"# failed as at the seed, {name}: {reason}")
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload.name} ops_failed_frac = "
          f"{state.failed / state.attempted:.6g} "
          f"({state.failed} of {state.attempted})")
    print(f"{workload.name} outputs_sha256 = {state.digest()}")
    print(json.dumps({"correct": state.correct, "attempted": state.attempted,
                      "failed": state.failed, "metrics": metrics}))
    return 0 if state.correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, so each gets its own peak RSS."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = {"correct": False}
        summary["correct"] &= proc.returncode == 0 and result["correct"]
        summary["attempted"] += result.get("attempted", 0)
        summary["failed"] += result.get("failed", 0)
        for name, m in result.get("metrics", {}).items():
            summary["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "disknorms" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC / 'disknorms'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0.0:
        ap.error("--seconds must be positive")

    if args.workload == "all":
        return run_all(args, spec)
    # one thread, whatever BLAS numpy was built with; numpy is imported below
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
