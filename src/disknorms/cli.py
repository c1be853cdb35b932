"""Command-line front end: norm evaluation, verification cases, parameter
sweeps, membership queries.

Exit codes are deterministic: 0 for Confirmed (or a converged norm), 1 for
Refuted, 2 for Inconclusive (or a norm that failed to converge), 3 for
usage and input errors.  Structured output is CSV for sweeps and JSON
(--json) elsewhere; floats in CSV carry 17 significant digits so parsing
the text reproduces the in-memory values exactly.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from . import verify as verify_mod
from .bergman import bergman_norm, membership_classify, membership_evidence
from .expr import ExprError, PARAM_NAMES, parse
from .hardy import hardy_norm
from .quad import QuadConfig
from .verify import DEFAULT_KAPPA, _check_inputs, eps_window

__all__ = ["main", "entry", "run_sweep", "SweepRow", "sweep_csv", "plot_csv",
           "sweep_exit_code", "SWEEP_CASES"]

_EXIT_BY_VERDICT = {"Confirmed": 0, "Refuted": 1, "Inconclusive": 2}


@dataclass(frozen=True)
class _Case:
    """One verification case: the flags it needs, its runner
    (args, cfg, env) -> VerificationReport and, when it can be swept over
    p, the names of its f and f+g norm sub-results (the norm of g is that
    of f)."""
    needs: tuple
    run: Callable
    subs: Optional[tuple] = None


# The one list of verification cases; the parser, verify and sweep read it.
# Runners look the builders up in the verify module when they run, so a
# replaced builder is the one called.
_CASES = {
    "lemma-cvh": _Case(("expr", "p"), lambda a, cfg, env:
        verify_mod.verify_lemma_cvh(parse(a.expr), a.p, cfg, env=env,
                                    kappa=a.kappa)),
    "lemma-cv": _Case(("expr", "p"), lambda a, cfg, env:
        verify_mod.verify_lemma_cv(parse(a.expr), a.p, cfg, env=env,
                                   kappa=a.kappa)),
    "lemma-elem": _Case(("a", "b"), lambda a, cfg, env:
        verify_mod.verify_elem_inequality(a.a, a.b, a.q)),
    "lemma-ap": _Case(("alpha", "p"), lambda a, cfg, env:
        verify_mod.verify_lemma_ap(a.alpha, a.p)),
    "hp-counterexample": _Case(("p",), lambda a, cfg, env:
        verify_mod.verify_hp_counterexample(a.p, cfg, kappa=a.kappa),
        ("norm_f", "norm_sum")),
    "hp-equality": _Case(("p",), lambda a, cfg, env:
        verify_mod.verify_hp_equality_case(a.p, cfg, kappa=a.kappa),
        ("norm_h", "norm_sum")),
    "ap-large-p": _Case(("p", "eps"), lambda a, cfg, env:
        verify_mod.verify_ap_large_p(a.p, a.eps, cfg, kappa=a.kappa),
        ("norm_f", "norm_sum")),
    "ap-small-p": _Case(("p",), lambda a, cfg, env:
        verify_mod.verify_ap_small_p(a.p, cfg, kappa=a.kappa),
        ("norm_f", "norm_sum")),
    "means-monotone": _Case(("expr", "p"), lambda a, cfg, env:
        verify_mod.verify_means_monotone(parse(a.expr), a.p, cfg=cfg,
                                         env=env, kappa=a.kappa)),
    "rotation-invariance": _Case(("expr", "p"), lambda a, cfg, env:
        verify_mod.verify_rotation_invariance(parse(a.expr), a.p, a.angle,
                                              cfg, space=a.space, env=env,
                                              kappa=a.kappa)),
}
SWEEP_CASES = tuple(name for name, case in _CASES.items() if case.subs)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep; norms are values (not p-th powers),
    defect/margin/verdict are copied from the case report.  SKIPPED rows
    carry a reason and no numbers."""
    p: float
    eps: Optional[float]
    norm_f_p: Optional[float]
    norm_g_p: Optional[float]
    norm_sum_p: Optional[float]
    defect: Optional[float]
    margin: Optional[float]
    verdict: str
    reason: str = ""


def _g17(x: Optional[float]) -> str:
    return "" if x is None else format(float(x), ".17g")


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Sweeps


def run_sweep(case: str, p_min: float, p_max: float, steps: int,
              eps_rule: str = "window-midpoint",
              cfg: Optional[QuadConfig] = None,
              kappa: float = DEFAULT_KAPPA) -> list[SweepRow]:
    """Evaluate one verification case over a p-grid.

    Grid points that violate the case's precondition produce SKIPPED rows
    with a reason instead of aborting the sweep; bad sweep inputs and a bad
    kappa raise before the grid.  eps_rule applies only to ap-large-p: the
    literal string "window-midpoint" or an explicit numeric value.
    """
    if case not in SWEEP_CASES:
        raise ValueError(f"case {case!r} is not sweepable")
    spec = _CASES[case]
    if not (0.0 < p_min < p_max < math.inf):
        raise ValueError("need 0 < p_min < p_max < inf")
    if steps < 2:
        raise ValueError("need steps >= 2")
    if "eps" in spec.needs and eps_rule != "window-midpoint":
        if not math.isfinite(float(eps_rule)):  # fail fast on a bad rule
            raise ValueError(f"eps rule must be finite, got {eps_rule}")
    _check_inputs(kappa=kappa)

    f_name, sum_name = spec.subs
    rows: list[SweepRow] = []
    for p in np.linspace(p_min, p_max, steps):
        p = float(p)
        eps: Optional[float] = None
        try:
            if "eps" in spec.needs:
                eps = (eps_window(p).midpoint()
                       if eps_rule == "window-midpoint" else float(eps_rule))
            rep = spec.run(SimpleNamespace(p=p, eps=eps, kappa=kappa), cfg,
                           None)
        except ValueError as exc:
            rows.append(SweepRow(p=p, eps=eps, norm_f_p=None, norm_g_p=None,
                                 norm_sum_p=None, defect=None, margin=None,
                                 verdict="SKIPPED", reason=str(exc)))
            continue
        subs = dict(rep.sub_results)
        norm_f = subs[f_name].value
        norm_sum = subs[sum_name].value
        rows.append(SweepRow(p=p, eps=eps, norm_f_p=norm_f, norm_g_p=norm_f,
                             norm_sum_p=norm_sum, defect=rep.defect,
                             margin=rep.margin, verdict=rep.verdict))
    return rows


def _summary_counts(rows: Sequence[SweepRow]) -> dict:
    counts = {"Confirmed": 0, "Refuted": 0, "Inconclusive": 0, "SKIPPED": 0}
    for row in rows:
        counts[row.verdict] = counts.get(row.verdict, 0) + 1
    return counts


def sweep_csv(case: str, rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as CSV with a trailing '#'-comment summary line."""
    cols = ["p", *(["eps"] if "eps" in _CASES[case].needs else []),
            "norm_f_p", "norm_g_p", "norm_sum_p", "defect", "margin",
            "verdict", "reason"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        rec = []
        for col in cols:
            val = getattr(row, col)
            rec.append(val if col in ("verdict", "reason") else _g17(val))
        writer.writerow(rec)
    counts = _summary_counts(rows)
    buf.write("# " + " ".join(f"{k}={v}" for k, v in counts.items()) + "\n")
    return buf.getvalue()


def plot_csv(rows: Sequence[SweepRow]) -> str:
    """The (p, defect) pairs of the rows that have a defect, as CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "defect"])
    for row in rows:
        if row.defect is not None:
            writer.writerow([_g17(row.p), _g17(row.defect)])
    return buf.getvalue()


def sweep_exit_code(rows: Sequence[SweepRow]) -> int:
    """The exit code of the worst verdict; SKIPPED rows do not count."""
    return max((_EXIT_BY_VERDICT[row.verdict] for row in rows
                if row.verdict in _EXIT_BY_VERDICT), default=0)


# ---------------------------------------------------------------------------
# Argument plumbing


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 3, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(3)


def _parse_param(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or name not in PARAM_NAMES:
        raise argparse.ArgumentTypeError(
            f"expected NAME=REAL with NAME in {PARAM_NAMES}, got {text!r}")
    try:
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value in {text!r}")


def _angle_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad angle list {text!r}")


def _add_common(sp, *, tol: bool = True) -> None:
    if tol:
        sp.add_argument("--abs-tol", type=float, default=1e-10)
        sp.add_argument("--rel-tol", type=float, default=1e-8)
    sp.add_argument("--json", action="store_true",
                    help="machine-readable output")
    sp.add_argument("--out", metavar="PATH",
                    help="write structured output to PATH instead of stdout")


def _build_parser() -> _Parser:
    ap = _Parser(prog="disknorms",
                 description="Hardy/Bergman quasi-norms on the unit disk "
                             "and verification of their triangle-inequality "
                             "behaviour for 0 < p < 1.")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_Parser)

    sp = sub.add_parser("norm", help="evaluate one quasi-norm")
    sp.add_argument("--space", choices=("hardy", "bergman"), required=True)
    sp.add_argument("--expr", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--param", action="append", type=_parse_param,
                    default=[], metavar="NAME=REAL")
    sp.add_argument("--singular", type=_angle_list, metavar="ANGLES",
                    help="comma-separated boundary angles (radians) to "
                         "treat as singular/zero locations")
    _add_common(sp)
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("verify", help="run one verification case")
    sp.add_argument("--case", choices=tuple(_CASES), required=True)
    sp.add_argument("--expr", help="function for the expression-driven cases")
    sp.add_argument("--p", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--a", type=float, help="lemma-elem first argument")
    sp.add_argument("--b", type=float, help="lemma-elem second argument")
    sp.add_argument("--q", type=float, default=2.0,
                    help="lemma-elem exponent (default 2)")
    sp.add_argument("--angle", type=float, default=0.7,
                    help="rotation angle in radians")
    sp.add_argument("--space", choices=("hardy", "bergman"),
                    default="hardy", help="space for rotation-invariance")
    sp.add_argument("--param", action="append", type=_parse_param,
                    default=[], metavar="NAME=REAL")
    sp.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sweep", help="run a case over a p-grid")
    sp.add_argument("--case", choices=SWEEP_CASES, required=True)
    sp.add_argument("--p-min", type=float, required=True)
    sp.add_argument("--p-max", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--eps-rule", default="window-midpoint",
                    metavar="RULE",
                    help="'window-midpoint' or an explicit eps value "
                         "(ap-large-p only)")
    sp.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    sp.add_argument("--emit-plot-data", metavar="PATH",
                    help="also write (p, defect) pairs as CSV to PATH")
    _add_common(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("membership",
                        help="Bergman membership of (1-z)^(-alpha)")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--evidence", action="store_true",
                    help="include truncated-integral evidence")
    _add_common(sp, tol=False)
    sp.set_defaults(func=_cmd_membership)

    return ap


def _cfg_from(args) -> QuadConfig:
    return QuadConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol)


def _env_from(args) -> dict:
    env = {}
    for name in ("p", "eps", "alpha"):
        val = getattr(args, name, None)
        if val is not None:
            env[name] = val
    env.update(dict(args.param))
    return env


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_norm(args) -> int:
    env = _env_from(args)
    f = parse(args.expr)
    norm_fn = hardy_norm if args.space == "hardy" else bergman_norm
    result = norm_fn(f, args.p, env=env, cfg=_cfg_from(args),
                     singular_angles=args.singular)
    if args.json:
        text = json.dumps(_jsonable(result), indent=2) + "\n"
    else:
        text = (f"space: {result.space}\n"
                f"p: {result.p:.17g}\n"
                f"value_p: {result.value_p:.17g}\n"
                f"value: {result.value:.17g}\n"
                f"abs_err_est: {result.abs_err_est:.6g}\n"
                f"converged: {result.converged}\n"
                f"divergent: {result.divergent}\n")
    _emit(text, args.out)
    return 0 if result.converged else 2


def _run_case(args):
    cfg = _cfg_from(args)
    env = _env_from(args)
    case = _CASES[args.case]
    missing = [f"--{n}" for n in case.needs if getattr(args, n) is None]
    if "--p" in missing:
        # flags after --p are asked for once it is given: eps's window
        # depends on p
        del missing[missing.index("--p") + 1:]
    if missing:
        raise ValueError(f"{args.case} requires {', '.join(missing)}")
    return case.run(args, cfg, env)


def _sub_line(name: str, obj) -> str:
    kind = type(obj).__name__
    if kind == "NormResult":
        return (f"  {name}: value={obj.value:.12g} value_p={obj.value_p:.12g}"
                f" est={obj.abs_err_est:.3g} converged={obj.converged}"
                f" divergent={obj.divergent}")
    if kind == "QuadResult":
        return (f"  {name}: value={obj.value:.12g} est={obj.abs_err_est:.3g}"
                f" evals={obj.evaluations} converged={obj.converged}")
    if kind == "IdentityCheck":
        tag = "pass" if obj.passed else "FAIL"
        return (f"  {name}: [{tag}] {obj.description};"
                f" max_rel_diff={obj.max_rel_diff:.3g} over {obj.points} pts")
    if kind == "BoundCheck":
        tag = "pass" if obj.passed else "FAIL"
        return (f"  {name}: [{tag}] {obj.description};"
                f" lhs={obj.lhs:.12g} rhs={obj.rhs:.12g}"
                f" margin={obj.margin:.3g}")
    if kind == "MembershipVerdict":
        return (f"  {name}: alpha={obj.alpha:g} p={obj.p:g}"
                f" product={obj.product:.12g} -> {obj.classification}"
                f" diagnostic={obj.diagnostic}")
    return f"  {name}: {obj!r}"


def _cmd_verify(args) -> int:
    report = _run_case(args)
    if args.json:
        text = json.dumps(_jsonable(report), indent=2) + "\n"
    else:
        inputs = " ".join(f"{k}={v:g}" if isinstance(v, float) else
                          f"{k}={v}" for k, v in sorted(report.inputs.items()))
        lines = [f"case: {report.case_id}",
                 f"inputs: {inputs}",
                 f"lhs: {report.lhs:.17g}",
                 f"rhs: {report.rhs:.17g}",
                 f"defect: {report.defect:.17g}",
                 f"margin: {report.margin:.6g}",
                 f"verdict: {report.verdict}"]
        if report.sub_results:
            lines.append("sub-results:")
            lines += [_sub_line(n, o) for n, o in report.sub_results]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return _EXIT_BY_VERDICT[report.verdict]


def _cmd_sweep(args) -> int:
    rows = run_sweep(args.case, args.p_min, args.p_max, args.steps,
                     eps_rule=args.eps_rule, cfg=_cfg_from(args),
                     kappa=args.kappa)
    if args.json:
        payload = {"case": args.case,
                   "rows": [_jsonable(r) for r in rows],
                   "summary": _summary_counts(rows)}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = sweep_csv(args.case, rows)
    _emit(text, args.out)
    if args.emit_plot_data:
        with open(args.emit_plot_data, "w") as fh:
            fh.write(plot_csv(rows))
    return sweep_exit_code(rows)


def _cmd_membership(args) -> int:
    if args.evidence:
        verdict = membership_evidence(args.alpha, args.p)
    else:
        verdict = membership_classify(args.alpha, args.p)
    if args.json:
        text = json.dumps(_jsonable(verdict), indent=2) + "\n"
    else:
        lines = [f"alpha: {verdict.alpha:.17g}",
                 f"p: {verdict.p:.17g}",
                 f"product: {verdict.product:.17g}",
                 f"classification: {verdict.classification}"]
        if verdict.diagnostic is not None:
            lines.append(f"diagnostic: {verdict.diagnostic}")
        for radius, value in verdict.evidence:
            lines.append(f"  R={radius:.10g} integral={value:.12g}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ExprError, ValueError, OSError) as exc:
        sys.stderr.write(f"disknorms: error: {exc}\n")
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
