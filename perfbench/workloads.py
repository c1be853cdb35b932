"""The benchmark's workloads: fixed operation lists with their checks.

An operation is one call a user of the library makes (``run_sweep``, a
``verify_*`` case, ``hardy_norm``, ``bergman_norm`` or
``membership_evidence``).  Each operation comes with a check that turns its
result into a list of problems (empty when the result is right), the
closed-form accuracies it carries, and a record of its output numbers that
must repeat bit for bit from pass to pass.

Closed forms (all need only ``math.gamma``):

* ``(1/2 pi) int |1 - e^{it}|^{-s} dt = Gamma(1-s) / Gamma(1-s/2)^2``, s < 1;
* ``(1/pi) int_D |1 - z|^{-s} dA = Gamma(2-s) / Gamma(2-s/2)^2``, s < 2;
* ``||(1+z)/(1-z)||_{H^p}^p = sec(p pi / 2)``;
* ``||(1+z)^(4/p)||_{A^p}^p = 10/3``.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field
from typing import Callable

import numpy as np

import disknorms
import disknorms.cli
import disknorms.verify

CONFIRMED = "Confirmed"
# |computed - exact| / |exact| is never read below this, so a digit count is
# finite even when an estimate is exactly zero
_DIGITS_CAP = 17.0


@dataclass
class Outcome:
    """What one operation's check found."""
    problems: list = field(default_factory=list)
    digits: list = field(default_factory=list)   # closed-form entries passed
    record: tuple = ()
    # set when the result shows exactly the defect its operation has at the
    # seed commit: the operation counts as failed, but the run stays correct
    seed_defect: str = ""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    # the expressions a user would type for this workload; the first (with
    # its parameter binding) drives the expression-layer microbenchmarks
    expressions: tuple
    env: dict
    ops: tuple


# ---------------------------------------------------------------------------
# Checks


def hardy_pole(p: float) -> float:
    """||1/(1-z)||_{H^p}^p."""
    return math.gamma(1.0 - p) / math.gamma(1.0 - p / 2.0) ** 2


def bergman_power(s: float) -> float:
    """(1/pi) int_D |1-z|^{-s} dA, i.e. ||(1-z)^{-s/p}||_{A^p}^p."""
    return math.gamma(2.0 - s) / math.gamma(2.0 - s / 2.0) ** 2


def norm_record(r) -> tuple:
    return (r.value_p, r.abs_err_est, r.converged, r.divergent)


def report_record(rep) -> tuple:
    return (rep.verdict, rep.defect, rep.margin,
            tuple((name, norm_record(sub)) for name, sub in rep.sub_results
                  if isinstance(sub, disknorms.NormResult)))


def closed_form(out: Outcome, label: str, r, exact: float) -> None:
    """A finite closed-form entry: converged, not divergent and honest."""
    err = abs(r.value_p - exact)
    if not r.converged:
        out.problems.append(f"{label}: not converged")
    elif r.divergent:
        out.problems.append(f"{label}: flagged divergent")
    elif not err <= r.abs_err_est:
        out.problems.append(f"{label}: |computed-exact| = {err:.3g} "
                            f"exceeds abs_err_est = {r.abs_err_est:.3g}")
    else:
        worst = max(err, r.abs_err_est, abs(exact) * 10.0 ** -_DIGITS_CAP)
        out.digits.append(max(0.0, -math.log10(worst / abs(exact))))


def confirmed(out: Outcome, rep) -> None:
    if rep.verdict != CONFIRMED:
        out.problems.append(f"{rep.case_id} {rep.inputs}: verdict "
                            f"{rep.verdict} (defect {rep.defect:.6g}, "
                            f"margin {rep.margin:.6g})")


@contextmanager
def captured_reports(names):
    """Collect the reports of the verify cases that run_sweep calls.

    The sweep returns rows without error estimates, so the reports are taken
    from the verify module, where the CLI looks the cases up.
    """
    reports = []
    originals = {name: getattr(disknorms.verify, name) for name in names}

    def capture(fn):
        def call(*args, **kwargs):
            rep = fn(*args, **kwargs)
            reports.append(rep)
            return rep
        return call

    for name, fn in originals.items():
        setattr(disknorms.verify, name, capture(fn))
    try:
        yield reports
    finally:
        for name, fn in originals.items():
            setattr(disknorms.verify, name, fn)


# ---------------------------------------------------------------------------
# hardy-sweep


_SWEEP_CASES = {
    "hp-counterexample": "verify_hp_counterexample",
    "hp-equality": "verify_hp_equality_case",
}


def _sweep(case: str):
    def run():
        with captured_reports([_SWEEP_CASES[case]]) as reports:
            rows = disknorms.cli.run_sweep(case, 0.05, 0.95, 9)
        return rows, reports
    return run


def _check_sweep(result) -> Outcome:
    rows, reports = result
    out = Outcome(record=(tuple(astuple(row) for row in rows),
                          tuple(report_record(rep) for rep in reports)))
    if len(reports) != len(rows):
        out.problems.append(f"{len(rows)} rows but {len(reports)} reports")
    for row in rows:
        if row.verdict != CONFIRMED:
            out.problems.append(f"sweep row p={row.p:g}: {row.verdict} "
                                f"{row.reason}")
    for rep in reports:
        confirmed(out, rep)
        p = rep.inputs["p"]
        subs = dict(rep.sub_results)
        if rep.case_id == "hp-counterexample":
            sec = 1.0 / math.cos(p * math.pi / 2.0)
            closed_form(out, f"||f||^p p={p:g}", subs["norm_f"], sec)
            closed_form(out, f"||g||^p p={p:g}", subs["norm_g"], sec)
            closed_form(out, f"||1/(1-z)||^p p={p:g}", subs["norm_pole"],
                        hardy_pole(p))
        else:
            closed_form(out, f"||h||^p p={p:g}", subs["norm_h"], hardy_pole(p))
            closed_form(out, f"||k||^p p={p:g}", subs["norm_k"], hardy_pole(p))
    return out


# Traffic on the circle only: expr.near and the singular transform do the
# work, the Bergman radial layer does none.
HARDY_SWEEP = Workload(
    name="hardy-sweep",
    expressions=("(1+z)/(1-z)", "(4*z)/(1-z^2)", "1/(1-z)", "(2*z)/(1-z^2)"),
    env={},
    ops=(Op("sweep hp-counterexample", _sweep("hp-counterexample"),
            _check_sweep),
         Op("sweep hp-equality", _sweep("hp-equality"), _check_sweep)),
)


# ---------------------------------------------------------------------------
# bergman-pole and bergman-entire


# Operations look the library functions up when they run, not when they are
# defined, so that they call the wrappers tracer.py installs.
def _case(fn_name: str, *args):
    def run():
        return getattr(disknorms, fn_name)(*args)
    return run


def _check_case(rep) -> Outcome:
    out = Outcome(record=report_record(rep))
    confirmed(out, rep)
    return out


def _check_small_p(rep) -> Outcome:
    out = _check_case(rep)
    closed_form(out, f"||(1+z)^(4/p)||^p p={rep.inputs['p']:g}",
                dict(rep.sub_results)["norm_f"], 10.0 / 3.0)
    return out


def _norm(fn_name: str, text: str, p: float):
    def run():
        return getattr(disknorms, fn_name)(disknorms.parse(text), p)
    return run


def _finite(label: str, exact: float, seed_defect: str = ""):
    """Check of a finite closed-form norm.  With seed_defect, the symptom
    the operation shows at the seed commit (not converged and flagged
    divergent) is excused; any other failure, such as an estimate that does
    not cover the error, is not."""
    def check(r) -> Outcome:
        out = Outcome(record=norm_record(r))
        if seed_defect and not r.converged and r.divergent:
            out.seed_defect = seed_defect
        else:
            closed_form(out, label, r, exact)
        return out
    return check


def _divergent(label: str):
    def check(r) -> Outcome:
        out = Outcome(record=norm_record(r))
        if not r.divergent:
            out.problems.append(f"{label}: infinite norm not flagged "
                                f"divergent")
        return out
    return check


# Radial x circle nesting with a boundary pole; most of the time is spent in
# expr.near at about 15 points per call.
BERGMAN_POLE = Workload(
    name="bergman-pole",
    expressions=("(1+z)^(2-eps) / (1-z)^(2+eps)",
                 "(8*z*(1+z^2)) / (1-z^2)^(2+eps)", "1/(1-z)^2"),
    env={"p": 0.5, "eps": 1.0},
    ops=tuple(
        Op(f"verify_ap_large_p({p}, {eps})",
           _case("verify_ap_large_p", p, eps), _check_case)
        for p, eps in ((0.5, 1.0), (0.6, 0.7), (0.75, 0.4))
    ) + (Op("bergman_norm(1/(1-z)^2, 0.9)",
            _norm("bergman_norm", "1/(1-z)^2", 0.9),
            _finite("||(1-z)^-2||_A^p p=0.9", bergman_power(1.8))),),
)

# The same nesting without a boundary singularity: expr.value and plain
# Gauss-Kronrod bisection only, so a change to expr.near or to the
# double-exponential transform should not move this workload.
BERGMAN_ENTIRE = Workload(
    name="bergman-entire",
    expressions=("(1+z)^(4/p)",),
    env={"p": 0.1},
    ops=tuple(Op(f"verify_ap_small_p({p})", _case("verify_ap_small_p", p),
                 _check_small_p)
              for p in (0.1, 0.25, 0.4, 0.49)),
)


# ---------------------------------------------------------------------------
# critical


_GRID_ALPHAS = (0.5, 1.0, 2.0, 4.0)
_GRID_PS = (0.25, 0.5, 0.9, 1.5)
_FALSE_DIVERGENCE = ("near-critical exponent: the finite integral is not "
                     "converged and flagged divergent")


def _membership(alpha: float, p: float):
    def run():
        return disknorms.membership_evidence(alpha, p)
    return run


def _check_membership(v) -> Outcome:
    out = Outcome(record=(v.classification, v.diagnostic, v.evidence))
    if v.classification == "Member":
        agree = v.diagnostic == "Convergent"
    elif v.classification == "NonMember":
        agree = v.diagnostic.startswith("Divergent")
    else:   # Boundary points carry no convergence claim
        agree = True
    if not agree:
        out.problems.append(f"membership alpha={v.alpha:g} p={v.p:g}: "
                            f"{v.classification} but {v.diagnostic}")
    return out


# The only workload where norms fail to converge: budgets run out and both
# divergence probes run.  Finite oracles just below the critical exponent
# and infinite ones at or above it; the grid is scripts/membership_grid.py's.
CRITICAL = Workload(
    name="critical",
    expressions=("1/(1-z)", "1/(1-z)^2"),
    env={},
    ops=(
        Op("hardy_norm(1/(1-z), 0.9)", _norm("hardy_norm", "1/(1-z)", 0.9),
           _finite("||1/(1-z)||_H^p p=0.9", hardy_pole(0.9))),
        Op("hardy_norm(1/(1-z), 0.99)", _norm("hardy_norm", "1/(1-z)", 0.99),
           _finite("||1/(1-z)||_H^p p=0.99", hardy_pole(0.99),
                   _FALSE_DIVERGENCE)),
        Op("hardy_norm(1/(1-z), 1.0)", _norm("hardy_norm", "1/(1-z)", 1.0),
           _divergent("||1/(1-z)||_H^p p=1")),
        Op("hardy_norm(1/(1-z)^2, 0.6)",
           _norm("hardy_norm", "1/(1-z)^2", 0.6),
           _divergent("||(1-z)^-2||_H^p p=0.6")),
        Op("bergman_norm(1/(1-z)^2, 0.999)",
           _norm("bergman_norm", "1/(1-z)^2", 0.999),
           _finite("||(1-z)^-2||_A^p p=0.999", bergman_power(1.998),
                   _FALSE_DIVERGENCE)),
        Op("bergman_norm(1/(1-z)^2, 1.0)",
           _norm("bergman_norm", "1/(1-z)^2", 1.0),
           _divergent("||(1-z)^-2||_A^p p=1")),
    ) + tuple(Op(f"membership_evidence({alpha}, {p})",
                 _membership(alpha, p), _check_membership)
              for alpha in _GRID_ALPHAS for p in _GRID_PS),
)

WORKLOADS = {w.name: w for w in (HARDY_SWEEP, BERGMAN_POLE, BERGMAN_ENTIRE,
                                 CRITICAL)}


def microbench_inputs(workload: Workload, rng: np.random.Generator,
                      n: int) -> tuple:
    """Seeded inputs for the expression layer: (expr, anchor, delta, z).

    delta are signed angle offsets from the first boundary singularity (or
    from z = 1 when there is none), spread over 1e-12..1e-1; z are points
    of the disk |z| < 0.99.
    """
    expr = disknorms.parse(workload.expressions[0])
    singular = disknorms.boundary_structure(expr, workload.env).singular
    anchor = singular[0].root if singular else 1.0 + 0.0j
    delta = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, -1.0, n)
    z = (0.99 * np.sqrt(rng.uniform(size=n))
         * np.exp(2j * math.pi * rng.uniform(size=n)))
    return expr, anchor, delta, z
