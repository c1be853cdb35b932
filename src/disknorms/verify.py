"""Machine-checked verification of quasi-norm identities and the
triangle-inequality violations.

Each case builds its own test functions, computes both sides of the claim
with error estimates, and returns an immutable report.  Verdicts separate
the mathematical claim from numerical noise by a margin equal to kappa
times the summed error estimates (kappa = 10 by default): a strict
inequality is Confirmed only when the computed defect clears that margin,
and an identity is Confirmed only when the defect stays inside it.
Closed-form simplifications used by the strict cases (e.g. f + g
collapsing to a single rational expression) are validated numerically on
a fixed pseudo-random sample of interior points rather than symbolically.

Every report is built by _report, which forms the defect and the verdict.
The four triangle cases build f, g = -f(-z) and f + g with _pair, and
three of them compare ||f+g|| with ||f|| + ||g|| through _triangle; the
two cases that compare a norm with itself use _same_norm.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bergman import (bergman_norm, membership_classify, membership_evidence,
                      _radial_integral)
from .expr import (Add, Const, Expr, Mul, Neg, check_param_env, evaluate,
                   parse, substitute_negate, substitute_rotate,
                   substitute_square)
from .hardy import NormResult, hardy_norm, _integral_means_full, _setup
from .quad import NonFiniteSampleError, QuadConfig, QuadResult

__all__ = [
    "VerificationReport", "IdentityCheck", "BoundCheck", "EpsWindow",
    "eps_window",
    "verify_lemma_cvh", "verify_lemma_cv", "verify_elem_inequality",
    "verify_lemma_ap",
    "verify_hp_counterexample", "verify_hp_equality_case",
    "verify_ap_large_p", "verify_ap_small_p",
    "verify_means_monotone", "verify_rotation_invariance",
]

DEFAULT_KAPPA = 10.0

_CONFIRMED = "Confirmed"
_REFUTED = "Refuted"
_INCONCLUSIVE = "Inconclusive"
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class IdentityCheck:
    """Pointwise agreement of two expressions on a fixed interior sample."""
    description: str
    max_rel_diff: float
    tolerance: float
    points: int
    passed: bool


@dataclass(frozen=True)
class BoundCheck:
    """A single numeric comparison recorded inside a report.

    `passed` means lhs >= rhs - margin for one-sided checks and
    |lhs - rhs| <= margin for equality-style checks; the description says
    which reading applies.
    """
    description: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification case.

    defect is lhs - rhs with the case's sign convention; margin is kappa
    times the summed error estimates of everything feeding lhs and rhs.
    sub_results holds (name, value) pairs where value is a NormResult,
    QuadResult, IdentityCheck, BoundCheck, or MembershipVerdict.
    """
    case_id: str
    inputs: dict
    lhs: float
    rhs: float
    defect: float
    margin: float
    verdict: str
    sub_results: tuple = field(default_factory=tuple)


# the bound of each checked input: (lo, strict) for x > lo, else x >= lo
_BOUNDS = {"kappa": (0.0, False), "scale": (0.0, True), "a": (0.0, True),
           "b": (0.0, True), "q": (1.0, True), "angle": (-math.inf, False)}


def _check_inputs(**inputs) -> None:
    """Raise ValueError naming the first of inputs that is not a finite
    number within its _BOUNDS; every case calls it before any norm."""
    for name, x in inputs.items():
        lo, strict = _BOUNDS[name]
        if not (math.isfinite(x) and (x > lo if strict else x >= lo)):
            bound = "" if lo == -math.inf else (
                f" and {'>' if strict else '>='} {lo:g}")
            raise ValueError(f"{name} must be finite{bound}, got {x}")


def _strict_verdict(defect: float, margin: float) -> str:
    if not (math.isfinite(defect) and math.isfinite(margin)):
        return _INCONCLUSIVE
    if defect > margin:
        return _CONFIRMED
    if defect < -margin:
        return _REFUTED
    return _INCONCLUSIVE


def _equality_verdict(defect: float, margin: float) -> str:
    if not (math.isfinite(defect) and math.isfinite(margin)):
        return _INCONCLUSIVE
    return _CONFIRMED if abs(defect) <= margin else _REFUTED


def _report(case_id: str, inputs: dict, lhs: float, rhs: float,
            margin: float, verdict_fn, subs=()) -> VerificationReport:
    """The report of one case: defect = lhs - rhs, and the verdict
    verdict_fn(defect, margin)."""
    defect = lhs - rhs
    return VerificationReport(case_id, inputs, lhs, rhs, defect, margin,
                              verdict_fn(defect, margin), tuple(subs))


def _same_norm(case_id: str, inputs: dict, kappa: float, lhs_name: str,
               lhs: NormResult, rhs_name: str,
               rhs: NormResult) -> VerificationReport:
    """Equality of two p-th power norms within kappa times their summed
    error estimates."""
    return _report(case_id, inputs, lhs.value_p, rhs.value_p,
                   kappa * (lhs.abs_err_est + rhs.abs_err_est),
                   _equality_verdict, ((lhs_name, lhs), (rhs_name, rhs)))


def _scaled(e: Expr, scale: float) -> Expr:
    if scale == 1.0:
        return e
    return Mul(Const(complex(scale)), e)


@functools.cache
def _disk_points(n: int = 64) -> np.ndarray:
    """n fixed pseudo-random points, |z| <= 0.9, drawn once and read-only."""
    # fixed seed: reports must be reproducible run to run
    rng = np.random.default_rng(1729)
    r = 0.9 * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    z = r * np.exp(1j * theta)
    z.flags.writeable = False
    return z


def _identity_check(description: str, lhs: Expr, rhs: Expr, env,
                    tolerance: float = 1e-10, n: int = 64) -> IdentityCheck:
    """Compare two expressions at n fixed pseudo-random points, |z| <= 0.9."""
    z = _disk_points(n)
    a = np.asarray(evaluate(lhs, z, env))
    b = np.asarray(evaluate(rhs, z, env))
    scale = max(1.0, float(np.max(np.abs(a))))
    worst = float(np.max(np.abs(a - b)) / scale)
    return IdentityCheck(description, worst, tolerance, n,
                         math.isfinite(worst) and worst <= tolerance)


# ---------------------------------------------------------------------------
# Identity lemmas


def verify_lemma_cvh(f: Expr, p: float, cfg: Optional[QuadConfig] = None, *,
                     env=None, kappa: float = DEFAULT_KAPPA) -> VerificationReport:
    """The substitution z -> z^2 preserves the Hardy quasi-norm.

    lhs is the norm of f(z^2) raised to the p, rhs the same for f; the
    claim is exact equality, so the verdict is Confirmed when the defect
    stays within the error margin.
    """
    _check_inputs(kappa=kappa)
    composed = hardy_norm(substitute_square(f), p, env=env, cfg=cfg)
    base = hardy_norm(f, p, env=env, cfg=cfg)
    return _same_norm("lemma-cvh", {"p": p, "kappa": kappa}, kappa,
                      "norm_composed", composed, "norm_f", base)


def verify_lemma_cv(h: Expr, p: float, cfg: Optional[QuadConfig] = None, *,
                    env=None, kappa: float = DEFAULT_KAPPA) -> VerificationReport:
    """Area-integral form of the square substitution.

    The p-th power of the Bergman quasi-norm of h equals twice the area
    integral of |h(z^2)|^p |z|^2.  The right side is computed directly by
    folding the |z|^2 weight into the radial integrand, not by reusing the
    norm routine, so the two sides go through genuinely different code.
    """
    check_param_env(env)    # a bad parameter is reported before a bad p
    _check_inputs(kappa=kappa)
    cfg = cfg if cfg is not None else QuadConfig()
    base = bergman_norm(h, p, env=env, cfg=cfg)
    _, ev, structure = _setup(substitute_square(h), p, env)
    try:
        half, err, conv, evals = _radial_integral(ev, p, structure, cfg,
                                                  weight_pow=2)
    except NonFiniteSampleError:    # a blow-up: inf, and Inconclusive
        half, err, conv, evals = math.inf, math.inf, False, 0
    weighted = QuadResult(value=2.0 * half, abs_err_est=2.0 * err,
                          evaluations=evals, converged=conv)
    return _report("lemma-cv", {"p": p, "kappa": kappa}, base.value_p,
                   weighted.value,
                   kappa * (base.abs_err_est + weighted.abs_err_est),
                   _equality_verdict,
                   (("norm_h", base), ("weighted_integral", weighted)))


def _power(x: float, q: float) -> float:
    try:
        return x ** q
    except OverflowError:   # read as inf: the defect is then Inconclusive
        return math.inf


def verify_elem_inequality(a: float, b: float, q: float) -> VerificationReport:
    """|a^q - b^q| >= |a - b|^q for a, b > 0 and q > 1.

    Pure arithmetic: margin bounds the rounding error of lhs - rhs, and the
    case is Confirmed when defect >= -margin.  At a == b both sides are
    exact zeros and the margin is 0.
    """
    _check_inputs(a=a, b=b, q=q)
    aq, bq, rhs = (_power(x, q) for x in (a, b, abs(a - b)))
    # powers err by eps, subtractions by eps/2, and a - b by q*eps/2 in rhs
    margin = 0.0 if a == b else 4.0 * _EPS * (aq + bq + q * rhs)

    def verdict(defect, margin):
        if not math.isfinite(defect):
            return _INCONCLUSIVE
        return _CONFIRMED if defect >= -margin else _REFUTED
    return _report("lemma-elem", {"a": a, "b": b, "q": q}, abs(aq - bq),
                   rhs, margin, verdict)


def verify_lemma_ap(alpha: float, p: float,
                    radii: Optional[Sequence[float]] = None) -> VerificationReport:
    """Bergman membership of (1-z)^(-alpha) is decided by p*alpha < 2.

    The closed-form classifier and the truncated-integral evidence are
    computed independently; the verdict is Confirmed when the evidence
    diagnostic agrees with the classification (Boundary counts as
    non-membership and must look divergent).
    """
    classified = membership_classify(alpha, p)
    evidence = membership_evidence(alpha, p, radii)
    agree = ((classified.classification == "Member")
             == (evidence.diagnostic == "Convergent"))
    return _report("lemma-ap", {"alpha": alpha, "p": p}, classified.product,
                   2.0, 0.0, lambda d, m: _CONFIRMED if agree else _REFUTED,
                   (("classifier", classified), ("evidence", evidence)))


# ---------------------------------------------------------------------------
# Hardy-space counterexample and its equality companion


def _norm_margin(kappa: float, *results: NormResult) -> float:
    return kappa * math.fsum(r.value_abs_err for r in results)


def _pair(text: str, scale: float, norm_fn, p: float, env, cfg):
    """f = scale * text, g = -f(-z) and f + g, with norm_fn bound to p,
    env and cfg.  Returns (f, g, f + g, norm)."""
    f = _scaled(parse(text), scale)
    g = Neg(substitute_negate(f))
    return f, g, Add(f, g), lambda e: norm_fn(e, p, env=env, cfg=cfg)


def _triangle(kappa: float, norm_f: NormResult, norm_g: NormResult,
              norm_sum: NormResult) -> tuple[float, float, float]:
    """(lhs, rhs, margin) of ||f+g|| against ||f|| + ||g||."""
    return (norm_sum.value, norm_f.value + norm_g.value,
            _norm_margin(kappa, norm_sum, norm_f, norm_g))


def verify_hp_counterexample(p: float, cfg: Optional[QuadConfig] = None, *,
                             kappa: float = DEFAULT_KAPPA,
                             scale: float = 1.0) -> VerificationReport:
    """Strict triangle-inequality failure in the Hardy space, 0 < p < 1.

    f = (1+z)/(1-z) and g = -f(-z) have equal norms, yet the norm of the
    sum exceeds the sum of the norms.  Sub-results record the symmetric
    norm check, the closed form f + g = 4z/(1-z^2), and the proof-chain
    equality tying the norm of the sum to 4 times the norm of 1/(1-z).
    The optional scale multiplies f by a positive constant; both sides
    scale alike, so the verdict must not depend on it.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("requires 0 < p < 1")
    _check_inputs(kappa=kappa, scale=scale)
    f, g, total, norm = _pair("(1+z)/(1-z)", scale, hardy_norm, p, None, cfg)
    norm_f, norm_g, norm_sum = norm(f), norm(g), norm(total)
    norm_pole = norm(parse("1/(1-z)"))
    lhs, rhs, margin = _triangle(kappa, norm_f, norm_g, norm_sum)

    sym_margin = _norm_margin(kappa, norm_f, norm_g)
    sym = BoundCheck("norms of f and g agree", norm_f.value, norm_g.value,
                     sym_margin,
                     abs(norm_f.value - norm_g.value) <= sym_margin)
    chain_rhs = 4.0 * scale * norm_pole.value
    chain_margin = kappa * (norm_sum.value_abs_err
                            + 4.0 * scale * norm_pole.value_abs_err)
    chain = BoundCheck("norm of f+g equals 4*scale*norm of 1/(1-z)",
                       lhs, chain_rhs, chain_margin,
                       abs(lhs - chain_rhs) <= chain_margin)
    closed = _scaled(parse("(4*z)/(1-z^2)"), scale)
    ident = _identity_check("f + g = 4z/(1-z^2)", total, closed, None)

    return _report("hp-counterexample",
                   {"p": p, "kappa": kappa, "scale": scale}, lhs, rhs, margin,
                   _strict_verdict,
                   (("norm_f", norm_f), ("norm_g", norm_g),
                    ("norm_sum", norm_sum), ("norm_pole", norm_pole),
                    ("symmetry", sym), ("closed_form", ident),
                    ("proof_chain", chain)))


def verify_hp_equality_case(p: float, cfg: Optional[QuadConfig] = None, *,
                            kappa: float = DEFAULT_KAPPA,
                            scale: float = 1.0) -> VerificationReport:
    """Equality in the Hardy triangle inequality for h = 1/(1-z).

    With k = -h(-z) = -1/(1+z) the norms add exactly: |h+k| and |h|, |k|
    produce the same boundary integrals after the square substitution.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("requires 0 < p < 1")
    _check_inputs(kappa=kappa, scale=scale)
    h, k, total, norm = _pair("1/(1-z)", scale, hardy_norm, p, None, cfg)
    norm_h, norm_k, norm_sum = norm(h), norm(k), norm(total)
    lhs, rhs, margin = _triangle(kappa, norm_h, norm_k, norm_sum)

    chain_rhs = 2.0 * norm_h.value
    chain_margin = kappa * (norm_sum.value_abs_err
                            + 2.0 * norm_h.value_abs_err)
    chain = BoundCheck("norm of h+k equals 2*norm of h", lhs, chain_rhs,
                       chain_margin, abs(lhs - chain_rhs) <= chain_margin)
    closed = _scaled(parse("(2*z)/(1-z^2)"), scale)
    ident = _identity_check("h + k = 2z/(1-z^2)", total, closed, None)

    return _report("hp-equality", {"p": p, "kappa": kappa, "scale": scale},
                   lhs, rhs, margin, _equality_verdict,
                   (("norm_h", norm_h), ("norm_k", norm_k),
                    ("norm_sum", norm_sum), ("closed_form", ident),
                    ("proof_chain", chain)))


# ---------------------------------------------------------------------------
# Bergman-space counterexamples


@dataclass(frozen=True)
class EpsWindow:
    """Admissible exponent-perturbation interval [lo, hi) or [lo, hi]."""
    lo: float
    hi: float
    hi_closed: bool

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, eps: float) -> bool:
        if eps < self.lo:
            return False
        return eps <= self.hi if self.hi_closed else eps < self.hi

    def midpoint(self) -> float:
        return self.lo if self.degenerate else 0.5 * (self.lo + self.hi)

    def __str__(self) -> str:
        if self.degenerate:
            return f"{{{self.lo:g}}}"
        close = "]" if self.hi_closed else ")"
        return f"[{self.lo:g}, {self.hi:g}{close}"


def eps_window(p: float) -> EpsWindow:
    """Admissible eps for the large-p Bergman counterexample, 1/2 <= p < 1.

    The raw interval is (1-p)/p <= eps < 2(1-p)/p, additionally capped at
    eps <= 1; when the cap bites, the right endpoint 1 itself remains
    admissible and the window closes.  At p = 1/2 this degenerates to the
    single point {1}.
    """
    if not 0.5 <= p < 1.0:
        raise ValueError("eps window is defined for 1/2 <= p < 1")
    lo = (1.0 - p) / p
    hi = 2.0 * (1.0 - p) / p
    if hi > 1.0:
        return EpsWindow(lo, 1.0, True)
    return EpsWindow(lo, hi, False)


def verify_ap_large_p(p: float, eps: float,
                      cfg: Optional[QuadConfig] = None, *,
                      kappa: float = DEFAULT_KAPPA,
                      scale: float = 1.0) -> VerificationReport:
    """Strict Bergman triangle-inequality failure for 1/2 <= p < 1.

    f = (1+z)^(2-eps)/(1-z)^(2+eps) with eps in eps_window(p); g = -f(-z).
    An eps outside the window is an input error, not an Inconclusive
    verdict.  Sub-results record the membership precondition p(2+eps) < 2
    and the closed form f + g = 8z(1+z^2)/(1-z^2)^(2+eps).
    """
    window = eps_window(p)
    if not window.contains(eps):
        raise ValueError(f"eps={eps:g} outside admissible window {window}")
    _check_inputs(kappa=kappa, scale=scale)
    env = {"p": p, "eps": eps}
    f, g, total, norm = _pair("(1+z)^(2-eps) / (1-z)^(2+eps)", scale,
                              bergman_norm, p, env, cfg)

    member = membership_classify(2.0 + eps, p)
    precondition = BoundCheck("membership exponent product below 2",
                              member.product, 2.0, 0.0,
                              member.classification == "Member")

    norm_f, norm_g, norm_sum = norm(f), norm(g), norm(total)
    lhs, rhs, margin = _triangle(kappa, norm_f, norm_g, norm_sum)
    closed = _scaled(parse("(8*z*(1+z^2)) / (1-z^2)^(2+eps)"), scale)
    ident = _identity_check("f + g = 8z(1+z^2)/(1-z^2)^(2+eps)",
                            total, closed, env)

    return _report("ap-large-p",
                   {"p": p, "eps": eps, "kappa": kappa, "scale": scale},
                   lhs, rhs, margin, _strict_verdict,
                   (("membership", member), ("precondition", precondition),
                    ("norm_f", norm_f), ("norm_g", norm_g),
                    ("norm_sum", norm_sum), ("closed_form", ident)))


_SMALL_P_BOUND = 2.0 ** 8 / (15.0 * math.pi)


def verify_ap_small_p(p: float, cfg: Optional[QuadConfig] = None, *,
                      kappa: float = DEFAULT_KAPPA,
                      scale: float = 1.0) -> VerificationReport:
    """Strict Bergman triangle-inequality failure for 0 < p < 1/2.

    f = (1+z)^(4/p), g = -f(-z).  Named sub-checks follow the proof:
    (a) the p-th power of the norm of f equals 10/3 exactly;
    (b) the p-th power of the norm of f+g is at least 2^8/(15*pi);
    (c) it strictly exceeds 2^p * 10/3 -- the report verdict;
    (d) the arithmetic fact 2^8/(15*pi) > 2^p * 10/3 for this p.
    The norm of g equals the norm of f identically (the area measure is
    symmetric under z -> -z), so it is not recomputed.
    """
    if not 0.0 < p < 0.5:
        raise ValueError("requires 0 < p < 1/2")
    _check_inputs(kappa=kappa, scale=scale)
    f, _, total, norm = _pair("(1+z)^(4/p)", scale, bergman_norm, p,
                              {"p": p}, cfg)
    c_p = scale ** p
    norm_f, norm_sum = norm(f), norm(total)

    exact = (10.0 / 3.0) * c_p
    a_margin = kappa * norm_f.abs_err_est
    check_a = BoundCheck("p-th power of norm of f equals 10/3",
                         norm_f.value_p, exact, a_margin,
                         abs(norm_f.value_p - exact) <= a_margin)

    lower = _SMALL_P_BOUND * c_p
    margin = kappa * norm_sum.abs_err_est
    check_b = BoundCheck("p-th power of norm of f+g at least 2^8/(15*pi)",
                         norm_sum.value_p, lower, margin,
                         norm_sum.value_p >= lower - margin)

    lhs = norm_sum.value_p
    rhs = 2.0 ** p * (10.0 / 3.0) * c_p
    check_c = BoundCheck("p-th power of norm of f+g exceeds 2^p * 10/3",
                         lhs, rhs, margin, lhs - rhs > margin)

    check_d = BoundCheck("2^8/(15*pi) exceeds 2^p * 10/3",
                         lower, rhs, 0.0, lower > rhs)

    return _report("ap-small-p", {"p": p, "kappa": kappa, "scale": scale},
                   lhs, rhs, margin, _strict_verdict,
                   (("norm_f", norm_f), ("norm_sum", norm_sum),
                    ("exact_value", check_a), ("lower_bound", check_b),
                    ("strict_claim", check_c), ("arithmetic", check_d)))


# ---------------------------------------------------------------------------
# Structural properties


_DEFAULT_MEANS_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                       0.95, 0.99)


def verify_means_monotone(f: Expr, p: float,
                          grid: Optional[Sequence[float]] = None,
                          cfg: Optional[QuadConfig] = None, *,
                          env=None,
                          kappa: float = DEFAULT_KAPPA) -> VerificationReport:
    """Integral means are non-decreasing in the radius.

    Confirmed when every consecutive pair of grid radii satisfies
    M_p(r_k) <= M_p(r_{k+1}) + margin; the report's lhs/rhs/defect are
    those of the worst pair.  This is a one-sided claim, so a failing
    pair makes the verdict Refuted rather than Inconclusive; a mean that
    blows up makes it Inconclusive.
    """
    radii = tuple(grid) if grid is not None else _DEFAULT_MEANS_GRID
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    if any(not 0.0 < r < 1.0 for r in radii):
        raise ValueError("radii must lie in (0, 1)")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    _check_inputs(kappa=kappa)

    means, errs = [], []
    for r in radii:
        try:
            m, e, _, _ = _integral_means_full(f, p, r, env=env, cfg=cfg)
        except NonFiniteSampleError:    # a blow-up: inf, and Inconclusive
            m, e = math.inf, math.inf
        means.append(m)
        errs.append(e)

    checks = []
    worst = None
    for k in range(len(radii) - 1):
        pair_margin = kappa * (errs[k] + errs[k + 1])
        gain = means[k + 1] - means[k]
        ok = gain >= -pair_margin
        checks.append(
            ("pair_%g_%g" % (radii[k], radii[k + 1]),
             BoundCheck(f"means non-decreasing on [{radii[k]:g}, "
                        f"{radii[k + 1]:g}]",
                        means[k + 1], means[k], pair_margin, ok)))
        if worst is None or gain + pair_margin < worst[0]:
            worst = (gain + pair_margin, means[k + 1], means[k], pair_margin)

    all_ok = all(c.passed for _, c in checks)

    def verdict(defect, margin):
        if not (math.isfinite(defect) and all(map(math.isfinite, means))):
            return _INCONCLUSIVE
        return _CONFIRMED if all_ok else _REFUTED
    return _report("means-monotone", {"p": p, "kappa": kappa}, *worst[1:],
                   verdict, checks)


def verify_rotation_invariance(f: Expr, p: float, angle: float = 0.7,
                               cfg: Optional[QuadConfig] = None, *,
                               space: str = "hardy", env=None,
                               kappa: float = DEFAULT_KAPPA) -> VerificationReport:
    """Quasi-norms are invariant under the rotation f(z) -> f(e^{i*angle} z)."""
    if space not in ("hardy", "bergman"):
        raise ValueError("space must be 'hardy' or 'bergman'")
    _check_inputs(angle=angle, kappa=kappa)
    norm_fn = hardy_norm if space == "hardy" else bergman_norm
    lam = complex(math.cos(angle), math.sin(angle))
    base = norm_fn(f, p, env=env, cfg=cfg)
    rotated = norm_fn(substitute_rotate(f, lam), p, env=env, cfg=cfg)
    return _same_norm("rotation-invariance",
                      {"p": p, "angle": angle, "space": space,
                       "kappa": kappa},
                      kappa, "norm_rotated", rotated, "norm_f", base)
