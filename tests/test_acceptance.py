"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
a single [PASS]/[FAIL] line (visible under pytest -s); the assertion carries
the collected failure details.  Criteria are deliberately re-checked here
end-to-end even where unit tests cover the same ground.
"""
import json
import math
import time

import numpy as np

from disknorms.bergman import (bergman_norm, membership_classify,
                               membership_evidence)
from disknorms.cli import main
from disknorms.expr import Add, Const, Mul, Pow, Z, parse
from disknorms.hardy import hardy_norm
from disknorms.quad import QuadConfig, integrate
from disknorms.verify import (eps_window, verify_ap_large_p,
                              verify_ap_small_p, verify_hp_counterexample,
                              verify_hp_equality_case, verify_lemma_cv,
                              verify_lemma_cvh, verify_means_monotone,
                              verify_rotation_invariance)

from oracles import bergman_p2, parseval_norm_p
from test_quad import CORPUS


def _check(failures, cond, msg):
    if not cond:
        failures.append(msg)


def _finish(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num:2d}: {description}")
    assert not failures, "; ".join(failures)


def test_criterion_01_exact_constant(capsys):
    failures = []
    for P in (0.1, 0.25, 0.4):
        start = time.perf_counter()
        code = main(["norm", "--space", "bergman", "--p", str(P),
                     "--expr", "(1+z)^(4/p)", "--json"])
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        _check(failures, code == 0, f"P={P}: exit {code}")
        _check(failures, abs(payload["value_p"] - 10.0 / 3.0) <= 1e-6,
               f"P={P}: value_p {payload['value_p']!r} not within 1e-6 of 10/3")
        _check(failures, elapsed < 30.0, f"P={P}: took {elapsed:.1f}s")
        series, _ = parseval_norm_p("Bergman", P, plus=4.0 / P)
        _check(failures, abs(series - 10.0 / 3.0) <= 5e-15,
               f"P={P}: Parseval series {series!r} not 10/3 to machine "
               "rounding")
    exact = bergman_p2([1, 2, 1])
    _check(failures, abs(exact - 10.0 / 3.0) <= 5e-15,
           f"coefficient norm {exact!r} not 10/3 to machine rounding")
    with capsys.disabled():
        _finish(1, "closed-form Bergman constant ||(1+z)^(4/p)||^p = 10/3",
                failures)


def test_criterion_02_lower_bound_chain():
    failures = []
    bound = 2.0 ** 8 / (15.0 * math.pi)
    for P in (0.1, 0.25, 0.4, 0.49):
        r = verify_ap_small_p(P)
        _check(failures, r.lhs >= bound - 1e-4,
               f"P={P}: ||f+g||^p = {r.lhs:.8g} below {bound:.8g} - 1e-4")
        _check(failures, r.lhs > 2.0 ** P * 10.0 / 3.0,
               f"P={P}: ||f+g||^p does not exceed 2^p * 10/3")
        _check(failures, r.verdict == "Confirmed" and r.defect > r.margin,
               f"P={P}: defect {r.defect:.3g} not above margin {r.margin:.3g}")
    _finish(2, "small-p Bergman chain ||f+g||^p >= 2^8/(15 pi) > 2^p 10/3",
            failures)


def test_criterion_03_hardy_counterexample():
    failures = []
    for k in range(1, 10):
        p = k / 10.0
        r = verify_hp_counterexample(p)
        _check(failures, r.verdict == "Confirmed", f"p={p}: {r.verdict}")
        subs = dict(r.sub_results)
        ratio = subs["norm_sum"].value / (4.0 * subs["norm_pole"].value)
        _check(failures, abs(ratio - 1.0) <= 1e-6,
               f"p={p}: ||f+g|| vs 4||1/(1-z)|| off by {abs(ratio - 1.0):.2e}")
    _finish(3, "Hardy triangle counterexample with ||f+g|| = 4||1/(1-z)||",
            failures)


def test_criterion_04_equality_case():
    failures = []
    for p in (0.3, 0.7):
        r = verify_hp_equality_case(p)
        scale = dict(r.sub_results)["norm_h"].value
        _check(failures, abs(r.defect) <= 1e-6 * scale,
               f"p={p}: | ||h+k|| - ||h|| - ||k|| | = {abs(r.defect):.2e} "
               f"exceeds 1e-6 * ||h||")
        _check(failures, r.verdict == "Confirmed", f"p={p}: {r.verdict}")
    _finish(4, "Hardy equality case | ||h+k|| - ||h|| - ||k|| | <= 1e-6 ||h||",
            failures)


def test_criterion_05_bergman_large_p():
    failures = []
    for p, eps in ((0.5, 1.0), (0.6, 0.7), (0.75, 0.4), (0.9, 0.15)):
        _check(failures, eps_window(p).contains(eps),
               f"(p,eps)=({p},{eps}): eps outside admissible window")
        start = time.perf_counter()
        r = verify_ap_large_p(p, eps)
        elapsed = time.perf_counter() - start
        _check(failures, r.verdict == "Confirmed",
               f"(p,eps)=({p},{eps}): {r.verdict}")
        _check(failures, elapsed < 120.0,
               f"(p,eps)=({p},{eps}): took {elapsed:.1f}s")
    _finish(5, "large-p Bergman counterexample on four (p, eps) pairs",
            failures)


def test_criterion_06_lemma_identities():
    failures = []
    cvh_set = [("1+z", 2.0), ("(1+z)^2", 2.0), ("1/(1-z)", 0.5)]
    cv_set = [("1+z", 2.0), ("(1+z)^2", 2.0), ("(1-z)^(-1/4)", 1.0)]
    for text, p in cvh_set:
        r = verify_lemma_cvh(parse(text), p)
        _check(failures, abs(r.defect) <= r.margin,
               f"cvh {text} p={p}: |defect| {abs(r.defect):.2e} > margin")
    for text, p in cv_set:
        r = verify_lemma_cv(parse(text), p)
        _check(failures, abs(r.defect) <= r.margin,
               f"cv {text} p={p}: |defect| {abs(r.defect):.2e} > margin")
    _finish(6, "substitution lemmas |defect| <= margin on the standard set",
            failures)


def test_criterion_07_membership_grid():
    failures = []
    for alpha in (0.5, 1.0, 2.0, 4.0):
        for p in (0.25, 0.5, 0.9, 1.5):
            prod = p * alpha
            want = ("Member" if prod < 2.0 - 1e-12 else
                    "Boundary" if prod < 2.0 + 1e-12 else "NonMember")
            got = membership_classify(alpha, p).classification
            _check(failures, got == want,
                   f"(alpha,p)=({alpha},{p}): classified {got}, rule {want}")
            v = membership_evidence(alpha, p)
            if want == "Member":
                _check(failures, v.diagnostic == "Convergent",
                       f"(alpha,p)=({alpha},{p}): diagnostic {v.diagnostic}")
            elif want == "NonMember":
                _check(failures, v.diagnostic.startswith("Divergent"),
                       f"(alpha,p)=({alpha},{p}): diagnostic {v.diagnostic}")
    # on the boundary point the truncated integrals must keep growing with
    # no geometric decay of the increments through R = 1 - 2^-12
    v = membership_evidence(4.0, 0.5)
    radii = [r for r, _ in v.evidence]
    _check(failures, radii[-1] == 1.0 - 2.0 ** -12,
           "evidence radii do not reach 1 - 2^-12")
    vals = [val for _, val in v.evidence]
    increments = np.diff(vals)
    _check(failures, bool(np.all(increments > 0.0)),
           "boundary integrals not strictly increasing")
    ratios = increments[1:] / increments[:-1]
    _check(failures, float(np.median(ratios[-3:])) > 0.9,
           "boundary increments decay geometrically")
    _finish(7, "A^p membership classifier and growth evidence on 16-grid",
            failures)


def test_criterion_08_quadrature_honesty():
    failures = []
    _check(failures, len(CORPUS) == 20,
           f"known-value corpus has {len(CORPUS)} entries")
    for name, f, a, b, exact, s_l, s_r, _accuracy in CORPUS:
        r = integrate(f, a, b,
                      QuadConfig(singular_left=s_l, singular_right=s_r))
        err = abs(r.value - exact)
        _check(failures, err <= 10.0 * r.abs_err_est,
               f"{name}: |true - computed| {err:.2e} exceeds "
               f"10x estimate {r.abs_err_est:.2e}")
    r = integrate(lambda x: x ** -0.5, 0.0, 1.0,
                  QuadConfig(singular_left=True))
    _check(failures, abs(r.value - 2.0) <= 1e-9,
           f"integral of x^-1/2 = {r.value!r}, off by {abs(r.value - 2.0):.2e}")
    _finish(8, "error estimates honest (<= 10x) on 20-integral corpus",
            failures)


def test_criterion_09_coefficient_cross_check():
    failures = []
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(50):
        deg = int(rng.integers(0, 9))
        coeffs = rng.uniform(-3.0, 3.0, deg + 1) \
            + 1j * rng.uniform(-3.0, 3.0, deg + 1)
        expr = Const(complex(coeffs[0]))
        for n in range(1, deg + 1):
            expr = Add(expr, Mul(Const(complex(coeffs[n])),
                                 Pow(Z(), Const(complex(n)))))
        quad_val = bergman_norm(expr, 2.0).value_p
        coeff_val = bergman_p2(coeffs)
        diff = abs(quad_val - coeff_val) / max(1.0, coeff_val)
        worst = max(worst, diff)
    _check(failures, worst <= 1e-8,
           f"worst quadrature-vs-coefficients disagreement {worst:.2e}")
    _finish(9, "bergman_norm(., 2) vs coefficient formula on 50 polynomials",
            failures)


def test_criterion_10_property_suites():
    failures = []

    # elementary inequality |a^q - b^q| >= |a - b|^q, 1e5 random samples
    rng = np.random.default_rng(1729)
    n = 100_000
    a = 10.0 ** rng.uniform(-6.0, 3.0, n)
    b = 10.0 ** rng.uniform(-6.0, 3.0, n)
    q = rng.uniform(1.0 + 1e-9, 8.0, n)
    violations = int(np.count_nonzero(np.abs(a ** q - b ** q)
                                      < np.abs(a - b) ** q))
    _check(failures, violations == 0,
           f"elementary inequality violated {violations} times")

    # rotation invariance
    rot_cases = [("(1+z)/(1-z)", 0.5, 0.7, "hardy"),
                 ("(1+z)^2", 1.3, 2.0, "hardy"),
                 ("(1+z)^2", 1.0, 2.4, "bergman"),
                 ("1/(1-z)", 0.5, -1.1, "bergman")]
    for text, p, angle, space in rot_cases:
        r = verify_rotation_invariance(parse(text), p, angle=angle,
                                       space=space)
        _check(failures, r.verdict == "Confirmed",
               f"rotation {space} {text} p={p}: {r.verdict}")

    # homogeneity ||c f|| = |c| ||f||
    hom_cases = [("(1+z)/(1-z)", "2.5*(1+z)/(1-z)", 2.5, 0.5, hardy_norm),
                 ("(1+z)^2", "3*(1+z)^2", 3.0, 0.7, bergman_norm)]
    for base, scaled, c, p, norm_fn in hom_cases:
        n1 = norm_fn(parse(base), p)
        n2 = norm_fn(parse(scaled), p)
        tol = 10.0 * (n2.value_abs_err + c * n1.value_abs_err) + 1e-12
        _check(failures, abs(n2.value - c * n1.value) <= tol,
               f"homogeneity {scaled} p={p}: off by "
               f"{abs(n2.value - c * n1.value):.2e}")

    # p-th power subadditivity for p < 1
    sub_cases = [("(1+z)/(1-z)", "1/(1-z)", 0.3, hardy_norm),
                 ("1+z", "1-z", 0.5, hardy_norm),
                 ("(1+z)^2", "z", 0.4, bergman_norm)]
    for ftext, gtext, p, norm_fn in sub_cases:
        nf = norm_fn(parse(ftext), p)
        ng = norm_fn(parse(gtext), p)
        ns = norm_fn(parse(f"({ftext}) + ({gtext})"), p)
        slack = (nf.value_p + ng.value_p) - ns.value_p
        tol = 10.0 * (nf.abs_err_est + ng.abs_err_est + ns.abs_err_est)
        _check(failures, slack >= -tol,
               f"subadditivity {ftext}+{gtext} p={p}: violated by "
               f"{-slack:.2e}")

    # integral means monotone in the radius
    for text, p in [("z", 1.5), ("(1+z)/(1-z)", 0.5), ("(1+z)^2", 0.25)]:
        r = verify_means_monotone(parse(text), p)
        _check(failures, r.verdict == "Confirmed",
               f"means monotonicity {text} p={p}: {r.verdict}")

    _finish(10, "property suites: elementary inequality, rotation, "
            "homogeneity, subadditivity, means monotonicity", failures)
