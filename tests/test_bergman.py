import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disknorms.bergman import (bergman_norm, bergman_norm_coeffs,
                               membership_classify, membership_evidence)
from disknorms.expr import (Add, BoundaryEvaluator, Neg, parse,
                            substitute_negate)
from disknorms.hardy import hardy_norm
from disknorms import bergman, hardy, quad, verify
from disknorms.quad import QuadConfig, integrate

from oracles import disk_integral
from test_hardy import _FailingEvaluator, _outcome, _spy_probe

# Independent anchors.  The two (p, eps) pairs below were computed with
# 30-digit iterated tanh-sinh quadrature on the polar form centred at the
# singularity; the hard pair (0.9, 0.15) was additionally cross-checked by
# a second program using the substitution rho = t^m that removes the
# boundary singularity analytically (two independent engines agreeing to
# 1e-10).
ANCHOR_F_05_1 = 2.7380208702985398      # ||f||^p at p=0.5, eps=1
ANCHOR_SUM_05_1 = 4.9803522284392357    # ||f+g||^p at p=0.5, eps=1
ANCHOR_F_06 = 5.0916675776546403        # ||f||^p at p=0.6, eps=5/6
ANCHOR_SUM_06 = 9.7390111584817472      # ||f+g||^p at p=0.6, eps=5/6
ANCHOR_F_09 = 46.85354356284710         # ||f||^p at p=0.9, eps=0.15

# quarter-strength radial singularity at p = 1 (midpoint + Richardson on
# the radial integral of circle means)
ANCHOR_QUARTER = 1.0110043571560809

# p-th powers of ||f+g|| for f = (1+z)^(4/p), from graded 2D Riemann sums
ANCHOR_SMALL_SUM = {0.1: 6.0496085, 0.25: 6.0492966, 0.4: 6.0609048}


def _counterexample_pair(p, eps):
    env = {"p": p, "eps": eps}
    f = parse("(1+z)^(2-eps) / (1-z)^(2+eps)")
    s = parse("(8*z*(1+z^2)) / (1-z^2)^(2+eps)")
    return f, s, env


# ---------------------------------------------------------------------------
# exact values


@pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
def test_binomial_power_gives_ten_thirds(p):
    r = bergman_norm(parse("(1+z)^(4/p)"), p, env={"p": p})
    assert r.converged
    assert r.value_p == pytest.approx(10.0 / 3.0, abs=1e-8)


def test_monomials_at_p_two():
    for n in range(4):
        e = parse("z^%d" % n) if n else parse("1")
        r = bergman_norm(e, 2.0)
        assert r.value_p == pytest.approx(1.0 / (n + 1), rel=1e-11)


def test_constant_norm():
    r = bergman_norm(parse("2"), 0.7)
    assert r.value == pytest.approx(2.0, rel=1e-11)


def test_coeffs_ten_thirds_exact():
    r = bergman_norm_coeffs([1, 2, 1])
    assert r.value_p == 10.0 / 3.0
    assert r.p == 2.0 and r.converged and r.abs_err_est == 0.0


def test_coeffs_formula():
    coeffs = [1 + 1j, 0, 3, -2j]
    r = bergman_norm_coeffs(coeffs)
    exact = sum(abs(c) ** 2 / (n + 1) for n, c in enumerate(coeffs))
    assert r.value_p == pytest.approx(exact, rel=1e-15)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=9))
@settings(max_examples=40)
def test_quadrature_matches_coeffs_at_p_two(coeffs):
    text_terms = []
    for n, c in enumerate(coeffs):
        if c:
            text_terms.append(f"{c}*z^{n}" if n else f"{c}")
    e = parse(" + ".join(text_terms) if text_terms else "0")
    r = bergman_norm(e, 2.0)
    exact = bergman_norm_coeffs(coeffs).value_p
    assert r.value_p == pytest.approx(exact, abs=1e-10, rel=1e-10)


# ---------------------------------------------------------------------------
# independently-computed singular anchors


def test_large_p_anchor_easy_pair():
    f, s, env = _counterexample_pair(0.5, 1.0)
    rf = bergman_norm(f, 0.5, env=env)
    rs = bergman_norm(s, 0.5, env=env)
    assert rf.converged and rs.converged
    assert rf.value_p == pytest.approx(ANCHOR_F_05_1, rel=1e-9)
    assert rs.value_p == pytest.approx(ANCHOR_SUM_05_1, rel=1e-9)


def test_large_p_anchor_mid_pair():
    f, s, env = _counterexample_pair(0.6, 5.0 / 6.0)
    rf = bergman_norm(f, 0.6, env=env)
    rs = bergman_norm(s, 0.6, env=env)
    assert rf.value_p == pytest.approx(ANCHOR_F_06, rel=1e-9)
    assert rs.value_p == pytest.approx(ANCHOR_SUM_06, rel=1e-9)


def test_large_p_anchor_edge_pair():
    # p*(2+eps) = 1.935: the nearly-critical case.  The radial tail below
    # the representable-depth floor is honestly truncated, so the result
    # may report converged=False; the value must still sit within the
    # claimed estimate of the independently adjudicated anchor.
    f, _, env = _counterexample_pair(0.9, 0.15)
    rf = bergman_norm(f, 0.9, env=env)
    assert not rf.divergent
    err = abs(rf.value_p - ANCHOR_F_09)
    assert err <= 10.0 * rf.abs_err_est
    assert err <= 1e-7 * ANCHOR_F_09


def test_quarter_singularity_anchor():
    r = bergman_norm(parse("(1-z)^(-1/4)"), 1.0)
    assert r.converged
    assert r.value_p == pytest.approx(ANCHOR_QUARTER, rel=1e-10)


@pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
def test_small_p_sum_anchor(p):
    env = {"p": p}
    f = parse("(1+z)^(4/p)")
    total = Add(f, Neg(substitute_negate(f)))
    r = bergman_norm(total, p, env=env)
    assert r.converged
    assert r.value_p == pytest.approx(ANCHOR_SMALL_SUM[p], abs=2e-6)


def test_small_p_sum_vs_riemann_oracle():
    # same number through a wholly different pipeline: graded polar sum
    p = 0.25
    fn = lambda z: np.abs((1 + z) ** 16 - (1 - z) ** 16) ** p
    ref = disk_integral(fn, nr=2000, nt=2000, grade=3.0)
    f = parse("(1+z)^(4/p)")
    total = Add(f, Neg(substitute_negate(f)))
    r = bergman_norm(total, p, env={"p": p})
    assert r.value_p == pytest.approx(ref, rel=2e-4)


# ---------------------------------------------------------------------------
# divergence


def test_critical_exponent_flagged_divergent():
    r = bergman_norm(parse("(1-z)^(-4)"), 0.5)
    assert r.divergent and not r.converged


def test_supercritical_flagged_divergent():
    r = bergman_norm(parse("(1-z)^(-3)"), 1.0)
    assert r.divergent and not r.converged


def test_subcritical_not_flagged():
    r = bergman_norm(parse("(1-z)^(-3)"), 0.5)
    assert not r.divergent
    assert r.converged


def test_inner_means_share_evaluator_calls(monkeypatch):
    # one near call per arc side and round of an outer request, not one per
    # radius: the points are those of the one-radius-at-a-time loop (1,685
    # calls), and the calls at most a tenth of its count
    calls, points = [], []
    near = BoundaryEvaluator.near

    def counted(self, anchor, delta, gap, p=None):
        calls.append(1)
        points.append(np.size(delta))
        return near(self, anchor, delta, gap, p)

    monkeypatch.setattr(BoundaryEvaluator, "near", counted)
    bergman_norm(parse("1/(1-z)^2"), 0.9)
    assert sum(points) == 50700
    assert len(calls) <= 1685 // 10


def test_node_tables_built_once_per_distinct_request():
    # the heap's panel requests, which single integrals make: 44 requests
    # of 22 distinct (bounds, L) in verify_hp_counterexample(0.5); each node
    # table is built on the first of its requests and looked up after that.
    # f + g runs over [0, pi/2] (hardy._layout), one side from 1 where
    # [0, pi] had two, so the mirror side's 5 requests, all repeats, are gone
    from disknorms.verify import verify_hp_counterexample
    quad._nodes.cache_clear()
    verify_hp_counterexample(0.5)
    info = quad._nodes.cache_info()
    assert (info.misses, info.hits + info.misses) == (22, 44)


def test_inner_means_take_one_near_call_per_group_and_round(monkeypatch):
    # quad._bisect runs every inner bisection of an outer request at once:
    # one near call per arc side and round, the tails in one more; the
    # real coefficients leave one arc, [0, pi], with one side, from_left
    # of 1 (hardy._layout)
    calls = []
    near = BoundaryEvaluator.near

    def counted(self, anchor, delta, gap, p=None):
        calls.append(np.size(delta))
        return near(self, anchor, delta, gap, p)

    monkeypatch.setattr(BoundaryEvaluator, "near", counted)
    bergman_norm(parse("1/(1-z)^2"), 0.9)
    assert (len(calls), sum(calls)) == (54, 50700)


def _started_circle_means(monkeypatch):
    """The gap counts of the calls of bergman._circle_means that run."""
    started = []
    means = bergman._circle_means

    def spy(*args):
        started.append(len(args[3]))
        yield from means(*args)

    monkeypatch.setattr(bergman, "_circle_means", spy)
    return started


def _radial_and_norm(f, p, env):
    """repr of _radial_integral and of bergman_norm of f at p, or the
    exception they raise."""
    out = []
    _, ev, st = hardy._setup(f, p, env)
    for call in (lambda: bergman._radial_integral(ev, p, st, QuadConfig()),
                 lambda: bergman_norm(f, p, env=env)):
        try:
            out.append(repr(call()))
        except Exception as ex:
            out.append(f"{type(ex).__name__}: {ex}")
    return out


_AP_SMALL_SUM = verify._pair("(1+z)^(4/p)", 1.0, bergman_norm, 0.1,
                             {"p": 0.1}, None)[2]


def _radial_requests(monkeypatch, batch):
    """The result of the radial integral of _AP_SMALL_SUM at p = 0.1 with
    the outer heap bisecting up to batch panels a step, and the radius
    count of each of its inner requests."""
    started = _started_circle_means(monkeypatch)
    monkeypatch.setattr(bergman._RadialIntegrand, "batch", batch)
    _, ev, st = hardy._setup(_AP_SMALL_SUM, 0.1, {"p": 0.1})
    return bergman._radial_integral(ev, 0.1, st, QuadConfig()), started


def test_outer_heap_bisects_kinked_panels_in_batches(monkeypatch):
    # the zeros of f + g put kinks into the radial integrand, so the outer
    # error spreads over several panels and the heap bisects up to four a
    # step: 17 requests of up to 120 radii instead of 64 of 30, for the
    # same 1,935 radii and the same bits
    expected = (6.0496084528139535, 2.752896356966791e-08, True, 322260)
    batched, started = _radial_requests(monkeypatch, 4)
    assert (batched, len(started), max(started), sum(started)) == (
        expected, 17, 120, 1935)
    alone, started = _radial_requests(monkeypatch, 1)
    assert (alone, len(started), sum(started)) == (expected, 64, 1935)


@pytest.mark.parametrize("f,p,env", [
    (parse("(1+z)^(2-eps) / (1-z)^(2+eps)"), 0.6, {"p": 0.6, "eps": 0.7}),
    (parse("1/(1-z)^2"), 0.999, None),          # stops at the outer budget
    (parse("1e300/(1-z)^3"), 1.0, None),        # inner means overflow
], ids=["ap-large-p-f", "budget", "overflow"])
def test_outer_heap_takes_a_boundary_pole_one_panel_a_step(monkeypatch, f,
                                                           p, env):
    # the outer error sits at the singular end, so no step takes a second
    # panel: values, estimates, evaluation counts and failures are those of
    # one panel a step
    batched = _radial_and_norm(f, p, env)
    monkeypatch.setattr(bergman._RadialIntegrand, "batch", 1)
    assert _radial_and_norm(f, p, env) == batched


# the probe's configurations, and the plain rung on [0, 1 - cut] that its
# transformed rungs are checked against
_PROBE_INNER = QuadConfig(abs_tol=1e-7, rel_tol=1e-6, max_evaluations=60000)
_PROBE_OUTER = QuadConfig(abs_tol=1e-6, rel_tol=1e-4, max_evaluations=3000)
_PROBE_CASES = [
    (parse("1/(1-z)^2"), 0.999, None),
    (parse("1/(1-z)^2"), 1.0, None),
    (parse("1/(1-z)^2"), 1.5, None),
    (parse("1/(1-z)^3"), 0.5, None),
    (parse("(1+z)^(2-eps) / (1-z)^(2+eps)"), 0.5, {"p": 0.5, "eps": 1.0}),
]


def _rung_plan(cut):
    """The probe's rung at cut: the right singular side of [0, 1] under
    _PROBE_OUTER, its transform stopped where the offset reaches cut."""
    ends = hardy._Ends(False, True, 280.0 / math.log10(1.0 / cut), 0.0)
    return quad._side_plan(ends, 0.0, 1.0, "right", _PROBE_OUTER.abs_tol,
                           _PROBE_OUTER.rel_tol, _PROBE_OUTER.max_evaluations)


def _rung_alone(ev, p, st, cut):
    """The probe's rung at cut, bisected alone by heap."""
    intg = bergman._RadialIntegrand(ev, p, st, _PROBE_INNER)
    return quad._adaptive(intg.from_right, _rung_plan(cut))[0][0]


def _plain_rung(ev, p, st, cut):
    """The radial integral up to 1 - cut, integrated alone without a
    transform."""
    return integrate(bergman._RadialIntegrand(ev, p, st, _PROBE_INNER),
                     0.0, 1.0 - cut, _PROBE_OUTER).value


def _probe_rungs(monkeypatch, ev, p, st):
    """The rungs the probe hands the ladder."""
    rungs = []
    monkeypatch.setattr(bergman, "_ladder_says_divergent", lambda truncated:
                        rungs.extend(map(truncated, hardy._CUTS)))
    bergman._radial_divergence_probe(ev, p, st)
    return rungs


def test_probe_rung_ends_at_its_cut():
    for cut in hardy._CUTS:
        plan = _rung_plan(cut)
        assert (plan.method, plan.L, plan.tail_at) == ("from_right", 1.0, None)
        deepest = plan.L * math.exp(-2.0 * math.sinh(plan.W))
        assert deepest == pytest.approx(cut, rel=1e-12)


@pytest.mark.parametrize("f,p,env", _PROBE_CASES,
                         ids=["p0.999", "p1", "p1.5", "cube", "ap-large-p-f"])
def test_probe_rungs_at_once_change_no_bit(monkeypatch, f, p, env):
    # the three rungs bisect as owners of one quad._bisect call, and hand
    # the ladder the values each transformed side gives alone
    _, ev, st = hardy._setup(f, p, env)
    rungs = _probe_rungs(monkeypatch, ev, p, st)
    alone = [_rung_alone(ev, p, st, cut) for cut in hardy._CUTS]
    assert [v.hex() for v in rungs] == [v.hex() for v in alone]


@pytest.mark.parametrize("f,p,env", _PROBE_CASES,
                         ids=["p0.999", "p1", "p1.5", "cube", "ap-large-p-f"])
def test_probe_rungs_match_the_plain_rungs(monkeypatch, f, p, env):
    # the transformed rung integrates the same [0, 1 - cut] as the plain
    # one, each within the outer tolerance
    _, ev, st = hardy._setup(f, p, env)
    rungs = _probe_rungs(monkeypatch, ev, p, st)
    for cut, v in zip(hardy._CUTS, rungs):
        plain = _plain_rung(ev, p, st, cut)
        assert abs(v - plain) <= max(_PROBE_OUTER.abs_tol,
                                     _PROBE_OUTER.rel_tol * abs(plain))


@pytest.mark.parametrize("p", [0.9, 0.95, 0.99, 0.995, 0.999, 1.0, 1.5])
def test_probe_decides_as_the_plain_rungs(p):
    # on either side of p*2 = 2 the ladder reads the same growth from the
    # transformed rungs as from the plain ones; at p = 0.995 and 0.999 both
    # flag a finite norm (exact 100.0 and 500.0), the ladder's known false
    # divergence below the critical exponent
    _, ev, st = hardy._setup(parse("1/(1-z)^2"), p, None)
    plain = hardy._ladder_says_divergent(
        lambda cut: _plain_rung(ev, p, st, cut))
    assert bergman._radial_divergence_probe(ev, p, st) is plain
    assert plain is (p >= 0.995)


def test_probe_rungs_share_their_inner_requests(monkeypatch):
    # the first round makes one request for all three rungs, their 3 x 45
    # initial radii, and every rung converges there: one request, where the
    # rungs one at a time make one each
    started = _started_circle_means(monkeypatch)
    _, ev, st = hardy._setup(parse("1/(1-z)^2"), 1.0, None)
    assert bergman._radial_divergence_probe(ev, 1.0, st)
    assert started == [135]


@pytest.mark.parametrize("how", ["raise", "inf"])
def test_probe_falls_back_to_one_rung_at_a_time(how):
    # a circle of the middle rung's first panel fails: the rungs rerun one
    # at a time, so the ladder raises, or reads a blow-up, as it did.  The
    # plain arc between the zeros +-i samples the bad circle through value
    _, ev, st = hardy._setup(parse("(1+z^2)/(1-z)^2"), 0.5, None)
    assert not bergman._radial_divergence_probe(ev, 0.5, st)
    plan = _rung_plan(hardy._CUTS[1])
    # the offset at the middle node of the first panel is the gap
    gap = plan.L * math.exp(-2.0 * math.sinh(0.5 * sum(plan.edges[:2])))
    fev = _FailingEvaluator(ev, {}, bad_circles={gap: how})
    probe = _outcome(lambda: bergman._radial_divergence_probe(fev, 0.5, st))
    assert probe == _outcome(lambda: hardy._ladder_says_divergent(
        lambda cut: _rung_alone(fev, 0.5, st, cut)))
    assert probe == (f"EvalDomainError: bad gap {gap!r}" if how == "raise"
                     else "True")


def test_far_supercritical_flagged_divergent(monkeypatch):
    # p*alpha = 400 > 2 makes the norm infinite; the inner means level off
    # below the capped depth, so the ladder would not see it, and the net
    # exponent decides
    probe = _spy_probe(monkeypatch, bergman, "_radial_divergence_probe")
    r = bergman_norm(parse("1/(1-z)^400"), 1.0)
    assert r.divergent and not r.converged
    assert probe == []


@pytest.mark.xfail(strict=True, reason="open defect: with no singular point "
                   "the outer plan is three plain panels, whose nodes never "
                   "reach the peak of r^(2n+1) at r -> 1, so value_p comes "
                   "back 9.8e-65 with a converged estimate of 3.9e-64")
def test_high_degree_monomial_estimate_is_honest():
    n = 100000
    r = bergman_norm(parse(f"z^{n}"), 1.0)
    assert abs(r.value_p - 2.0 / (n + 2)) <= r.abs_err_est or not r.converged


@pytest.mark.parametrize("norm", [hardy_norm, bergman_norm])
def test_overflowing_samples_are_not_converged_and_divergent(norm):
    # p*3 exceeds both critical exponents, so both norms are infinite; the
    # constant overflows the samples (Hardy) and the inner means (Bergman)
    r = norm(parse("1e300/(1-z)^3"), 1.0)
    assert not r.converged and r.divergent
    assert r.value_p == math.inf


# A large constant overflows the deepest samples of finite norms: the depth
# floor 10^(-280/s) assumes |f| ~ |t|^(-s) with a constant near 1


@pytest.mark.xfail(strict=True, reason="open defect: the transform depth "
                   "ignores the constant 1e200, so samples overflow and the "
                   "finite norm comes back inf, not converged")
def test_large_constant_hardy_norm_is_finite():
    r = hardy_norm(parse("1e200/(1-z)^0.5"), 1.0)
    exact = 1e200 * math.gamma(0.5) / math.gamma(0.75) ** 2
    assert r.converged and not r.divergent
    assert r.value_p == pytest.approx(exact, rel=1e-7)


@pytest.mark.xfail(strict=True, reason="open defect: the inner means "
                   "overflow at the deepest radii, so the finite norm comes "
                   "back inf and is flagged divergent")
def test_large_constant_bergman_norm_is_finite():
    r = bergman_norm(parse("1e300/(1-z)^1.5"), 1.0)
    exact = 1e300 * math.gamma(0.5) / math.gamma(1.25) ** 2
    assert r.converged and not r.divergent
    assert r.value_p == pytest.approx(exact, rel=1e-7)


# ---------------------------------------------------------------------------
# membership of (1-z)^(-alpha)


def test_classify_rule_on_grid():
    for alpha in (0.5, 1.0, 2.0, 4.0):
        for p in (0.25, 0.5, 0.9, 1.5):
            v = membership_classify(alpha, p)
            product = p * alpha
            assert v.product == pytest.approx(product, rel=1e-15)
            if abs(product - 2.0) <= 1e-12:
                assert v.classification == "Boundary"
            elif product < 2.0:
                assert v.classification == "Member"
            else:
                assert v.classification == "NonMember"


def test_classify_validates_inputs():
    for bad in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)):
        with pytest.raises(ValueError):
            membership_classify(*bad)


@pytest.mark.parametrize("alpha,p", [(1.0, math.nan), (math.nan, 1.0),
                                     (math.inf, 1.0), (1.0, math.inf)])
def test_classify_and_evidence_reject_non_finite_inputs(alpha, p):
    # a nan product compared false with 2 and classified NonMember
    for call in (membership_classify, membership_evidence):
        with pytest.raises(ValueError, match="need finite alpha > 0"):
            call(alpha, p)


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_bergman_norm_rejects_non_finite_p(p):
    with pytest.raises(ValueError, match="p must be positive and finite"):
        bergman_norm(parse("1+z"), p)


def test_evidence_anchor_values():
    # truncated disk integrals of |1-z|^{-1}, checked against a 4000^2
    # polar Riemann sum
    v = membership_evidence(1.0, 1.0)
    by_radius = dict(v.evidence)
    assert by_radius[0.75] == pytest.approx(0.61422868, abs=1e-6)
    assert by_radius[0.9375] == pytest.approx(1.04439181, abs=1e-6)
    assert by_radius[0.984375] == pytest.approx(1.20154013, abs=1e-6)
    assert v.diagnostic == "Convergent"


def test_evidence_default_radii():
    v = membership_evidence(1.0, 0.5)
    radii = [r for r, _ in v.evidence]
    assert radii == [1.0 - 2.0 ** -k for k in range(2, 13)]
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_evidence_diagnostics_agree_with_rule():
    cases = [(1.0, 1.0, "Convergent"),       # product 1
             (2.0, 0.9, "Convergent"),       # product 1.8
             (4.0, 0.5, "Divergent-log"),    # product exactly 2
             (2.0, 1.0, "Divergent-log"),    # product exactly 2
             (2.5, 1.0, "Divergent-poly"),   # product 2.5
             (4.0, 1.5, "Divergent-poly")]   # product 6
    for alpha, p, expected in cases:
        v = membership_evidence(alpha, p)
        assert v.diagnostic == expected, (alpha, p)


def test_boundary_integrals_grow_without_geometric_decay():
    # at p*alpha = 2 the truncated integrals keep growing: increments
    # never fall into a geometric-decay regime through k = 12
    v = membership_evidence(2.0, 1.0)
    vals = [val for _, val in v.evidence]
    increments = [b - a for a, b in zip(vals, vals[1:])]
    assert all(i > 0 for i in increments)
    ratios = [b / a for a, b in zip(increments, increments[1:])]
    assert np.median(ratios[-3:]) > 0.9


def test_evidence_validates_radii():
    with pytest.raises(ValueError):
        membership_evidence(1.0, 1.0, radii=[0.5, 0.6])  # too few
    with pytest.raises(ValueError):
        membership_evidence(1.0, 1.0, radii=[0.5, 0.4, 0.6, 0.7])
    with pytest.raises(ValueError):
        membership_evidence(1.0, 1.0, radii=[0.5, 0.6, 0.7, 1.1])


# I(R) = R^2 2F1(s/2, s/2; 2; R^2) is elementary at even s
_TRUNCATED_CLOSED_FORMS = {
    2.0: lambda x: -math.log1p(-x),
    4.0: lambda x: x / (1.0 - x) ** 2,
    6.0: lambda x: x * (1.0 + x / 2.0) / (1.0 - x) ** 4,
}


@pytest.mark.parametrize("s", sorted(_TRUNCATED_CLOSED_FORMS))
def test_truncated_disk_integral_matches_closed_forms(s):
    for R in bergman._default_radii():
        exact = _TRUNCATED_CLOSED_FORMS[s](R * R)
        assert bergman._truncated_disk_integral(s, R) == pytest.approx(
            exact, rel=1e-13, abs=0.0), R


@pytest.mark.parametrize("s", [2.0 - 1e-12, 2.0 + 1e-12,
                               2.0 - 1e-14, 2.0 + 1e-14])
def test_truncated_disk_integral_does_not_cancel_near_two(s):
    # just off q = 2 - s = 0, where the log form is not taken
    for R in bergman._default_radii():
        assert bergman._truncated_disk_integral(s, R) == pytest.approx(
            -math.log1p(-R * R), rel=1e-9, abs=0.0), R


def test_membership_grid_evaluations(monkeypatch):
    # the 4x4 grid of scripts/membership_grid.py; the count holds only while
    # the square-root end at asin R goes through the singular transform
    evaluations = []

    def spy(*args, **kwargs):
        r = integrate(*args, **kwargs)
        evaluations.append(r.evaluations)
        return r

    monkeypatch.setattr(bergman, "integrate", spy)
    for alpha in (0.5, 1.0, 2.0, 4.0):
        for p in (0.25, 0.5, 0.9, 1.5):
            membership_evidence(alpha, p)
    assert sum(evaluations) == 11730


# ---------------------------------------------------------------------------
# consistency across spaces and configs


def test_bergman_below_hardy_for_shared_function():
    # area average of a subharmonic |f|^p is dominated by its boundary
    # average
    f = parse("1/(1-z)")
    p = 0.5
    assert bergman_norm(f, p).value_p <= hardy_norm(f, p).value_p


def test_tight_config():
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-11)
    r = bergman_norm(parse("(1+z)^2"), 2.0, cfg=cfg)
    exact = bergman_norm_coeffs([1, 2, 1]).value_p
    assert r.value_p == pytest.approx(exact, rel=1e-11)
    assert r.converged


def test_invalid_p_rejected():
    with pytest.raises(ValueError):
        bergman_norm(parse("z"), 0.0)


def test_declared_angles_match_detected():
    f = parse("(1-z)^(-1/4)")
    auto = bergman_norm(f, 1.0)
    declared = bergman_norm(f, 1.0, singular_angles=[0.0])
    assert declared.value_p == pytest.approx(auto.value_p, rel=1e-8)


def test_constant_with_declared_angle():
    # the radial transform bounds its tail by one inner sample of the
    # constant, and the probe of the declared angle samples it twice
    r = bergman_norm(parse("1"), 1.0, singular_angles=[0.0])
    assert r.converged and not r.divergent
    assert abs(r.value - 1.0) <= r.abs_err_est
