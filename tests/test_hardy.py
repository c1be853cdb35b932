import math
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from disknorms import bergman, expr, hardy, quad
from disknorms.expr import (BoundaryStructure, EvalDomainError, SingularPoint,
                            UnsupportedFormError, parse, substitute_rotate)
from disknorms.bergman import (InnerIntegralError, _RadialIntegrand,
                               bergman_norm)
from disknorms.hardy import (NormResult, _ladder_says_divergent, hardy_norm,
                             integral_means)
from disknorms.quad import NonFiniteSampleError, QuadConfig

from oracles import circle_mean_p

# p-th power of the boundary quasi-norm of 1/(1-z) at p = 1/2, computed
# independently by midpoint + Richardson refinement of the boundary
# integral (agrees with the closed form Gamma-function expression)
V_HALF = 1.1803405990160962

# integral mean M_{1/2}(0.9) of 1/(1-z), same independent construction
M_HALF_09 = 1.1761570198509588


def _pole_ratio():
    return parse("(1+z)/(1-z)")


# ---------------------------------------------------------------------------
# exact anchors


def test_constant_norm_is_modulus():
    for p in (0.3, 1.0, 2.0):
        r = hardy_norm(parse("3"), p)
        assert r.value == pytest.approx(3.0, rel=1e-12)
        assert r.converged and not r.divergent


def test_monomial_norm_is_one():
    for p in (0.5, 2.0):
        r = hardy_norm(parse("z^3"), p)
        assert r.value == pytest.approx(1.0, rel=1e-11)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_sec_closed_form_for_pole_ratio(p):
    # the boundary modulus of (1+z)/(1-z) is |cot(t/2)|, whose p-th moment
    # is sec(p*pi/2)
    r = hardy_norm(_pole_ratio(), p)
    exact = 1.0 / math.cos(p * math.pi / 2.0)
    assert r.converged
    assert r.value_p == pytest.approx(exact, rel=1e-10)
    assert abs(r.value_p - exact) <= 10.0 * max(r.abs_err_est, 1e-15)


def test_half_pole_anchor():
    r = hardy_norm(parse("1/(1-z)"), 0.5)
    assert r.converged
    assert r.value_p == pytest.approx(V_HALF, rel=1e-12)


def test_sum_collapses_to_four_times_pole():
    # 4z/(1-z^2) has the same boundary modulus distribution as 4/(1-z^2),
    # and the square substitution ties it to 1/(1-z)
    r = hardy_norm(parse("(4*z)/(1-z^2)"), 0.5)
    assert r.value_p == pytest.approx(2.0 * V_HALF, rel=1e-11)
    assert r.value == pytest.approx(4.0 * V_HALF ** 2, rel=1e-10)


def test_parseval_for_polynomials():
    # at p = 2 the squared norm is the coefficient power sum
    for text, coeffs in (("1+z", (1, 1)), ("(1+z)^2", (1, 2, 1)),
                         ("2*z^3 - z + 0.5", (0.5, -1, 0, 2)),
                         ("(1+2*z)*(3-z)", (3, 5, -2))):
        exact = sum(abs(c) ** 2 for c in coeffs)
        r = hardy_norm(parse(text), 2.0)
        assert r.value_p == pytest.approx(exact, rel=1e-11), text


# ---------------------------------------------------------------------------
# integral means


def test_integral_means_anchor():
    m = integral_means(parse("1/(1-z)"), 0.5, 0.9)
    assert m == pytest.approx(M_HALF_09, rel=1e-12)


def test_integral_means_of_z_is_radius():
    for p, r in [(0.5, 0.25), (2.0, 0.7), (1.0, 0.95)]:
        assert integral_means(parse("z"), p, r) == pytest.approx(r, rel=1e-11)


def test_integral_means_match_periodic_oracle():
    f = parse("(1+z)/(1-z)")
    fn = lambda z: (1 + z) / (1 - z)
    for p, r in [(0.5, 0.5), (0.8, 0.9), (2.0, 0.99)]:
        mine = integral_means(f, p, r) ** p
        ref = circle_mean_p(fn, p, r, n=1 << 16)
        assert mine == pytest.approx(ref, rel=1e-9)


def test_integral_means_nondecreasing_in_radius():
    f = _pole_ratio()
    radii = [0.1, 0.3, 0.5, 0.7, 0.9, 0.97]
    vals = [integral_means(f, 0.5, r) for r in radii]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_integral_means_validates_inputs():
    f = parse("z")
    for bad_r in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            integral_means(f, 0.5, bad_r)
    with pytest.raises(ValueError):
        integral_means(f, 0.0, 0.5)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("text", ["1/(1-z)", "1+z"])
def test_norm_and_means_reject_non_finite_p(text, p):
    # nan gave a NormResult with p=nan and divergent=True, inf on 1+z the
    # value 1.0
    with pytest.raises(ValueError, match="p must be positive and finite"):
        hardy_norm(parse(text), p)
    with pytest.raises(ValueError, match="p must be positive and finite"):
        integral_means(parse(text), p, 0.5)


def test_norm_is_supremum_of_means():
    # boundary norm dominates the means and is approached as r -> 1
    f = parse("1/(1-z)")
    p = 0.5
    norm_p = hardy_norm(f, p).value_p
    near = integral_means(f, p, 1.0 - 1e-4) ** p
    assert near <= norm_p + 1e-9
    assert near == pytest.approx(norm_p, rel=2e-2)


# ---------------------------------------------------------------------------
# invariances


@given(st.sampled_from([0.25, 0.5, 1.0, 2.0]),
       st.floats(0.1, 6.2))
def test_rotation_invariance_polynomial(p, angle):
    lam = complex(math.cos(angle), math.sin(angle))
    f = parse("(1+z)^2")
    r1 = hardy_norm(f, p)
    r2 = hardy_norm(substitute_rotate(f, lam), p)
    assert r2.value_p == pytest.approx(r1.value_p, rel=1e-9)


def test_rotation_invariance_singular():
    lam = complex(math.cos(2.2), math.sin(2.2))
    f = parse("1/(1-z)")
    r1 = hardy_norm(f, 0.5)
    r2 = hardy_norm(substitute_rotate(f, lam), 0.5)
    assert r2.value_p == pytest.approx(r1.value_p, rel=1e-10)


def test_homogeneity():
    f = parse("(1+z)/(1-z)")
    p = 0.4
    base = hardy_norm(f, p).value
    from disknorms.expr import Const, Mul
    scaled = hardy_norm(Mul(Const(2.5 + 0j), f), p).value
    assert scaled == pytest.approx(2.5 * base, rel=1e-10)


def test_p_power_subadditivity_for_small_p():
    # for 0 < p < 1 the p-th powers are subadditive even when the norms
    # themselves are not
    p = 0.5
    f = parse("(1+z)/(1-z)")
    g = parse("-((1-z)/(1+z))")
    s = parse("(1+z)/(1-z) - (1-z)/(1+z)")
    total = hardy_norm(s, p).value_p
    assert total <= hardy_norm(f, p).value_p + hardy_norm(g, p).value_p + 1e-9


# ---------------------------------------------------------------------------
# divergence reporting


@pytest.mark.parametrize("text,p", [
    ("1/(1-z)", 1.0),    # borderline: logarithmic divergence
    ("1/(1-z)", 2.0),    # power divergence
    ("(1+z)/(1-z)", 1.0),
])
def test_divergent_cases_are_flagged(text, p):
    r = hardy_norm(parse(text), p)
    assert r.divergent
    assert not r.converged


def _spy_probe(monkeypatch, module, name):
    """The p of each call of module's divergence probe name, as it runs."""
    calls = []
    probe = getattr(module, name)

    def spy(ev, p, structure):
        calls.append(p)
        return probe(ev, p, structure)

    monkeypatch.setattr(module, name, spy)
    return calls


# (space, text, p): unconverged product forms with p*sigma at or above the
# critical value at a root, which the net exponents flag with no probe
_NET_DIVERGENT = [
    ("hardy", "1/(1-z)", 1.0),
    ("hardy", "1/(1-z)^2", 0.6),
    ("hardy", "1/((1-z)*(2-2*z))", 0.5),     # two leaves at one root
    ("hardy", "1e300/(1-z)^3", 1.0),
    ("bergman", "1/(1-z)^2", 1.0),
    ("bergman", "1/(1-z^2)^2", 1.0),         # two roots
    ("bergman", "1e300/(1-z)^3", 1.0),
]
_PROBES = {"hardy": (hardy, "_divergence_probe", hardy_norm),
           "bergman": (bergman, "_radial_divergence_probe", bergman_norm)}


@pytest.mark.parametrize("space,text,p", _NET_DIVERGENT)
def test_net_exponents_flag_divergence_without_probe(monkeypatch, space,
                                                     text, p):
    module, name, norm = _PROBES[space]
    calls = _spy_probe(monkeypatch, module, name)
    r = norm(parse(text), p)
    assert r.divergent and not r.converged
    assert calls == []


# (space, text, p, singular_angles, divergent): unconverged norms the net
# exponents cannot decide, so the ladder does
_LADDER_DECIDES = [
    ("hardy", "(1+z)/(1-z)", 0.97, None, False),     # p*sigma below 1
    ("hardy", "1/(1-z)+1/(1-z)", 1.0, None, True),   # a sum
    ("hardy", "1/(1-z)", 1.0, [0.0], True),          # declared angles
    ("bergman", "1/(1-z)^2", 2.0, [0.0], True),
    ("bergman", "1/(1-z)^2", 0.999, None, True),     # finite, still flagged
]


@pytest.mark.parametrize("space,text,p,angles,divergent", _LADDER_DECIDES)
def test_ladder_decides_what_net_exponents_cannot(monkeypatch, space, text,
                                                  p, angles, divergent):
    module, name, norm = _PROBES[space]
    calls = _spy_probe(monkeypatch, module, name)
    r = norm(parse(text), p, singular_angles=angles)
    assert not r.converged and r.divergent is divergent
    assert calls == [p]


# (text, p, alpha): product forms with |f| = |1 - z|^-alpha on the circle,
# whose ||f||^p is Gamma(1 - p alpha)/Gamma(1 - p alpha/2)^2.  A zero at the
# pole offsets the strength there: BoundaryEvaluator.structure gives it the
# net exponent alpha, which the depth floor of the singular sides reads.
# The plan merges the powers of 1-z into one leaf, while z-1 is a leaf of
# its own, whose exponent alone would give the strength 2.  With the
# strength 1 of (1-z)^0.5/(1-z), the mass below the floor was 1.6 times the
# estimate at p = 1.9
_HONEST = [
    ("1/(1-z)", 0.5, 1.0),
    ("(1-z)^-0.5", 1.9, 0.5),
    ("(1-z)^0.5/(1-z)", 1.9, 0.5),
    ("(1-z)^1.5/(1-z)^2", 1.9, 0.5),
    ("(1-z)^1.5/(z-1)^2", 1.9, 0.5),
    ("(1-z)^0.25/(1-z)^1.15", 1.05, 0.9),
]


@pytest.mark.parametrize("text,p,alpha", _HONEST)
def test_product_form_errors_within_estimate(text, p, alpha):
    r = hardy_norm(parse(text), p)
    exact = math.gamma(1.0 - p * alpha) / math.gamma(1.0 - p * alpha / 2) ** 2
    assert r.converged and not r.divergent
    assert abs(r.value_p - exact) <= r.abs_err_est


def test_far_supercritical_flagged_divergent(monkeypatch):
    # the Hardy twin of the Bergman test: p*alpha = 400 > 1
    calls = _spy_probe(monkeypatch, hardy, "_divergence_probe")
    r = hardy_norm(parse("1/(1-z)^400"), 1.0)
    assert r.divergent and not r.converged
    assert calls == []


def test_convergent_singular_cases_not_flagged():
    r = hardy_norm(parse("1/(1-z)"), 0.5)
    assert not r.divergent
    r = hardy_norm(parse("(1-z)^(-1/4)"), 2.0)
    assert not r.divergent


# ---------------------------------------------------------------------------
# declared singularities


def test_declared_angles_match_detected():
    f = parse("1/(1-z)")
    auto = hardy_norm(f, 0.5)
    declared = hardy_norm(f, 0.5, singular_angles=[0.0])
    assert declared.value_p == pytest.approx(auto.value_p, rel=1e-9)


def test_constant_with_declared_angle():
    # the probe of a declared angle samples the constant at two offsets
    r = hardy_norm(parse("1"), 1.0, singular_angles=[0.0])
    assert r.converged and not r.divergent
    assert abs(r.value - 1.0) <= r.abs_err_est


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_declared_angle_is_rejected(angle):
    with pytest.raises(ValueError,
                       match=f"singular angles must be finite, got {angle}"):
        hardy_norm(parse("1/(1-z)"), 0.5, singular_angles=[0.0, angle])


def test_undetectable_form_needs_declaration():
    # (2 - z - z^2) = (1-z)(2+z) but is not structurally factorable here
    f = parse("(2 - z - z^2)^(-1)")
    with pytest.raises(UnsupportedFormError):
        hardy_norm(f, 0.5)
    declared = hardy_norm(f, 0.5, singular_angles=[0.0])
    factored = hardy_norm(parse("1/((1-z)*(2+z))"), 0.5)
    assert declared.converged
    assert declared.value_p == pytest.approx(factored.value_p, rel=1e-8)


# ---------------------------------------------------------------------------
# result plumbing


def test_value_is_root_of_value_p():
    r = hardy_norm(parse("(1+z)/(1-z)"), 0.4)
    assert r.value == pytest.approx(r.value_p ** (1.0 / 0.4), rel=1e-12)
    assert r.space == "Hardy"
    assert r.p == 0.4


def test_value_abs_err_delta_method():
    r = hardy_norm(parse("1/(1-z)"), 0.5)
    expected = r.abs_err_est * r.value / (0.5 * r.value_p)
    assert r.value_abs_err == pytest.approx(expected, rel=1e-12)


def test_value_abs_err_divides_before_an_overflowing_product():
    # abs_err_est * value is 1e437, yet the propagated error is 5e138
    r = NormResult("Hardy", 2.0, 1e298, 1e149, 1e288, True)
    assert r.value_abs_err == pytest.approx(5e138, rel=1e-12)


def test_tight_config_still_converges():
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-11)
    r = hardy_norm(parse("1/(1-z)"), 0.5, cfg=cfg)
    assert r.converged
    assert r.value_p == pytest.approx(V_HALF, rel=1e-11)


def test_invalid_p_rejected():
    with pytest.raises(ValueError):
        hardy_norm(parse("z"), 0.0)
    with pytest.raises(ValueError):
        hardy_norm(parse("z"), -1.0)


# ---------------------------------------------------------------------------
# divergence ladder


def test_ladder_raise_at_first_rung_is_divergent():
    # later rungs would settle, so only the raise can mark divergence
    cuts = []

    def truncated(cut):
        cuts.append(cut)
        if cut == 1e-4:
            raise NonFiniteSampleError("inf sample", 0.0)
        return 1.0

    assert _ladder_says_divergent(truncated) is True
    assert cuts == [1e-4]


def test_ladder_inner_failure_at_first_rung_is_divergent():
    def truncated(cut):
        if cut == 1e-4:
            raise InnerIntegralError(1.0 - cut)
        return 1.0

    assert _ladder_says_divergent(truncated) is True


def test_inner_integral_error_is_a_non_finite_sample_error():
    # one type for a blown-up integral: the driver and the ladder catch it
    assert issubclass(InnerIntegralError, NonFiniteSampleError)
    ex = InnerIntegralError(0.75)
    assert (ex.radius, ex.x) == (0.75, 0.75)
    assert str(ex) == "inner circle integral failed at radius 0.75"


@pytest.mark.parametrize("norm", [hardy_norm, bergman_norm])
def test_norm_resolves_its_expression_once(monkeypatch, norm):
    # the evaluator compiles its resolved form once, and the boundary
    # structure is read off that plan
    f = parse("(1+z)^(2-eps)/(1-z)^(2+eps)")
    top = []
    resolve = expr._resolve

    def counted(e, env):
        top.append(e is f)
        return resolve(e, env)

    monkeypatch.setattr(expr, "_resolve", counted)
    norm(f, 0.5, env={"eps": 0.1})
    assert sum(top) == 1


def test_ladder_growth_test():
    values = {1e-4: 1.0, 1e-6: 2.0, 1e-8: 4.0}   # grows without decay
    assert _ladder_says_divergent(values.get) is True
    values = {1e-4: 1.0, 1e-6: 1.05, 1e-8: 1.06}  # settles
    assert _ladder_says_divergent(values.get) is False


# ---------------------------------------------------------------------------
# lockstep circle means

# 1e-250 ... 0.9, shuffled: the deepest gaps cap the transform depth, and
# the others bound their tail by the one-sample flat_below request
_GAPS = [0.5, 1e-250, 0.01, 1e-6, 0.9, 1e-40, 0.1, 1e-120, 1e-3, 1e-12]


def _sequential(ev, p, st, gaps, cfg):
    return [hardy._circle_mean_p(ev, p, st, g, cfg) for g in gaps]


def _lockstep(ev, p, st, gaps, cfg):
    return list(hardy._circle_means(ev, p, st, gaps, cfg))


# (text, p, env, declared angles) of means that the lockstep runs without
# a failure
_MEANS = [
    ("1/(1-z)^2", 0.6, None, None),                      # a pole
    ("(8*z*(1+z^2))/(1-z^2)^(2+eps)", 0.6, {"eps": 0.7}, None),  # z^2 leaves
    ("(1+z)^2/(1-z)", 0.5, None, None),                 # a zero: arc kinks
    ("1/(1-z)^2", 0.6, None, [0.0, 2.0]),               # declared angles
    ("(1+z)^(4/p)", 0.4, {"p": 0.4}, None),             # entire
    ("3", 0.7, None, None),                             # a constant
]
_MEANS_IDS = ["pole", "z2-leaves", "kinks", "declared", "entire", "constant"]


@pytest.mark.parametrize("text,p,env,angles", _MEANS, ids=_MEANS_IDS)
def test_lockstep_means_equal_sequential(text, p, env, angles):
    p, ev, st = hardy._setup(parse(text), p, env, angles)
    cfg = QuadConfig(abs_tol=1e-11, rel_tol=1e-9, max_evaluations=20000)
    gaps = _GAPS + [np.float64(0.25), np.float64(1e-9)]
    assert repr(_lockstep(ev, p, st, gaps, cfg)) == \
        repr(_sequential(ev, p, st, gaps, cfg))


def _fresh_ends(arc, p, gap):
    """What quad._side_plan reads of the arc at gap, worked out afresh:
    offsets capped at blowup max(1, p) smax below gap 10^(-270 / that
    blowup), and the circle flat below 1e-3 gap."""
    smax = max((s.blowup for s in (arc.left, arc.right) if s is not None),
               default=0.0)
    cap = max(1.0, p) * smax
    return types.SimpleNamespace(
        deep_left=arc.left is not None, deep_right=arc.right is not None,
        offset_blowup=(None if smax <= 0.0 or gap >= 10.0 ** (-270.0 / cap)
                       else cap),
        flat_below=1e-3 * gap if gap > 0.0 else 0.0)


def _bisected(monkeypatch, call):
    """The owners, (fn, gap, plan) each, of the quad._bisect calls that the
    circle means of call make, in order."""
    owners = []
    bisect = hardy._bisect
    monkeypatch.setattr(hardy, "_bisect",
                        lambda given: owners.extend(given) or bisect(given))
    call()
    return owners


@pytest.mark.parametrize("case", ["pole", "z2-leaves"])
def test_side_plans_by_gap_class_equal_fresh_plans(monkeypatch, case):
    # a side is planned once per offset_blowup and tail class, not per gap;
    # at 1e-136 (pole) and 5e-101 (z2 leaves) the offsets are capped, as at
    # 1e-250 and 0, but flat_below reaches the capped depth, so both tail
    # classes meet within one offset_blowup
    text, p, env, angles = _MEANS[_MEANS_IDS.index(case)]
    p, ev, st = hardy._setup(parse(text), p, env, angles)
    cfg = QuadConfig(max_evaluations=20000)
    gaps = _GAPS + [0.0, 1e-136, 5e-101]
    owners = _bisected(monkeypatch, lambda: _lockstep(ev, p, st, gaps, cfg))
    plans = hardy._arc_pieces(*hardy._layout(ev, st), cfg)
    assert [(gap, plan) for _, gap, plan in owners] == [
        (gap, quad._side_plan(_fresh_ends(arc, p, gap), *side))
        for gap in gaps for arc, _, pieces in plans
        for _, piece_sides in pieces for side in piece_sides]
    assert all(fn.__name__ == plan.method for fn, _, plan in owners)
    classes = {(_fresh_ends(fn.__self__._arc, p, gap).offset_blowup,
                plan.tail_at is None) for fn, gap, plan in owners}
    assert len(classes) == 3 and len({c for c, _ in classes}) == 2


def test_lockstep_covers_plain_refinement_and_one_sample_tail(monkeypatch):
    # a second singular point at angle 1e-3 with blowup 200: on the arc
    # between the two, deep gaps cap the offsets above its 5e-4 halves, so
    # the transform is too shallow (W < 0.5) and plain refinement runs
    p, ev, _ = hardy._setup(parse("1/(1-z)"), 0.9, None)
    t = 1e-3
    st = BoundaryStructure(
        (SingularPoint(0.0, 1 + 0j, 1.0),
         SingularPoint(t, complex(math.cos(t), math.sin(t)), 200.0)), ())
    seen = {"plain": 0, "tail": 0}
    values = hardy._ArcIntegrand.values
    from_left = hardy._ArcIntegrand.from_left

    def spy_values(self, x, gap=0.0):
        seen["plain"] += self._arc.right is not None and self._arc.hi == t
        return values(self, x, gap)

    def spy_from_left(self, d, gap=0.0):
        seen["tail"] += np.size(d) == 1
        return from_left(self, d, gap)

    monkeypatch.setattr(hardy._ArcIntegrand, "values", spy_values)
    monkeypatch.setattr(hardy._ArcIntegrand, "from_left", spy_from_left)
    cfg = QuadConfig(max_evaluations=6000)
    assert repr(_lockstep(ev, p, st, _GAPS, cfg)) == \
        repr(_sequential(ev, p, st, _GAPS, cfg))
    assert seen["plain"] > 0 and seen["tail"] > 0


def test_lockstep_plans_each_arc_once_per_call(monkeypatch):
    # the arcs' pieces and sides are planned once per call, and each arc
    # has one integrand, which plans its sides and samples every gap; the
    # complex coefficient keeps the full circle, two arcs
    p, ev, st = hardy._setup(parse("i*z/(1-z^2)"), 0.6, None)
    built = {"configs": 0, "integrands": 0}
    post_init = QuadConfig.__post_init__
    arc_init = hardy._ArcIntegrand.__init__

    def count_config(self):
        built["configs"] += 1
        post_init(self)

    def count_integrand(self, *args):
        built["integrands"] += 1
        arc_init(self, *args)

    monkeypatch.setattr(QuadConfig, "__post_init__", count_config)
    monkeypatch.setattr(hardy._ArcIntegrand, "__init__", count_integrand)
    cfg = QuadConfig()
    counts = []
    for gaps in (_GAPS[:1], _GAPS):
        built.update(configs=0, integrands=0)
        _lockstep(ev, p, st, gaps, cfg)
        counts.append(dict(built))
    arcs = len(hardy._layout(ev, st)[0])
    assert arcs == 2
    assert counts[0]["integrands"] == counts[1]["integrands"] == arcs
    assert counts[1]["configs"] == counts[0]["configs"] > 0


class _FailingEvaluator:
    """A BoundaryEvaluator whose near raises EvalDomainError naming the gap
    at each gap of bad, when it samples next to the root bad[gap] (so on
    one arc only), whether the points come alone or in a batch.  bad[gap]
    may instead list (root, side, depth): it then fails only on the side
    of root that side's sign of delta takes, at |delta| <= depth, and its
    message names the side.  Every message raised is kept in raised.  At
    the gap inf_tail, the samples at the one-sample tail come back inf.
    value fails on the circles of radius 1 - gap of each gap of
    bad_circles, how as bad_circles[gap] says: "raise" raises as near
    does, "inf" returns inf there.  real_coefficients is False unless the
    faults are conjugate-symmetric, as those of a real-coefficient f are,
    and the mean is to run over [0, pi] alone (hardy._layout); even_modulus
    is False unless they are also symmetric under z -> -z, and the mean is
    to run over [0, pi/2] alone."""

    def __init__(self, ev, bad, inf_tail=None, bad_circles=None,
                 real_coefficients=False, even_modulus=False):
        self._ev = ev
        self._bad = bad
        self._inf_tail = inf_tail
        self._bad_circles = bad_circles or {}
        self.real_coefficients = real_coefficients
        self.even_modulus = even_modulus
        self.raised = []

    def value(self, z, p=None):
        w = self._ev.value(z, p=p)
        for g, how in self._bad_circles.items():
            on = np.abs(np.abs(z) - (1.0 - g)) <= 4.0 * np.finfo(float).eps
            if on.any() and how == "raise":
                self.raised.append(f"bad gap {g!r}")
                raise EvalDomainError(self.raised[-1])
            w = np.where(on, np.inf, w)
        return w

    def near(self, anchor, delta, gap, p=None):
        gap = np.broadcast_to(gap, np.shape(delta))
        for g, spec in self._bad.items():
            specs = spec if isinstance(spec, list) else [(spec, 0.0, math.inf)]
            for root, side, depth in specs:
                if anchor == root and np.any((gap == g) & (side * delta >= 0.0)
                                             & (np.abs(delta) <= depth)):
                    self.raised.append(f"bad gap {g!r}" + (
                        f" on side {side:+g} of {root}" if side else ""))
                    raise EvalDomainError(self.raised[-1])
        w = self._ev.near(anchor, delta, gap, p)
        return np.where((gap == self._inf_tail) & (np.abs(delta) <= _TAIL),
                        np.inf, w)


# 1.01 times the one-sample tail's offset on the arcs of 1/(1-z^2), which
# have sides of length pi/2: only that sample comes this close to a root
_TAIL = 1.01 * 0.5 * math.pi * math.exp(-2.0 * math.sinh(6.5))


def _outcome(call):
    try:
        return repr(call())
    except Exception as ex:
        return f"{type(ex).__name__}: {ex}"


# 1/(1-z^2) has arcs [0, pi] and [pi, 2 pi], sampled in that order: a gap
# failing next to -1 fails later in the lockstep than one failing next to 1
_GAP_FAILURES = [
    {1e-6: -1},
    {0.1: 1, 1e-6: -1},             # the earlier gap fails later
    {1e-120: 1, 0.01: -1},
    # both arcs of gap 1e-6 fail next to 1: the later arc [pi, 2 pi] at
    # once, the earlier arc [0, pi] only at its one-sample tail
    {1e-6: [(1, 1.0, _TAIL), (1, -1.0, math.inf)]},
]


@pytest.mark.parametrize("bad", _GAP_FAILURES)
def test_lockstep_raises_first_failure_in_gap_order(bad):
    p, ev, st = hardy._setup(parse("1/(1-z^2)"), 0.6, None)
    fev = _FailingEvaluator(ev, bad)
    cfg = QuadConfig()
    seq = _outcome(lambda: _sequential(fev, p, st, _GAPS, cfg))
    first = min(bad, key=_GAPS.index)
    assert seq.startswith(f"EvalDomainError: bad gap {first!r}")
    fev.raised.clear()
    assert _outcome(lambda: _lockstep(fev, p, st, _GAPS, cfg)) == seq
    if isinstance(bad[first], list):
        assert seq.endswith("side +1 of 1")
        assert fev.raised[0] == f"bad gap {first!r} on side -1 of 1"


def _sides_by_key(text, p, gap):
    """The results of the sides of the full-circle mean of text at gap,
    each run alone by heap (quad._bisect of its owner alone), by the root of
    its mirror pair: its own root from the left, the conjugate of its root
    from the right."""
    p, ev, st = hardy._setup(parse(text), p, None)
    by_key = {}
    for arc, _, pieces in hardy._arc_pieces(hardy._build_arcs(st),
                                            2.0 * math.pi, QuadConfig()):
        intg = hardy._ArcIntegrand(ev, p, arc)
        for j, side in enumerate(s for _, sides in pieces for s in sides):
            root = (arc.left.root if side[2] == "left"
                    else arc.right.root.conjugate())
            by_key.setdefault(root, []).append(
                (side[2], next(quad._bisect([intg.owner(j, side, gap)]))))
    return by_key


# (text, p, gap, roots)
_MIRRORED = [("1/(1-z)^2", 0.6, 1e-3, 1), ("4*z/(1-z^2)", 0.5, 0.0, 2)]


@pytest.mark.parametrize("text,p,gap,roots", _MIRRORED)
def test_mirror_sides_alone_give_the_same_bits(text, p, gap, roots):
    # the from_right side of a root is the from_left side of its conjugate
    # mirrored, and gives its bits when run alone: no side reuses another
    by_key = _sides_by_key(text, p, gap)
    assert len(by_key) == roots
    for pair in by_key.values():
        (left, first), (right, second) = sorted(pair)
        assert (left, right) == ("left", "right")
        assert first[2] > 0 and repr(first) == repr(second)


@pytest.mark.parametrize("text,p,gap,roots", _MIRRORED)
def test_circle_mean_samples_each_mirror_pair_once(text, p, gap, roots):
    # the mean runs [0, pi] alone: one side of each pair, whose bits are
    # those of the pair's from_left side
    by_key = _sides_by_key(text, p, gap)
    _, ev, st = hardy._setup(parse(text), p, None)
    mean = hardy._circle_mean_p(ev, p, st, gap, QuadConfig())
    assert mean[2] == sum(first[2] for (_, first), _ in by_key.values())
    assert repr(_lockstep(ev, p, st, [gap], QuadConfig())) == repr([mean])


def test_conjugate_symmetric_fault_is_raised_once_at_the_first_side():
    # a fault on both sides of 1 at gap 1e-6 is its own mirror: over the
    # full circle or over [0, pi] alone, the from_left side meets it first
    # and raises the one message, by heap once, and in the lockstep once in
    # the rounds and once more when the gaps rerun in turn
    p, ev, st = hardy._setup(parse("1/(1-z)^2"), 0.6, None)
    bad = {1e-6: [(1, 1.0, math.inf), (1, -1.0, math.inf)]}
    msg = "bad gap 1e-06 on side +1 of 1"
    for real in (False, True):
        fev = _FailingEvaluator(ev, bad, real_coefficients=real)
        heap = _outcome(lambda: hardy._circle_mean_p(fev, p, st, 1e-6,
                                                     QuadConfig()))
        assert (heap, fev.raised) == (f"EvalDomainError: {msg}", [msg])
        fev.raised.clear()
        seq = _outcome(lambda: _sequential(fev, p, st, _GAPS, QuadConfig()))
        assert (seq, fev.raised) == (heap, [msg])
        fev.raised.clear()
        lock = _outcome(lambda: _lockstep(fev, p, st, _GAPS, QuadConfig()))
        assert (lock, fev.raised) == (heap, [msg, msg])



class _AngleSpy:
    """A BoundaryEvaluator that keeps the angle of each point it samples."""

    def __init__(self, ev):
        self._ev = ev
        self.real_coefficients = ev.real_coefficients
        self.even_modulus = ev.even_modulus
        self.angles = []

    def value(self, z, p=None):
        self.angles.append(np.angle(z))
        return self._ev.value(z, p=p)

    def near(self, anchor, delta, gap, p=None):
        self.angles.append(np.angle(anchor) + np.asarray(delta))
        return self._ev.near(anchor, delta, gap, p)

    def sampled(self):
        """The sampled angles, in [0, 2 pi)."""
        return np.mod(np.concatenate([np.ravel(a) for a in self.angles]),
                      2.0 * math.pi)


_HALVES = ["(1+z)^3", "(1+z)/(1-z)", "1/(1-z^2)", "1/(1+z^2)"]


@pytest.mark.parametrize("gap", [0.0, 1e-3])
@pytest.mark.parametrize("mean", [_sequential, _lockstep])
@pytest.mark.parametrize("text", _HALVES + ["i*z/(1-z)"])
def test_real_coefficients_sample_the_upper_half_only(text, mean, gap):
    # |f(conj z)| = |f(z)| when f has real coefficients, so its means run
    # over [0, pi]; a complex coefficient keeps the full circle
    p, ev, st = hardy._setup(parse(text), 0.6, None)
    spy = _AngleSpy(ev)
    mean(spy, p, st, [gap], QuadConfig())
    t = spy.sampled()
    if text in _HALVES:
        assert t.max() <= math.pi
    else:
        assert t.min() < 1.0 and t.max() > math.pi + 1.0


# even_modulus: f + g of two triangle cases, an even product, a pole pair
# on the imaginary axis, a sum whose forms trade places and an odd sum
_QUARTERS = ["(1+z)/(1-z) - (1-z)/(1+z)", "1/(1-z) - 1/(1+z)",
             "(1+z)*(1-z)", "1/(1+z^2)", "(1+z)^0.5+(1-z)^0.5",
             "(1+z)^3-(1-z)^3"]


@pytest.mark.parametrize("gap", [0.0, 1e-3])
@pytest.mark.parametrize("mean", [_sequential, _lockstep])
@pytest.mark.parametrize("text", _QUARTERS)
def test_even_modulus_samples_the_first_quarter_only(text, mean, gap):
    # |f(-z)| = |f(z)| and |f(conj z)| = |f(z)|, so the means run over
    # [0, pi/2], and they agree with the full circle's within the estimates
    p, ev, st = hardy._setup(parse(text), 0.6, None)
    assert ev.even_modulus and hardy._layout(ev, st)[1] == 0.5 * math.pi
    spy = _AngleSpy(ev)
    (quarter,) = mean(spy, p, st, [gap], QuadConfig())
    assert spy.sampled().max() <= 0.5 * math.pi
    (full,) = mean(_FailingEvaluator(ev, {}), p, st, [gap], QuadConfig())
    assert abs(quarter[0] - full[0]) <= quarter[1] + full[1]


# (declared angles, the full-circle numbers of the H^{1/2} norm of 1/(1-z)):
# {0, 1} is not its own mirror under t -> 2 pi - t, and 1e-13 is within
# 1e-12 of its mirror but not on the axis, where [0, pi] would cut it
_FULL_CIRCLE = [
    ([0.0, 1.0], "value_p=1.1803405990160927, value=1.3932039296856684,"
                 " abs_err_est=9.234906886675089e-10"),
    ([1e-13], "value_p=1.1803405990160927, value=1.3932039296856684,"
              " abs_err_est=1.7246896689832277e-09"),
]


@pytest.mark.parametrize("angles,numbers", _FULL_CIRCLE)
def test_declared_angles_off_their_mirror_keep_the_full_circle(angles,
                                                               numbers):
    f = parse("1/(1-z)")
    p, ev, st = hardy._setup(f, 0.5, None, angles)
    assert hardy._layout(ev, st)[1] == 2.0 * math.pi
    assert repr(hardy_norm(f, 0.5, singular_angles=angles)) == (
        f"NormResult(space='Hardy', p=0.5, {numbers}, converged=True,"
        " divergent=False)")
    p, ev, st = hardy._setup(f, 0.5, None, [0.0])
    assert hardy._layout(ev, st)[1] == math.pi


@pytest.mark.parametrize("norm", [hardy_norm, bergman_norm])
def test_cancelled_leaf_is_a_zero(norm):
    # the plan merges (1-z)^2/(1-z) into the one leaf 1-z, a zero at 1; as a
    # singular point of strength -1 it had moved the Hardy value_p at p = 0.7
    # to 1.1441638374960466 from the 1.1441638375196301 of 1-z
    f = parse("(1-z)^2/(1-z)")
    assert expr.boundary_structure(f) == BoundaryStructure((), (0.0,))
    assert repr(norm(f, 0.7)) == repr(norm(parse("1-z"), 0.7))


@pytest.mark.parametrize("angles,alone", [
    ([1e-13, -1e-13], [1e-13]),
    ([0.0, 2.0 * math.pi - 1e-13], [0.0]),
])
def test_declared_angles_merge_across_the_wrap(angles, alone):
    # declared angles within 1e-12 of each other across 2 pi are one
    # singular point, as boundary_structure merges them; kept apart, they
    # misplaced the pole (value_p 1.18034080 and 1.18034074, errors 2.0e-7
    # and 1.4e-7 against estimates of 1.7e-9)
    f = parse("1/(1-z)")
    assert repr(hardy_norm(f, 0.5, singular_angles=angles)) == repr(
        hardy_norm(f, 0.5, singular_angles=alone))


@pytest.mark.parametrize("p", [0.3, 0.4])
def test_half_circle_bergman_constant_within_its_estimate(p):
    # ||(1+z)^(4/p)||^p = 10/3 in A^p, its means over [0, pi] alone
    r = bergman_norm(parse("(1+z)^(4/p)"), p, env={"p": p})
    assert r.converged and abs(r.value_p - 10.0 / 3.0) <= r.abs_err_est

def _radial_sequential(intg, d):
    """The one-radius-at-a-time loop that _RadialIntegrand.from_right
    replaces, with its bookkeeping."""
    out = []
    for dj in d:
        m, e, n, conv = hardy._circle_mean_p(intg._ev, intg._p, intg._st, dj,
                                             intg._inner)
        if not (math.isfinite(m) and math.isfinite(e)):
            raise InnerIntegralError(1.0 - dj)
        out.append(2.0 * (1.0 - dj) * m)
    return out


_RADIAL_FAILURES = [
    {0.1: 1},
    {0.1: 1, 1e-40: 1},
    {0.01: -1, 0.1: 1},             # raises before the non-finite mean
]


@pytest.mark.parametrize("bad", _RADIAL_FAILURES)
def test_radial_lockstep_keeps_inner_failure_order(bad):
    # gap 1e-6 returns a non-finite mean: its one-sample tails come back
    # inf, which the tail bound takes as it is; each gap of bad raises.
    # The first of them in radius order surfaces, as in the sequential loop
    p, ev, st = hardy._setup(parse("1/(1-z^2)"), 0.6, None)
    fev = _FailingEvaluator(ev, bad, inf_tail=1e-6)
    intg = _RadialIntegrand(fev, p, st, QuadConfig(abs_tol=1e-9,
                                                   rel_tol=1e-7))
    d = np.array(_GAPS)
    seq = _outcome(lambda: _radial_sequential(intg, d))
    first = min([1e-6, *bad], key=_GAPS.index)
    assert seq.startswith("InnerIntegralError" if first == 1e-6
                          else "EvalDomainError")
    assert _outcome(lambda: list(intg.from_right(d))) == seq


def _spied_reruns(monkeypatch, call):
    """The gaps, in order and each once, of the owners that call runs alone
    through quad._bisect's one fallback, quad._alone, which in
    _circle_means are its reruns of the gap loop."""
    reruns = []
    alone = quad._alone

    def spy(fn, gap, plan):
        if reruns[-1:] != [gap]:
            reruns.append(gap)
        return alone(fn, gap, plan)

    monkeypatch.setattr(quad, "_alone", spy)
    _outcome(call)
    return reruns


@pytest.mark.parametrize("text,p,env,angles", _MEANS, ids=_MEANS_IDS)
def test_lockstep_without_failure_never_reruns(monkeypatch, text, p, env,
                                               angles):
    # the lockstep's means equal the gap loop's (above) because the engine
    # computes them, not because a failure sent them through the loop
    p, ev, st = hardy._setup(parse(text), p, env, angles)
    cfg = QuadConfig(abs_tol=1e-11, rel_tol=1e-9, max_evaluations=20000)
    gaps = _GAPS + [np.float64(0.25), np.float64(1e-9)]
    assert _spied_reruns(
        monkeypatch, lambda: _lockstep(ev, p, st, gaps, cfg)) == []


@pytest.mark.parametrize("radial,bad",
                         [(False, bad) for bad in _GAP_FAILURES]
                         + [(True, bad) for bad in _RADIAL_FAILURES])
def test_lockstep_failure_reruns_the_gaps_in_order(monkeypatch, radial, bad):
    # on a failure the gaps rerun one at a time, in order, and stop at the
    # first that raises (or, radially, at the first non-finite mean)
    p, ev, st = hardy._setup(parse("1/(1-z^2)"), 0.6, None)
    if radial:
        fev = _FailingEvaluator(ev, bad, inf_tail=1e-6)
        intg = _RadialIntegrand(fev, p, st, QuadConfig(abs_tol=1e-9,
                                                       rel_tol=1e-7))
        call = lambda: list(intg.from_right(np.array(_GAPS)))
        last = min([1e-6, *bad], key=_GAPS.index)
    else:
        fev = _FailingEvaluator(ev, bad)
        call = lambda: _lockstep(fev, p, st, _GAPS, QuadConfig())
        last = min(bad, key=_GAPS.index)
    reruns = _spied_reruns(monkeypatch, call)
    assert reruns == _GAPS[:_GAPS.index(last) + 1]
