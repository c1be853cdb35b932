import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from disknorms import expr, hardy
from disknorms.expr import (BoundaryStructure, EvalDomainError, SingularPoint,
                            UnsupportedFormError, parse, substitute_rotate,
                            to_polynomial)
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
    for text in ("1+z", "(1+z)^2", "2*z^3 - z + 0.5", "(1+2*z)*(3-z)"):
        coeffs = to_polynomial(parse(text)).coeffs
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
    # the evaluator keeps its resolved form, and the boundary structure is
    # read from it
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

    def spy_values(self, x):
        seen["plain"] += self._arc.right is not None and self._arc.hi == t
        return values(self, x)

    def spy_from_left(self, d):
        seen["tail"] += np.size(d) == 1
        return from_left(self, d)

    monkeypatch.setattr(hardy._ArcIntegrand, "values", spy_values)
    monkeypatch.setattr(hardy._ArcIntegrand, "from_left", spy_from_left)
    cfg = QuadConfig(max_evaluations=6000)
    assert repr(_lockstep(ev, p, st, _GAPS, cfg)) == \
        repr(_sequential(ev, p, st, _GAPS, cfg))
    assert seen["plain"] > 0 and seen["tail"] > 0


def test_lockstep_plans_each_arc_once_per_call(monkeypatch):
    # the arcs' pieces and sides are planned once per call, and each gap
    # builds one integrand per arc for its side plans, which also sample
    p, ev, st = hardy._setup(parse("1/(1-z^2)"), 0.6, None)
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
    arcs = len(hardy._build_arcs(st))
    assert arcs == 2
    assert counts[1]["integrands"] <= len(_GAPS) * arcs
    assert counts[1]["configs"] == counts[0]["configs"] > 0


class _FailingEvaluator:
    """A BoundaryEvaluator whose near raises EvalDomainError naming the gap
    at each gap of bad, when it samples next to the root bad[gap] (so on
    one arc only), whether the points come alone or in a batch.  bad[gap]
    may instead list (root, side, depth): it then fails only on the side
    of root that side's sign of delta takes, at |delta| <= depth, and its
    message names the side.  Every message raised is kept in raised.  At
    the gap inf_tail, the samples at the one-sample tail come back inf."""

    def __init__(self, ev, bad, inf_tail=None):
        self._ev = ev
        self._bad = bad
        self._inf_tail = inf_tail
        self.value = ev.value
        self.raised = []

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
    """The calls of hardy._circle_mean_p that call makes, which in
    _circle_means are its reruns of the gap loop."""
    reruns = []
    mean = hardy._circle_mean_p

    def spy(*args):
        reruns.append(args[3])
        return mean(*args)

    monkeypatch.setattr(hardy, "_circle_mean_p", spy)
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
