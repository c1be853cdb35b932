import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from disknorms import quad
from disknorms.quad import (NonFiniteSampleError, QuadConfig, QuadError,
                            integrate, integrate_piecewise,
                            _GK_X, _GK_WK, _GK_WG, _panel)

DEFAULT = QuadConfig()


# ---------------------------------------------------------------------------
# embedded-rule table


def test_kronrod_weights_sum_to_interval_length():
    assert math.fsum(_GK_WK) == pytest.approx(2.0, abs=1e-14)
    assert math.fsum(_GK_WG) == pytest.approx(2.0, abs=1e-14)


def test_nodes_symmetric_in_unit_interval():
    assert np.all(np.abs(_GK_X) < 1.0)
    assert np.allclose(_GK_X, -_GK_X[::-1], atol=0)
    assert np.allclose(_GK_WK, _GK_WK[::-1], atol=0)


# exactness tolerances reflect the 15-digit rounding of the stored table


@pytest.mark.parametrize("degree", range(0, 14))
def test_gauss_rule_exact_through_degree_13(degree):
    # G7 integrates polynomials of degree <= 2*7-1 = 13 exactly on [-1,1]
    approx = float(_GK_WG @ _GK_X ** degree)
    exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
    assert approx == pytest.approx(exact, abs=5e-14)


@pytest.mark.parametrize("degree", range(0, 23))
def test_kronrod_rule_exact_through_degree_22(degree):
    # K15 integrates polynomials of degree <= 22 exactly on [-1,1]
    approx = float(_GK_WK @ _GK_X ** degree)
    exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
    assert approx == pytest.approx(exact, abs=5e-14)


def test_gauss_rule_not_exact_at_degree_14():
    approx = float(_GK_WG @ _GK_X ** 14)
    assert abs(approx - 2.0 / 15.0) > 1e-8


# ---------------------------------------------------------------------------
# known-value corpus: smooth, oscillatory, peaked, endpoint-singular.
# Every case must land within 10x its own error estimate (honesty) and
# actually converge under the default tolerances.

GAMMA34 = math.gamma(0.75)

CORPUS = [
    # (name, f, a, b, exact, singular_left, singular_right, accuracy)
    # accuracy: worst acceptable |true - computed|; None means the default
    # 1e-9 plus a converged result.  Plain callables evaluated at 1 - d
    # cannot resolve offsets below ~64*eps, so a strength-1/2 blowup at a
    # nonzero right endpoint legitimately stops short of convergence with
    # an honest estimate; that one case gets a relaxed bound.
    ("x^2", lambda x: x ** 2, 0.0, 1.0, 1.0 / 3.0, False, False, None),
    ("exp", np.exp, 0.0, 1.0, math.e - 1.0, False, False, None),
    ("sin", np.sin, 0.0, math.pi, 2.0, False, False, None),
    ("witch", lambda x: 1.0 / (1.0 + x ** 2), 0.0, 1.0, math.pi / 4.0,
     False, False, None),
    ("runge", lambda x: 1.0 / (1.0 + 25.0 * x ** 2), -1.0, 1.0,
     0.4 * math.atan(5.0), False, False, None),
    ("sqrt", np.sqrt, 0.0, 1.0, 2.0 / 3.0, False, False, None),
    ("cos^2(10x)", lambda x: np.cos(10.0 * x) ** 2, 0.0, 2.0 * math.pi,
     math.pi, False, False, None),
    ("sin(50x)", lambda x: np.sin(50.0 * x), 0.0, 1.0,
     (1.0 - math.cos(50.0)) / 50.0, False, False, None),
    ("gauss-peak", lambda x: np.exp(-100.0 * (x - 0.5) ** 2), 0.0, 1.0,
     math.sqrt(math.pi) / 10.0 * math.erf(5.0), False, False, None),
    ("log1p", lambda x: np.log1p(x), 0.0, 1.0, 2.0 * math.log(2.0) - 1.0,
     False, False, None),
    ("1/(1+x)", lambda x: 1.0 / (1.0 + x), 0.0, 1.0, math.log(2.0),
     False, False, None),
    ("x^20", lambda x: x ** 20, 0.0, 1.0, 1.0 / 21.0, False, False, None),
    ("x^-1/2", lambda x: x ** -0.5, 0.0, 1.0, 2.0, True, False, None),
    ("x^-0.9", lambda x: x ** -0.9, 0.0, 1.0, 10.0, True, False, None),
    ("(1-x)^-1/2", lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, 2.0,
     False, True, 1e-6),
    ("log", np.log, 0.0, 1.0, -1.0, True, False, None),
    ("beta(3/4,3/4)", lambda x: x ** -0.25 * (1.0 - x) ** -0.25, 0.0, 1.0,
     GAMMA34 * GAMMA34 / math.gamma(1.5), True, True, None),
    ("x^-2/3", lambda x: x ** (-2.0 / 3.0), 0.0, 1.0, 3.0, True, False,
     None),
    ("log-sin", lambda x: np.log(np.sin(x)), 0.0, math.pi / 2.0,
     -math.pi / 2.0 * math.log(2.0), True, False, None),
    ("sqrt(-log)", lambda x: np.sqrt(-np.log(x)), 0.0, 1.0,
     math.sqrt(math.pi) / 2.0, True, False, None),
]


@pytest.mark.parametrize("name,f,a,b,exact,s_l,s_r,accuracy", CORPUS,
                         ids=[c[0] for c in CORPUS])
def test_corpus_value_and_honesty(name, f, a, b, exact, s_l, s_r, accuracy):
    cfg = QuadConfig(singular_left=s_l, singular_right=s_r)
    r = integrate(f, a, b, cfg)
    err = abs(r.value - exact)
    assert err <= 10.0 * r.abs_err_est, \
        f"{name}: error {err:g} exceeds 10x estimate {r.abs_err_est:g}"
    if accuracy is None:
        assert r.converged, \
            f"{name}: did not converge (est {r.abs_err_est:g})"
        accuracy = max(1e-9, 1e-9 * abs(exact))
    assert err <= accuracy, f"{name}: error {err:g} too large"


def test_inverse_sqrt_to_a_nano():
    r = integrate(lambda x: x ** -0.5, 0.0, 1.0,
                  QuadConfig(singular_left=True))
    assert abs(r.value - 2.0) <= 1e-9


def test_estimates_are_nonnegative_and_reported():
    r = integrate(np.exp, 0.0, 1.0, DEFAULT)
    assert r.abs_err_est >= 0.0
    assert r.evaluations > 0


# ---------------------------------------------------------------------------
# behavioural properties


def test_deterministic():
    f = lambda x: np.sin(3.0 * x) / (1.0 + x)
    r1 = integrate(f, 0.0, 2.0, DEFAULT)
    r2 = integrate(f, 0.0, 2.0, DEFAULT)
    assert r1 == r2


def test_linearity_in_scalar_multiples():
    f = lambda x: np.cos(x) ** 2
    r1 = integrate(f, 0.0, 1.0, DEFAULT)
    r5 = integrate(lambda x: 5.0 * f(x), 0.0, 1.0, DEFAULT)
    assert r5.value == pytest.approx(5.0 * r1.value, rel=1e-12)


def test_interval_additivity():
    f = np.exp
    whole = integrate(f, 0.0, 2.0, DEFAULT).value
    left = integrate(f, 0.0, 0.7, DEFAULT).value
    right = integrate(f, 0.7, 2.0, DEFAULT).value
    assert whole == pytest.approx(left + right, rel=1e-12)


def test_budget_exhaustion_is_flagged_not_fatal():
    cfg = QuadConfig(max_evaluations=100)
    r = integrate(lambda x: np.sin(50.0 * x), 0.0, 1.0, cfg)
    assert not r.converged
    assert math.isfinite(r.value)


def test_nonfinite_sample_raises():
    with pytest.raises(NonFiniteSampleError):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0, DEFAULT)


def test_wrong_number_of_samples_raises():
    # an integrand object's samples are not broadcast over the nodes
    class OneSample:
        def values(self, x):
            return np.array([x.sum()])
        from_left = from_right = values

    with pytest.raises(QuadError, match="expected 45 samples, one per node, "
                                        "got 1"):
        integrate(OneSample(), 0.0, 1.0, DEFAULT)


def test_unflagged_endpoint_blowup_raises_or_flags():
    # integrating x^-1/2 without declaring the singular endpoint must not
    # silently return a confident wrong answer
    try:
        r = integrate(lambda x: x ** -0.5, 0.0, 1.0, DEFAULT)
    except NonFiniteSampleError:
        return
    assert (not r.converged) or abs(r.value - 2.0) <= 10.0 * r.abs_err_est


def test_sibling_panels_share_one_call():
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.sqrt(np.abs(x - 0.3))

    r = integrate(f, 0.0, 1.0, DEFAULT)
    # three initial panels in one call, then both halves of each bisection
    assert sizes[0] == 45 and set(sizes[1:]) == {30}
    assert r.evaluations == sum(sizes)


def test_batched_panels_match_one_at_a_time():
    f = lambda x: np.exp(np.sin(7.0 * x)) / (1.1 - x)
    bounds = [(0.0, 0.25), (0.25, 0.6), (0.6, 1.0)]
    together = _panel(f, bounds)
    alone = [_panel(f, [b])[0] for b in bounds]
    assert together == alone


def test_batched_nonfinite_reports_first_bad_node():
    f = lambda x: np.where(x > 0.75, np.nan, x)
    with pytest.raises(NonFiniteSampleError) as info:
        _panel(f, [(0.0, 0.5), (0.5, 1.0)])
    assert info.value.x == min(x for x in 0.75 + 0.25 * _GK_X if x > 0.75)


# ---------------------------------------------------------------------------
# node tables

# (bounds of one request, L): plain panels, then panels in the
# double-exponential variable w sampled at offsets L*exp(-2 sinh w)
_REQUESTS = [
    ([(0.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0), (2.0 / 3.0, 1.0)], 0.0),
    ([(0.3, 0.3 + 2.0 ** -20), (0.3 + 2.0 ** -20, 0.3 + 2.0 ** -19)], 0.0),
    ([(0.0, 3.5), (3.5, 4.5), (4.5, 5.5), (5.5, 6.5)], 0.7),
    ([(5.5, 5.75), (5.75, 6.0)], 1e-3),
]


def _fresh_nodes(bounds, L):
    """A request's half-widths, nodes, sample points and weights, computed
    afresh; the weights are None for plain panels."""
    halves = [0.5 * (hi - lo) for lo, hi in bounds]
    x = np.concatenate([0.5 * (lo + hi) + h2 * _GK_X
                        for (lo, hi), h2 in zip(bounds, halves)])
    if not L:
        return halves, x, x, None
    ph = np.exp(-2.0 * np.sinh(x))
    return halves, x, L * ph, 2.0 * L * np.cosh(x) * ph


def _bits(a):
    return None if a is None else np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("bounds,L", _REQUESTS)
def test_panels_sample_and_sum_as_a_fresh_table(bounds, L):
    seen = []

    def fn(d):
        seen.append(_bits(d))
        return np.exp(np.sin(7.0 * d)) / (1.1 + d)

    halves, x, points, weights = _fresh_nodes(bounds, L)
    y = fn(points) * (weights if L else 1.0)
    fresh = [(h2 * float(_GK_WK.dot(y[15 * i:15 * i + 15])),
              h2 * float(_GK_WG.dot(y[15 * i:15 * i + 15])))
             for i, h2 in enumerate(halves)]
    fresh = [(vk, 4.0 * abs(vk - vg)) for vk, vg in fresh]
    for _ in range(2):          # the second request reuses its table
        assert quad._panel(fn, bounds, L) == fresh
    assert seen == [_bits(points)] * 3


@pytest.mark.parametrize("bounds,L", _REQUESTS)
def test_node_tables_equal_a_fresh_computation_and_are_read_only(bounds, L):
    table = quad._nodes(tuple(bounds), L)
    halves, x, points, weights = table
    fresh = _fresh_nodes(bounds, L)
    assert list(halves) == fresh[0]
    assert [_bits(a) for a in (x, points, weights)] == \
        [_bits(a) for a in fresh[1:]]
    for a in (x, points, weights):
        assert a is None or not a.flags.writeable
    assert quad._nodes(tuple(bounds), L) is table


@pytest.mark.parametrize("cfg", [DEFAULT, QuadConfig(singular_left=True)],
                         ids=["plain", "singular"])
@pytest.mark.parametrize("g", [lambda x: x ** 2,
                               lambda x: np.sqrt(np.abs(x - 0.3))],
                         ids=["square", "kink"])
def test_callable_that_writes_into_its_argument(g, cfg):
    def mutating(x):
        x *= 1.0
        return g(x)

    def clobbering(x):
        y = g(x)
        x[:] = np.nan
        return y

    first = integrate(g, 0.0, 1.0, cfg)
    assert integrate(mutating, 0.0, 1.0, cfg) == first
    assert integrate(clobbering, 0.0, 1.0, cfg) == first
    assert integrate(g, 0.0, 1.0, cfg) == first     # the tables are intact


def test_scalar_only_callables_are_supported():
    r = integrate(math.exp, 0.0, 1.0, DEFAULT)
    assert r.value == pytest.approx(math.e - 1.0, rel=1e-10)


@pytest.mark.parametrize("a,b", [(-1e308, 1e308), (1e308, 1.7e308)])
def test_interval_whose_width_or_midpoint_overflows_is_rejected(a, b):
    # b - a (or a + b, which the midpoints need) overflowed to inf, and the
    # nodes came out nan
    for cfg in (DEFAULT, QuadConfig(singular_left=True, singular_right=True)):
        with pytest.raises(ValueError, match="interval too wide"):
            integrate(np.exp, a, b, cfg)
        with pytest.raises(ValueError, match="interval too wide"):
            integrate_piecewise(np.exp, [a, b], cfg)


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        integrate(np.exp, 1.0, 0.0, DEFAULT)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=-1e-3)
    with pytest.raises(ValueError):
        QuadConfig(max_evaluations=0)


# ---------------------------------------------------------------------------
# piecewise driver


def test_piecewise_matches_single_interval_for_smooth():
    f = lambda x: np.exp(-x) * np.sin(2.0 * x)
    whole = integrate(f, 0.0, 3.0, DEFAULT)
    parts = integrate_piecewise(f, [0.0, 1.0, 2.5, 3.0], DEFAULT)
    assert parts.value == pytest.approx(whole.value, abs=1e-11)
    assert parts.converged


def test_piecewise_outer_singular_flags():
    # the singular transforms apply at the outer endpoints only; interior
    # breakpoints are plain joins
    f = lambda x: x ** -0.5 + (1.0 - x) ** -0.25
    cfg = QuadConfig(singular_left=True, singular_right=True)
    r = integrate_piecewise(f, [0.0, 0.25, 0.75, 1.0], cfg)
    assert r.converged
    assert r.value == pytest.approx(2.0 + 4.0 / 3.0, abs=1e-9)


def test_piecewise_needs_increasing_breakpoints():
    with pytest.raises(ValueError):
        integrate_piecewise(np.exp, [0.0, 0.5, 0.5, 1.0], DEFAULT)


@pytest.mark.parametrize("call,message", [
    (lambda: integrate_piecewise(np.exp, [0.0]),
     "breakpoints must include both interval endpoints"),
    (lambda: integrate_piecewise(np.exp, [0.0, 0.5, 0.5, 1.0]),
     "breakpoints must be strictly increasing"),
    (lambda: integrate_piecewise(np.exp, [0.0, math.nan, 1.0]),
     "breakpoints must be strictly increasing"),
    (lambda: integrate_piecewise(np.exp, [0.0, math.inf]),
     "interval endpoints must be finite"),
    (lambda: integrate(np.exp, 1, 0), "need a < b, got [1.0, 0.0]"),
], ids=["one-breakpoint", "repeated", "nan", "inf", "reversed"])
def test_bad_intervals_raise_their_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# array bisection engine


def _row_sums(y, h):
    """The panel sums of _sums, row by row, each with ndarray.dot."""
    out = []
    for yi, hi in zip(y, h):
        vk = hi * float(_GK_WK.dot(yi))
        vg = hi * float(_GK_WG.dot(yi))
        out.append((vk, 4.0 * abs(vk - vg)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 257, 4097])
@pytest.mark.parametrize("layout", ["contiguous", "misaligned", "strided"])
def test_stacked_sums_equal_one_dot_per_panel(n, layout):
    # the engine sums all panels of a round with one stacked matmul; each
    # must be bit for bit the ndarray.dot of the heap's one-panel sums, or
    # the engine's results would drift from the heap's
    rng = np.random.default_rng(n)
    size = 2 * n * 15 + 1
    buf = (rng.standard_normal(size)
           * 10.0 ** rng.uniform(-200.0, 200.0, size))
    if layout == "contiguous":
        y = buf[:n * 15].reshape(n, 15)
    elif layout == "misaligned":
        y = buf[1:n * 15 + 1].reshape(n, 15)    # one double off alignment
    else:
        y = buf[:2 * n * 15].reshape(2 * n, 15)[::2]
    h = 10.0 ** rng.uniform(-5.0, 1.0, n)
    vk, e = quad._sums(y, h)
    assert list(zip(vk.tolist(), e.tolist())) == _row_sums(y, h)


def _smooth(x):
    return np.exp(np.sin(7.0 * x)) / (1.1 - x)


_ULP = float(np.spacing(0.5))


def _jump(x):
    # a unit jump at 0.5, cut off 5 ulps later: the panels at the jump
    # bisect down to one ulp, where they freeze
    return np.where((x > 0.5) & (x < 0.5 + 5.0 * _ULP), 1.0, 0.0)


def _plain(edges, budget=3000, abs_tol=1e-300):
    return quad._Plan("values", edges, abs_tol, 0.0, budget)


_THIRDS = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
_DE = quad._side_plan(quad._as_integrand(lambda x: x ** -0.5, 0.0, 1.0),
                      0.0, 1.0, "left", 1e-13, 1e-8, 20000)

# (fn, plan): smooth, a jump, whose panels reach floating-point resolution
# and freeze, budgets too small to bisect or for one bisection, mirrored
# |x| (equal errors, which the lowest seq breaks), and a double-exponential
# side
_OWNERS = [
    (_smooth, _plain(_THIRDS, abs_tol=1e-12)),
    (_jump, _plain((0.0, 0.5, 0.5 + 4.0 * _ULP, 1.0))),
    (_smooth, _plain(_THIRDS, budget=50)),
    (_smooth, _plain(_THIRDS, budget=75)),
    (np.abs, _plain((-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0))),
    (lambda d: d ** -0.5, _DE),
    (lambda d: np.log(d) ** 2, _DE),
]


def test_engine_cases_cover_freezing_and_ties():
    (_, _, _, panels), _ = quad._adaptive(_jump, _OWNERS[1][1])
    assert any(not lo < 0.5 * (lo + hi) < hi for lo, hi, _, _ in panels)
    (_, _, _, panels), _ = quad._adaptive(np.abs, _OWNERS[4][1])
    errors = [e for *_, e in panels]
    assert len(set(errors)) < len(errors)


@pytest.mark.parametrize("case", range(len(_OWNERS)))
def test_batched_heap_keeps_to_the_budget_and_tiles_the_plan(case):
    # up to four panels a step, their halves in one request: the steps
    # stop within the budget, the leaves still tile the plan's edges, and
    # the value agrees with one panel a step within the two estimates
    fn, plan = _OWNERS[case]
    sizes = []
    (v, e, evals, panels), _ = quad._adaptive(
        lambda x: sizes.append(x.size) or fn(x), plan, 4)
    (v1, e1, _, _), _ = quad._adaptive(fn, plan)
    assert evals == sum(sizes) <= plan.budget
    assert set(sizes[1:]) <= {30, 60, 90, 120}
    leaves = sorted((lo, hi) for lo, hi, _, _ in panels)
    assert [leaves[0][0], leaves[-1][1]] == [plan.edges[0], plan.edges[-1]]
    assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
    assert abs(v - v1) <= e + e1


def _as_read(result, plan):
    """The repr of result, [(value, err, evaluations, panels), tail sample],
    as _finish_side reads it: its panels, in any order, only for an
    extrapolated tail (plan.L set, plan.tail_at None), the only ones
    _rounds builds."""
    (*sums, panels), y_end = result
    return repr((sums, y_end,
                 sorted(panels) if plan.L and plan.tail_at is None else None))


@pytest.mark.parametrize("case", range(len(_OWNERS)))
def test_engine_alone_equals_the_heap(case):
    fn, plan = _OWNERS[case]
    sizes = []
    done = quad._rounds([(lambda x, _: sizes.append(x.size) or fn(x), 0.0,
                          plan)])
    assert _as_read(done[0], plan) == _as_read(quad._adaptive(fn, plan), plan)
    assert (done[0][0][3] is None) == (not plan.L or plan.tail_at is not None)
    assert 0 not in sizes       # no call for no points, as a tail round


def test_engine_runs_owners_together_as_the_heap_runs_each():
    # owners sharing an fn are sampled in one call, each point with its
    # owner's arg; here the arg shifts the integrand
    calls = []

    def shifted(x, args):
        calls.append(x.size)
        return np.sqrt(np.abs(x - args))

    owners = [(lambda x, _, fn=fn: fn(x), 0.0, plan) for fn, plan in _OWNERS]
    owners += [(shifted, a, _plain(_THIRDS)) for a in (0.2, 0.5, 0.61)]
    done = quad._rounds(owners)
    expected = [quad._adaptive(fn, plan) for fn, plan in _OWNERS]
    expected += [quad._adaptive(lambda x, a=a: np.sqrt(np.abs(x - a)),
                                _plain(_THIRDS)) for a in (0.2, 0.5, 0.61)]
    plans = [plan for _, _, plan in owners]
    assert [_as_read(d, plan) for d, plan in zip(done, plans)] == [
        _as_read(r, plan) for r, plan in zip(expected, plans)]
    assert calls[0] == 3 * 45 and len(calls) < sum(
        r[0][2] for r in expected[-3:]) // 30


def _failing_owners(calls):
    """Owners that fail: the first only once its bisection samples past
    0.9993 (its initial nodes end at 0.99858), the second at once (inf
    samples); each call appends its owner's name to calls.  Their args
    differ, so _bisect runs them by _rounds first."""
    def log(name, fn):
        return lambda x, _: calls.append(name) or fn(x)

    late = lambda x: np.where(x > 0.9993, np.nan, _smooth(x))
    return [(log("late", late), 0.0, _plain(_THIRDS, abs_tol=1e-14)),
            (log("inf", lambda x: np.full_like(x, np.inf)), 1.0,
             _plain(_THIRDS)),
            (log("smooth", _smooth), 2.0, _plain(_THIRDS))]


def test_engine_propagates_the_first_exception_it_meets():
    # the second owner's inf samples raise in the first round, and the
    # third is never sampled; _bisect then runs the owners alone (below)
    calls = []
    with pytest.raises(NonFiniteSampleError) as info:
        quad._rounds(_failing_owners(calls))
    assert calls == ["late", "inf"]
    assert info.value.x == pytest.approx((1.0 + _GK_X[0]) / 6.0)  # 1st node


def test_bisect_fails_as_the_owners_alone_in_order():
    # the engine's first failure is the inf owner's, but alone the late
    # owner runs first and raises its own, past 0.9993
    calls = []
    owners = _failing_owners(calls)
    with pytest.raises(NonFiniteSampleError) as alone:
        for fn, arg, plan in owners:
            quad._adaptive(lambda x: fn(x, arg), plan)
    calls.clear()
    with pytest.raises(NonFiniteSampleError) as info:
        list(quad._bisect(owners))
    assert info.value.x == alone.value.x > 0.9993
    assert str(info.value) == str(alone.value)
    assert calls[:2] == ["late", "inf"] and "inf" not in calls[2:]


@pytest.mark.parametrize("args", [[0.0], [0.2], [0.0, 1.0], [0.0, 0.2, 0.2]])
def test_bisect_runs_owners_of_one_arg_alone(monkeypatch, args):
    # owners of one arg run alone by heap, as one integral runs; those of
    # two or more are bisected at once by one _rounds call; the arg is
    # unused here, so both give the sides of the owners alone
    owners = [(lambda x, _, fn=fn: fn(x), args[j % len(args)], plan)
              for j, (fn, plan) in enumerate(_OWNERS)]
    alone = [repr(quad._finish_side(plan, *quad._alone(*owner)))
             for owner, (_, plan) in zip(owners, _OWNERS)]
    rounds = []
    engine = quad._rounds
    monkeypatch.setattr(quad, "_rounds",
                        lambda given: rounds.append(given) or engine(given))
    assert [repr(side) for side in quad._bisect(owners)] == alone
    assert len(rounds) == (len(set(args)) > 1)


# fn(x, args) of engine owners: smooth and shifted by the arg, a kink at the
# arg, the jump (its panels freeze) and a constant returned as a stride-0
# broadcast, which the engine must copy before its stacked matmul sums it
_ENGINE_FNS = [
    lambda x, a: np.exp(np.sin(7.0 * x + a)) / (1.1 - x),
    lambda x, a: np.sqrt(np.abs(x - a)),
    lambda x, _: _jump(x),
    lambda x, _: np.broadcast_to(3.0 ** 0.7, x.shape),
]


def _engine_plan(kind, budget, abs_tol, rel_tol):
    """A plain plan on one of three edge sets (kind 0-2), or a
    double-exponential side of [0, 1] whose tail_at is unset (kind 3,
    extrapolated) or set (kind 4, flat below 1e-3)."""
    if kind < 3:
        edges = [_THIRDS, (0.0, 0.5, 0.5 + 4.0 * _ULP, 1.0),
                 (-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0)][kind]
        return quad._Plan("values", edges, abs_tol, rel_tol, budget)
    intg = types.SimpleNamespace(flat_below=1e-3 if kind == 4 else 0.0)
    return quad._side_plan(intg, 0.0, 1.0, "left", abs_tol, rel_tol, budget)


_ENGINE_OWNER = st.tuples(
    st.integers(0, len(_ENGINE_FNS) - 1), st.sampled_from([0.0, 0.2, 0.61]),
    st.integers(0, 4), st.sampled_from([45, 50, 75, 300, 3000]),
    st.sampled_from([1e-300, 1e-14, 1e-10]), st.sampled_from([0.0, 1e-9]))


@given(st.lists(st.integers(0, len(_ENGINE_FNS) - 1), min_size=1, max_size=3,
                unique=True),
       st.lists(_ENGINE_OWNER, min_size=1, max_size=6))
@example([3], [(0, 0.0, 0, 3000, 1e-300, 0.0)])     # the constant alone
@example([2, 0], [(0, 0.0, 1, 3000, 1e-300, 0.0),   # the jump freezes
                  (1, 0.2, 3, 3000, 1e-14, 0.0)])
@settings(max_examples=60)
def test_engine_equals_each_owner_alone_bit_for_bit(fns, drawn):
    # each owner's fn is one of the one to three drawn fns; _rounds must
    # give what the heap gives each owner alone wherever _finish_side reads
    # it, and _bisect each owner's finished side, bit for bit
    owners = [(_ENGINE_FNS[fns[f % len(fns)]], arg, _engine_plan(*plan))
              for f, arg, *plan in drawn]
    alone = [quad._alone(*owner) for owner in owners]
    plans = [plan for _, _, plan in owners]
    assert [_as_read(d, plan) for d, plan in zip(quad._rounds(owners), plans)
            ] == [_as_read(a, plan) for a, plan in zip(alone, plans)]
    assert [repr(side) for side in quad._bisect(owners)] == [
        repr(quad._finish_side(plan, *a)) for a, plan in zip(alone, plans)]
