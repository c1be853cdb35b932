import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from disknorms import expr
from disknorms.expr import (Add, Const, Div, EvalDomainError, Mul, Neg,
                            Param, ParseError, Pow, Z, boundary_structure,
                            compiled, evaluate, exponent_value, parse,
                            substitute_negate, substitute_rotate,
                            substitute_square, BoundaryEvaluator, _is_int,
                            _resolve)
from disknorms.verify import _disk_points, _pair
from printing import to_string

RNG = np.random.default_rng(42)
POINTS = 0.8 * np.sqrt(RNG.uniform(size=16)) * np.exp(
    2j * math.pi * RNG.uniform(size=16))


def close(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(a))))
    return float(np.max(np.abs(a - b))) <= tol * scale


# ---------------------------------------------------------------------------
# parsing and printing

GRAMMAR_SAMPLES = [
    "1",
    "z",
    "1+z",
    "(1+z)^2",
    "1/(1-z)",
    "(1+z)/(1-z)",
    "(4*z)/(1-z^2)",
    "-1/(1+z)",
    "(1+z)^(4/p)",
    "(1+z)^(2-eps) / (1-z)^(2+eps)",
    "(8*z*(1+z^2)) / (1-z^2)^(2+eps)",
    "(1-z)^(-1/4)",
    "(1-z)^(-alpha)",
    "2*z^3 - z + 0.5",
    "(1+2*z)*(3-z)",
    "z^2*(1-z)^(-0.25)",
]

ENV = {"p": 0.25, "eps": 0.5, "alpha": 1.5, "q": 2.0}


@pytest.mark.parametrize("text", GRAMMAR_SAMPLES)
def test_round_trip_evaluates_identically(text):
    e = parse(text)
    e2 = parse(to_string(e))
    assert close(evaluate(e, POINTS, ENV), evaluate(e2, POINTS, ENV))


def test_parse_rejects_garbage():
    for bad in ["", "1+", "(1+z", "z^", "w+1", "1//z", "^2", "1..2"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc_info:
        parse("1+*z")
    assert exc_info.value.position == 2


def test_unknown_parameter_rejected():
    with pytest.raises(ParseError):
        parse("(1+z)^(1/t)")


def test_evaluate_hand_values():
    f = parse("(1+z)/(1-z)")
    assert close(evaluate(f, 0.0), 1.0)
    assert close(evaluate(f, 0.5j), (1 + 0.5j) / (1 - 0.5j))
    g = parse("(1+z)^(4/p)")
    assert close(evaluate(g, 0.5, {"p": 4.0}), 1.5)
    assert close(evaluate(g, 0.0, {"p": 0.25}), 1.0)


def test_unbound_parameter_raises():
    with pytest.raises(EvalDomainError):
        evaluate(parse("(1+z)^(4/p)"), 0.3)


def test_division_by_zero_raises():
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/(1-z)"), 1.0)


def test_exponent_value():
    e = parse("(1-z)^(-(2+eps))")
    assert exponent_value(e.exponent, {"eps": 0.5}) == -2.5
    assert exponent_value(parse("(1+z)^(4/p)").exponent,
                          {"p": 0.25}) == 16.0


@pytest.mark.parametrize("text", ["(1+z)^(0^(-1))", "(1+z)^(10^400)"])
def test_exponent_power_errors_are_domain_errors(text):
    # 0 to a negative power and an overflowing power inside an exponent
    e = parse(text)
    with pytest.raises(EvalDomainError):
        exponent_value(e.exponent)
    with pytest.raises(EvalDomainError):
        evaluate(e, 0.3)
    with pytest.raises(EvalDomainError):
        BoundaryEvaluator(e).value(np.array([0.3 + 0j]))
    # a power whose exponent does not resolve is compiled to the step that
    # raises, and has no boundary root, as under an unbound parameter
    assert boundary_structure(e) == boundary_structure(parse("(1+z)^(q)"))


# ---------------------------------------------------------------------------
# substitutions


@pytest.mark.parametrize("text", GRAMMAR_SAMPLES)
def test_substitute_negate_matches_pointwise(text):
    e = parse(text)
    assert close(evaluate(substitute_negate(e), POINTS, ENV),
                 evaluate(e, -POINTS, ENV))


@pytest.mark.parametrize("text", ["1+z", "(1+z)^2", "2*z^3 - z + 0.5",
                                  "(1+2*z)*(3-z)"])
def test_substitute_square_matches_pointwise(text):
    e = parse(text)
    assert close(evaluate(substitute_square(e), POINTS, ENV),
                 evaluate(e, POINTS ** 2, ENV))


def test_substitute_rotate_matches_pointwise():
    lam = complex(math.cos(0.7), math.sin(0.7))
    for text in GRAMMAR_SAMPLES:
        e = parse(text)
        assert close(evaluate(substitute_rotate(e, lam), POINTS, ENV),
                     evaluate(e, lam * POINTS, ENV))


# ---------------------------------------------------------------------------
# polynomials


def _walk(e, z):
    """Evaluate a polynomial tree of polynomial_exprs node by node."""
    if isinstance(e, Const):
        return np.full(z.shape, e.value)
    if isinstance(e, Z):
        return z.astype(complex)
    if isinstance(e, Neg):
        return -_walk(e.operand, z)
    if isinstance(e, Pow):
        return _walk(e.base, z) ** int(e.exponent.value.real)
    l, r = _walk(e.left, z), _walk(e.right, z)
    return l + r if isinstance(e, Add) else l * r


@st.composite
def polynomial_exprs(draw, depth=0):
    options = ["const", "z"]
    if depth < 4:
        options += ["add", "mul", "neg", "pow"]
    kind = draw(st.sampled_from(options))
    if kind == "const":
        return Const(complex(draw(st.integers(-5, 5))))
    if kind == "z":
        return Z()
    if kind == "neg":
        return Neg(draw(polynomial_exprs(depth=depth + 1)))
    if kind == "pow":
        base = draw(polynomial_exprs(depth=depth + 1))
        return Pow(base, Const(complex(draw(st.integers(0, 3)))))
    left = draw(polynomial_exprs(depth=depth + 1))
    right = draw(polynomial_exprs(depth=depth + 1))
    return (Add if kind == "add" else Mul)(left, right)


@given(polynomial_exprs())
def test_polynomial_evaluation_matches_direct_walk(e):
    direct = evaluate(e, POINTS)
    walked = _walk(e, POINTS)
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert float(np.max(np.abs(direct - walked))) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# boundary structure


def _singular_angles(text, env=None):
    return {s.angle for s in boundary_structure(parse(text), env).singular}


def test_boundary_singularities_basic():
    assert _singular_angles("1/(1-z)") == {0.0}
    assert _singular_angles("(1+z)/(1-z)") == {0.0}
    assert _singular_angles("1/(1-z^2)") == {0.0, math.pi}
    assert _singular_angles("(1+z)^(4/p)", {"p": 0.25}) == set()


def test_boundary_structure_strengths():
    st_ = boundary_structure(parse("(1+z)^(2-eps) / (1-z)^(2+eps)"),
                             {"eps": 0.15})
    assert len(st_.singular) == 1
    pt = st_.singular[0]
    assert pt.angle == 0.0 and pt.root == 1 + 0j
    assert pt.blowup == pytest.approx(2.15, abs=0)
    assert st_.zeros == (math.pi,)


def test_boundary_structure_symmetric_pair():
    st_ = boundary_structure(parse("(8*z*(1+z^2)) / (1-z^2)^(2+eps)"),
                             {"eps": 1.0})
    assert sorted(s.angle for s in st_.singular) == [0.0, math.pi]
    assert all(s.blowup == 3.0 for s in st_.singular)
    assert sorted(st_.zeros) == pytest.approx([math.pi / 2, 3 * math.pi / 2])


def test_boundary_structure_rotated_root_snaps():
    lam = complex(math.cos(1.0), math.sin(1.0))
    st_ = boundary_structure(substitute_rotate(parse("1/(1-z)"), lam))
    assert len(st_.singular) == 1
    # singularity where lam*z = 1, i.e. at canonical angle 2*pi - 1
    assert st_.singular[0].angle == pytest.approx(2 * math.pi - 1.0,
                                                  abs=1e-12)


_GRID = 12                      # factor roots lie at multiples of 2*pi/12
_STEP = 2.0 * math.pi / _GRID


@st.composite
def circle_factor_products(draw, real=False):
    """(e, factors): e a product and quotient of 1 to 4 factors
    (a + b*z^k)^s with |a| = |b|, so that every root lies on the circle;
    factors lists each one's root grid indices, its exponent in e and its
    leaf (a, b, k).  With real, every constant is real, and so every root
    is +-1 or +-i."""
    e, factors = None, []
    for _ in range(draw(st.integers(1, 4))):
        j, k = draw(st.integers(0, _GRID - 1)), draw(st.sampled_from([1, 2]))
        if real:
            j -= j % (_GRID // (2 * k))         # z^k = +-1 at angle j
        s = draw(st.sampled_from([-2.5, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]))
        rho = draw(st.sampled_from([0.5, 1.0, 3.0]))
        # a + b*z^k vanishes where z^k = u, at angles j and j + GRID/2
        u = complex(math.cos(k * j * _STEP), math.sin(k * j * _STEP))
        if real:
            u = complex(round(u.real))
        zk = Z() if k == 1 else draw(st.sampled_from(
            [Pow(Z(), Const(2 + 0j)), Mul(Z(), Z())]))
        leaf = (complex(rho), -rho * u.conjugate(), k)
        f = Pow(Add(Const(leaf[0]), Mul(Const(leaf[1]), zk)),
                Const(complex(s)))
        roots = [j] if k == 1 else [j, (j + _GRID // 2) % _GRID]
        if e is None:
            e, factors = f, [[roots, s, leaf]]
            continue
        op, right = draw(st.sampled_from([Mul, Div])), draw(st.booleans())
        if op is Div and right:
            s = -s
        elif op is Div:
            for fac in factors:
                fac[1] = -fac[1]
        e = op(e, f) if right else op(f, e)
        factors.append([roots, s, leaf])
    return e, factors


def _grid_index(angle):
    i = round(angle / _STEP)
    assert abs(angle - i * _STEP) < 1e-9
    return i % _GRID


_HALF = Add(Const(0.5 + 0j), Mul(Const(-0.5 + 0j), Z()))     # 0.5 - 0.5z


@given(circle_factor_products())
@example(case=(Div(Pow(_HALF, Const(-2.5 + 0j)), Pow(_HALF, Const(-2.5 + 0j))),
               [[[0], 2.5, (0.5 + 0j, -0.5 + 0j, 1)],
                [[0], -2.5, (0.5 + 0j, -0.5 + 0j, 1)]]))
def test_boundary_structure_of_circle_factor_products(case):
    e, factors = case
    # factors of one leaf (a, b, k) add their exponents first; a root is
    # singular where a leaf's net exponent is negative, with strength the
    # net exponent over the leaves that vanish there, as e is a product form
    net, roots = {}, {}
    for rs, s, leaf in factors:
        net[leaf], roots[leaf] = net.get(leaf, 0.0) + s, rs
    sigma, singular, zeros = {}, set(), set()
    for leaf, s in net.items():
        for i in roots[leaf]:
            sigma[i] = sigma.get(i, 0.0) - s
            if s < 0:
                singular.add(i)
            elif s > 0:
                zeros.add(i)
    blowup = {i: sigma[i] for i in singular}
    zeros = sorted(zeros - singular)
    st_ = boundary_structure(e)
    got = {_grid_index(p.angle): p.blowup for p in st_.singular}
    assert len(got) == len(st_.singular)
    assert got == pytest.approx(blowup, rel=1e-12)
    assert [_grid_index(t) for t in st_.zeros] == zeros
    # anchored evaluation agrees with plain evaluation next to every root
    ev = BoundaryEvaluator(e)
    delta = np.array([-1e-3, 1e-3])
    anchors = [p.root for p in st_.singular] + [
        complex(math.cos(t), math.sin(t)) for t in st_.zeros]
    for anchor in anchors:
        assert close(ev.near(anchor, delta, 0.0),
                     ev.value(anchor * np.exp(1j * delta)), tol=1e-11)


# ---------------------------------------------------------------------------
# cancellation-safe boundary evaluation


def test_near_matches_direct_at_moderate_offsets():
    ev = BoundaryEvaluator(parse("(1+z)/(1-z)"))
    for delta, gap in [(1e-3, 0.0), (1e-5, 1e-4), (-1e-4, 1e-6)]:
        z = (1.0 - gap) * complex(math.cos(delta), math.sin(delta))
        assert close(ev.near(1 + 0j, delta, gap), evaluate(parse(
            "(1+z)/(1-z)"), z), tol=1e-11)


def test_near_is_accurate_far_below_machine_epsilon():
    ev = BoundaryEvaluator(parse("1/(1-z)"))
    for delta in (1e-30, 1e-100, 1e-250):
        got = abs(complex(ev.near(1 + 0j, delta, 0.0)))
        want = 1.0 / (2.0 * math.sin(delta / 2.0))
        assert got == pytest.approx(want, rel=1e-13)


def test_near_with_radial_gap_only():
    ev = BoundaryEvaluator(parse("1/(1-z)"))
    gap = 1e-200
    got = abs(complex(ev.near(1 + 0j, 0.0, gap)))
    assert got == pytest.approx(1.0 / gap, rel=1e-13)


@pytest.mark.parametrize("text", ["3", "2*i - 1", "(1+z)^0"])
def test_constant_samples_take_the_input_shape(text):
    ev = BoundaryEvaluator(parse(text))
    z = np.array([0.3 + 0j, -0.5j, 0.9])
    gap = np.array([0.0, 1e-3, 0.5])
    want = evaluate(parse(text), 0.1 + 0j)
    assert ev.value(z).tolist() == [want] * 3
    assert ev.near(1 + 0j, np.array([1e-7, -1e-3, 0.2]), gap).tolist() == \
        [want] * 3
    assert ev.near(1j, np.array([1e-3, 2e-3]), 0.0).shape == (2,)
    assert ev.value(0.5 + 0j).shape == ()


def test_near_at_negative_anchor():
    ev = BoundaryEvaluator(parse("-1/(1+z)"))
    delta = 1e-40
    got = abs(complex(ev.near(-1 + 0j, delta, 0.0)))
    assert got == pytest.approx(1.0 / (2.0 * math.sin(delta / 2.0)),
                                rel=1e-13)


# ---------------------------------------------------------------------------
# compiled evaluation plan


@pytest.mark.parametrize("text,want", [
    ("1-z", (1 + 0j, -1 + 0j, 1)),
    ("2*(1-z)/3", (2 / 3 + 0j, -2 / 3 + 0j, 1)),
    ("1+z^2", (1 + 0j, 1 + 0j, 2)),
    ("1+z*z", (1 + 0j, 1 + 0j, 2)),
    ("z^2-i", (-1j, 1 + 0j, 2)),
    ("z-z", (0j, 0j, 1)),
    ("z*z/2", (0j, 0.5 + 0j, 2)),
    ("z*z - z*z + 1", (1 + 0j, 0j, 2)),
])
def test_affine_recognizer_accepts(text, want):
    a, b, ks = _resolve(parse(text), {}).aff
    assert ks[0] == want[2]
    assert a == pytest.approx(want[0], abs=1e-15)
    assert b == pytest.approx(want[1], abs=1e-15)


@pytest.mark.parametrize("text", ["2*z*z", "(1-z)*(1+z)", "(1-z)/z",
                                  "(z-z)*z^2"])
def test_affine_recognizer_rejects(text):
    assert _resolve(parse(text), {}).aff is None


def _affine_in_reference(e, env, k):
    """The top-down recognizer that _resolve replaced, kept as an oracle:
    (a, b) when e == a + b*z^k structurally (k = 1 or 2); else None."""
    if isinstance(e, Const):
        return (e.value, 0j)
    if isinstance(e, Param):
        if e.name in env:
            return (complex(env[e.name]), 0j)
        return None
    if isinstance(e, Z):
        return (0j, 1 + 0j) if k == 1 else None
    if isinstance(e, Neg):
        r = _affine_in_reference(e.operand, env, k)
        return None if r is None else (-r[0], -r[1])
    if isinstance(e, Add):
        l = _affine_in_reference(e.left, env, k)
        r = _affine_in_reference(e.right, env, k)
        if l is None or r is None:
            return None
        return (l[0] + r[0], l[1] + r[1])
    if isinstance(e, Mul):
        if k == 2 and isinstance(e.left, Z) and isinstance(e.right, Z):
            return (0j, 1 + 0j)
        l = _affine_in_reference(e.left, env, k)
        r = _affine_in_reference(e.right, env, k)
        if l is not None and l[1] == 0:
            return None if r is None else (l[0] * r[0], l[0] * r[1])
        if r is not None and r[1] == 0:
            return None if l is None else (r[0] * l[0], r[0] * l[1])
        return None
    if isinstance(e, Div):
        n = _affine_in_reference(e.num, env, k)
        d = _affine_in_reference(e.den, env, k)
        if n is None or d is None or d[1] != 0 or d[0] == 0:
            return None
        return (n[0] / d[0], n[1] / d[0])
    if isinstance(e, Pow) and k == 2 and isinstance(e.base, Z):
        try:
            s = exponent_value(e.exponent, env)
        except EvalDomainError:
            return None
        if _is_int(s) == 2:
            return (0j, 1 + 0j)
    return None


def _affine_parts_reference(e, env):
    """(a, b, k) from _affine_in_reference, trying k = 1 before k = 2."""
    for k in (1, 2):
        ab = _affine_in_reference(e, env, k)
        if ab is not None:
            return (ab[0], ab[1], k)
    return None


@st.composite
def affine_trees(draw, depth=0):
    """Trees of constants (zero among them), z, the bound parameter p, the
    unbound q, Neg, Add, Mul, Div, z*z and powers of z and of subtrees."""
    options = ["const", "z", "p", "q"]
    if depth < 4:
        options += ["neg", "add", "mul", "div", "z*z", "z^s", "pow"]
    kind = draw(st.sampled_from(options))
    if kind == "const":
        return Const(draw(st.sampled_from([0j, 1 + 0j, -1 + 0j, 2 + 0j,
                                           0.5 + 0j, 1j])))
    if kind in ("p", "q"):
        return Param(kind)
    if kind == "z":
        return Z()
    if kind == "z*z":
        return Mul(Z(), Z())
    if kind == "z^s":
        return Pow(Z(), draw(st.sampled_from(
            [Const(2 + 0j), Const(2 + 1e-12 + 0j), Const(1 + 0j),
             Const(3 + 0j), Param("p"), Param("q")])))
    sub = affine_trees(depth=depth + 1)
    if kind == "neg":
        return Neg(draw(sub))
    if kind == "pow":
        return Pow(draw(sub), Const(2 + 0j))
    return {"add": Add, "mul": Mul, "div": Div}[kind](draw(sub), draw(sub))


@given(affine_trees())
def test_resolve_matches_the_reference_recognizer(e):
    env = {"p": 2.0}

    def check(node):
        ref = {k: _affine_in_reference(node.e, env, k) for k in (1, 2)}
        ks = tuple(k for k in (1, 2) if ref[k] is not None)
        if not ks:
            assert node.aff is None
        else:
            assert node.aff[2] == ks
            assert all(node.aff[:2] == ref[k] for k in ks)
            assert (*node.aff[:2], ks[0]) == _affine_parts_reference(node.e,
                                                                     env)
        for kid in node.kids:
            check(kid)

    check(_resolve(e, env))


def test_integer_exponent_snapping_is_exact():
    # 4/p within 1e-9 (relative) of 8 is raised to the integer 8, in both
    # the plain and the anchored path; 1e-6 away it is a real power
    snapped = BoundaryEvaluator(parse("(1+z)^(4/p)"), {"p": 0.5 + 1e-10})
    real = BoundaryEvaluator(parse("(1+z)^(4/p)"), {"p": 0.5 + 1e-6})
    poly = BoundaryEvaluator(parse("(1+z)^8"))
    delta = np.array([1e-200, -1e-9, 0.3, -2.0])
    for anchor in (1 + 0j, -1 + 0j, 1j):
        assert np.array_equal(snapped.near(anchor, delta, 1e-3),
                              poly.near(anchor, delta, 1e-3))
        assert not np.array_equal(real.near(anchor, delta, 1e-3),
                                  poly.near(anchor, delta, 1e-3))
    assert np.array_equal(snapped.value(POINTS), poly.value(POINTS))
    rel = np.abs(real.value(POINTS) / poly.value(POINTS) - 1.0)
    assert float(np.max(rel)) > 1e-7


def test_unbound_parameter_raises_on_the_call():
    ev = BoundaryEvaluator(parse("(1-z)^(-alpha)"))
    with pytest.raises(EvalDomainError, match="unbound parameter 'alpha'"):
        ev.value(POINTS)
    with pytest.raises(EvalDomainError, match="unbound parameter 'alpha'"):
        ev.near(1 + 0j, 0.1, 0.0)


def test_division_by_zero_raises_on_the_call():
    ev = BoundaryEvaluator(parse("1/(1-z)"))
    before = ev.near(1 + 0j, 0.1, 0.0)
    with pytest.raises(EvalDomainError, match="division by zero"):
        ev.near(1, 0.0, 0.0)
    # the failed call leaves the evaluator usable
    assert np.array_equal(ev.near(1 + 0j, 0.1, 0.0), before)


def test_principal_branch_violation_raises_on_the_call():
    ev = BoundaryEvaluator(parse("(z-2)^0.5"))
    ok = ev.value(np.array([0.5 + 0.1j]))
    assert close(ok, np.sqrt(np.array([-1.5 + 0.1j])))
    with pytest.raises(EvalDomainError, match="principal branch"):
        ev.value(np.array([0.5 + 0.1j, 0.5 + 0j]))
    with pytest.raises(EvalDomainError, match="principal branch"):
        ev.near(-1 + 0j, 0.0, 0.5)


def test_near_snaps_roundoff_constant_at_rotated_root():
    # at a root that is not exactly representable, a + b*anchor is only
    # zero to roundoff; it is snapped to 0 so tiny offsets stay resolved
    lam = complex(math.cos(0.3), math.sin(0.3))
    e = substitute_rotate(parse("1/(1-z)"), lam)
    root = boundary_structure(e).singular[0].root
    assert 1.0 - lam * root != 0.0
    got = abs(complex(BoundaryEvaluator(e).near(root, 1e-200, 0.0)))
    assert got == pytest.approx(1e200, rel=1e-12)


# ---------------------------------------------------------------------------
# log-modulus sampling: |f|^p from the product form

P_VALUES = (0.25, 0.5, 0.6, 0.99)
_ULPS = 8.0
_EPS = np.finfo(float).eps


def _factors(e):
    """(a, b, k, s) of each factor (a + b*z^k)^s of a circle_factor_products
    tree, s signed as the tree uses it."""
    if isinstance(e, (Mul, Div)):
        left, right = (e.left, e.right) if isinstance(e, Mul) else (e.num,
                                                                     e.den)
        sign = 1.0 if isinstance(e, Mul) else -1.0
        return _factors(left) + [(a, b, k, sign * s)
                                 for a, b, k, s in _factors(right)]
    b, zk = e.base.right.left.value, e.base.right.right
    return [(e.base.left.value, b, 1 if isinstance(zk, Z) else 2,
             e.exponent.value.real)]


def _leaf_at(a, b, k, anchor, delta, gap):
    """a + b*z^k at z = anchor*(1-gap)*e^{i delta}, expanded at the anchor
    with e^{i k delta} - 1 = 2i sin(k delta/2) e^{i k delta/2}."""
    ak = anchor ** k
    base = a + b * ak
    if abs(base) < 1e-12 * abs(a):
        base = 0j
    turn = complex(math.cos(k * delta / 2), math.sin(k * delta / 2))
    rel = 2j * math.sin(k * delta / 2) * turn + ((1 - gap) ** k - 1) * turn ** 2
    return base + b * ak * rel


def _log_terms(factors, p, leaf):
    """(p log|f|, its condition 1 + sum_j p |s_j| (|log|leaf_j|| + pi)) with
    leaf(a, b, k) the value of each factor's base."""
    logs = [(s, math.log(abs(leaf(a, b, k)))) for a, b, k, s in factors]
    return (p * sum(s * m for s, m in logs),
            1.0 + p * sum(abs(s) * (abs(m) + math.pi) for s, m in logs))


def _agree(got, want, cond):
    """got = want to _ULPS * cond ulps, where want is finite."""
    got, want, cond = np.asarray(got), np.asarray(want), np.asarray(cond)
    ok = np.isfinite(want)
    assert np.all(np.isfinite(got[ok]))
    err = np.abs(got[ok] - want[ok])
    assert np.all(err <= _ULPS * _EPS * cond[ok] * want[ok]), (got, want)


def _anchors(e):
    st_ = boundary_structure(e)
    return [p.root for p in st_.singular] + [
        complex(math.cos(t), math.sin(t)) for t in st_.zeros] + [
        complex(math.cos(0.2), math.sin(0.2))]


_MODERATE = np.array([-1e-1, -1e-4, 1e-7, 1e-3, 0.5])
_DEEP = np.array([-1e-200, -1e-100, 1e-30, 1e-60, 1e-200])


@given(circle_factor_products(), st.sampled_from(P_VALUES))
def test_log_form_matches_complex_form_on_circle_factor_products(case, p):
    e, _ = case
    factors = _factors(e)
    ev = BoundaryEvaluator(e)
    cond = [_log_terms(factors, p, lambda a, b, k: a + b * z ** k)[1]
            for z in POINTS]
    _agree(ev.value(POINTS, p), np.abs(ev.value(POINTS)) ** p, cond)
    for anchor in _anchors(e):
        for gap in (0.0, 1e-3):
            cond = [_log_terms(factors, p, lambda a, b, k: _leaf_at(
                a, b, k, anchor, d, gap))[1] for d in _MODERATE]
            _agree(ev.near(anchor, _MODERATE, gap, p),
                   np.abs(ev.near(anchor, _MODERATE, gap)) ** p, cond)
        # below the complex path's range, the log form follows p log|f|
        # wherever that fits a double
        pl, cond = np.array([_log_terms(factors, p, lambda a, b, k: _leaf_at(
            a, b, k, anchor, d, 0.0)) for d in _DEEP]).T
        fits = np.abs(pl) < 700.0
        got = ev.near(anchor, _DEEP, 0.0, p)
        assert np.all(np.isfinite(got[fits]))
        _agree(got[fits], np.exp(pl[fits]), cond[fits])


_F = "(1+z)^(2-eps)/(1-z)^(2+eps)"
_G = "-((1-z)^(2-eps)/(1+z)^(2+eps))"


def _em1(x, y):
    """e^(x + iy) - 1 without cancellation."""
    return complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(y / 2) ** 2,
                   math.exp(x) * math.sin(y))


def _on_circle(r, d, gap):
    """(z, 1 + z^2, 1 - z^2) at z = r(1-gap)e^{id}, r = +-1 or i, from the
    exact offsets z = r(1 + e1), z^2 = r^2(1 + e2): one of 1 +- z^2 is
    -r^2 e2, the other 2 + e2."""
    e1 = _em1(math.log1p(-gap), d)
    e2 = _em1(2.0 * math.log1p(-gap), 2.0 * d)
    r2 = (r * r).real
    return r * (1 + e1), 1 + r2 + r2 * e2, 1 - r2 - r2 * e2


def _closed_form_log(z, p2, m2, p, eps):
    """(p log|8z(1+z^2)/(1-z^2)^(2+eps)|, the condition of that product
    times the cancellation (|f| + |g|)/|f + g|) from z, p2 = 1 + z^2 and
    m2 = 1 - z^2.  f + g is that product; the cancellation, |f|/|g| =
    |(1+z)/(1-z)|^4, is near 1 but where 1 + z^2 is near 0, at +-i."""
    leaves = {(0, 1, 1): z, (1, 1, 2): p2, (1, -1, 2): m2}
    pl, cond = _log_terms([(0, 1, 1, 1.0), (1, 1, 2, 1.0),
                           (1, -1, 2, -2.0 - eps)], p,
                          lambda a, b, k: leaves[a, b, k])
    cancel = (abs(1 + z) ** 4 + abs(1 - z) ** 4) / (8.0 * abs(z * p2))
    return pl + p * math.log(8.0), cond * cancel


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("eps", [0.4, 0.7, 1.0])
def test_log_form_matches_complex_form_on_the_paper_pair(p, eps):
    # f and g = -f(-z): |f|^p is the modulus of the complex path's f
    pair = {_F: [(1, 1, 1, 2 - eps), (1, -1, 1, -2 - eps)],
            _G: [(1, -1, 1, 2 - eps), (1, 1, 1, -2 - eps)]}
    for text, factors in pair.items():
        ev = BoundaryEvaluator(parse(text), {"eps": eps})

        def cond(leaf):
            return _log_terms(factors, p, leaf)[1]
        _agree(ev.value(POINTS, p), np.abs(ev.value(POINTS)) ** p,
               [cond(lambda a, b, k: a + b * z ** k) for z in POINTS])
        for anchor in (1 + 0j, -1 + 0j, 1j):
            for gap in (0.0, 1e-3):
                _agree(ev.near(anchor, _MODERATE, gap, p),
                       np.abs(ev.near(anchor, _MODERATE, gap)) ** p,
                       [cond(lambda a, b, k: _leaf_at(a, b, k, anchor, d,
                                                      gap))
                        for d in _MODERATE])
            # f and g stay finite at offsets where |f| overflows a double
            pl, cnd = np.array([_log_terms(factors, p, lambda a, b, k: _leaf_at(
                a, b, k, anchor, d, 0.0)) for d in _DEEP]).T
            fits = np.abs(pl) < 700.0
            got = ev.near(anchor, _DEEP, 0.0, p)
            assert np.all(np.isfinite(got[fits]))
            _agree(got[fits], np.exp(pl[fits]), cnd[fits])
    # |f + g|^p, which the p path takes from moduli and (1+z)^4 - (1-z)^4,
    # is the paper's closed form, a product
    ev = BoundaryEvaluator(parse(f"{_F} + {_G}"), {"eps": eps})

    def closed(leaves):
        pl, cond = np.array([_closed_form_log(*w, p, eps) for w in leaves]).T
        return np.exp(pl), cond
    _agree(ev.value(POINTS, p),
           *closed((z, 1 + z * z, 1 - z * z) for z in POINTS))
    for anchor in (1 + 0j, -1 + 0j, 1j):
        for gap in (0.0, 1e-3):
            _agree(ev.near(anchor, _MODERATE, gap, p),
                   *closed(_on_circle(anchor, d, gap) for d in _MODERATE))


# conjugation: with real coefficients, |f(conj z)| = |f(z)| bit for bit

_MIRROR_D = np.logspace(-200.0, 0.0, 41)


def _bits(call):
    """The bytes of call's samples, or the message it raises."""
    try:
        return np.asarray(call()).tobytes()
    except EvalDomainError as ex:
        return str(ex)


def _assert_mirrored(ev, anchors):
    """near(conj(r), -d, gap, p) has the bits of near(r, d, gap, p) at each
    anchor r, for d from 1e-200 to 1."""
    assert ev.real_coefficients
    for r in anchors:
        for gap in (0.0, 1e-3, 1e-250):
            for p in (0.5, 1.0, 1.7):
                assert _bits(lambda: ev.near(r.conjugate(), -_MIRROR_D, gap,
                                             p)) == \
                    _bits(lambda: ev.near(r, _MIRROR_D, gap, p)), (r, gap, p)


@given(circle_factor_products(real=True))
def test_near_is_exact_under_conjugation_on_real_circle_factor_products(
        case):
    e, _ = case
    _assert_mirrored(BoundaryEvaluator(e), _anchors(e))


# the f of each verification case, and its environment
_VERIFY_F = [("(1+z)/(1-z)", None), ("1/(1-z)", None),
             ("(1+z)^(2-eps) / (1-z)^(2+eps)", {"p": 0.6, "eps": 5 / 6}),
             ("(1+z)^(4/p)", {"p": 0.25})]


@pytest.mark.parametrize("text,env", _VERIFY_F)
def test_near_is_exact_under_conjugation_on_the_verify_cases(text, env):
    # f, g = -f(-z) and the sum f + g, whose complex path adds the products
    anchors = [1 + 0j, -1 + 0j, 1j, -1j, cmath.exp(0.2j)]
    for e in _pair(text, 1.0, None, 1.0, env, None)[:3]:
        _assert_mirrored(BoundaryEvaluator(e, env), anchors)


def test_complex_coefficients_are_not_real():
    f = parse("(1+z)/(1-z)")
    assert BoundaryEvaluator(f).real_coefficients
    assert BoundaryEvaluator(parse("i*i/(1-z)")).real_coefficients
    for e in (parse("i*z/(1-z)"), substitute_rotate(f, cmath.exp(0.3j))):
        assert not BoundaryEvaluator(e).real_coefficients
    # numpy raises a negative constant to an integer power of 100 or more
    # through the complex log, and the sum adds its complex bits: every
    # Const of the expression is real, but not every coefficient, and the
    # two sides of 1j are not mirrors
    ev = BoundaryEvaluator(parse("(-2)^101/(1-z) + 1/(1+z)"))
    assert not ev.real_coefficients
    assert _bits(lambda: ev.near(-1j, -_MIRROR_D, 1e-3, 1.0)) != \
        _bits(lambda: ev.near(1j, _MIRROR_D, 1e-3, 1.0))


# ---------------------------------------------------------------------------
# even_modulus: |f(-z)| = |f(z)| proved from the plan

# the f of each triangle case and its environment, ap-small-p at an integer
# 4/p and at a non-integer one, whose leaves are branch-checked
_TRIANGLE_F = [("(1+z)/(1-z)", None), ("1/(1-z)", None),
               ("(1+z)^(2-eps) / (1-z)^(2+eps)", {"p": 0.6, "eps": 5 / 6}),
               ("(1+z)^(4/p)", {"p": 0.1}), ("(1+z)^(4/p)", {"p": 0.49})]


@pytest.mark.parametrize("text,env", _TRIANGLE_F)
def test_triangle_sums_read_even_and_their_terms_do_not(text, env):
    # f + g with g = -f(-z) is odd, so |f + g| is even; f and g are not
    f, g, total, _ = _pair(text, 1.0, None, 1.0, env, None)
    assert [BoundaryEvaluator(e, env).even_modulus
            for e in (f, g, total)] == [False, False, True]


@pytest.mark.parametrize("text,even", [
    ("1/(1-z^2)", True),                  # an a + b*z^2 leaf maps to itself
    ("(1+z)*(1-z)", True),                # 1 + z and 1 - z trade places
    ("(1+z)^0.5+(1-z)^0.5", True),        # a sum whose forms trade places
    ("(1+z)^3-(1-z)^3", True),            # an odd sum, read by its modulus
    ("(1+z)^3", False),                   # 1 - z is not a leaf
    ("(1+z)/(1-z)", False),               # the exponents do not trade
    ("i*z/(1-z)", False),                 # a bare z leaf has no image
    ("(1+z)^2+2*(1-z)^2", False),         # the coefficients do not trade
    ("4*z/(1-z^2)", False),               # even, but a bare z: not proved
    # an odd sum under a non-integer power: its branch check raises on
    # one side only
    ("((1+z)^3-(1-z)^3)^0.5", False),
    # the moduli trade, but only 0.5 + z is branch-checked
    ("((0.5+z)^0.5)^2*(0.5-z)", False),
])
def test_even_modulus_truth_table(text, even):
    assert BoundaryEvaluator(parse(text)).even_modulus is even


@st.composite
def _products_and_sums(draw):
    """A circle_factor_products e, a sum of two of them, or e with e(-z) as
    the paper pairs f and g: e - e(-z), e + e(-z) or e * e(-z)."""
    e, _ = draw(circle_factor_products(real=draw(st.booleans())))
    kind = draw(st.sampled_from(["one", "sum", "odd", "even", "product"]))
    if kind == "sum":
        return Add(e, draw(circle_factor_products())[0])
    m = substitute_negate(e)
    return {"one": e, "odd": Add(e, Neg(m)), "even": Add(e, m),
            "product": Mul(e, m)}[kind]


@given(_products_and_sums(), st.sampled_from([0.4, 1.0, 2.5]))
def test_even_modulus_has_no_false_positive(e, p):
    ev = BoundaryEvaluator(e)
    if ev.even_modulus:
        z = _disk_points(64)
        a, b = ev.value(z, p), ev.value(-z, p)
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(a, b))


def test_log_form_is_finite_where_the_complex_form_overflows():
    # |1 - z| in (0.03, 0.17): |1 - z|^-400 overflows, |1 - z|^-200 does not
    ev = BoundaryEvaluator(parse("1/(1-z)^400"))
    delta = np.array([0.05, -0.1])
    assert not np.any(np.isfinite(np.abs(ev.near(1 + 0j, delta, 0.0))))
    pl = -200.0 * np.log(2.0 * np.abs(np.sin(delta / 2.0)))
    _agree(ev.near(1 + 0j, delta, 0.0, 0.5), np.exp(pl), 1.0 + np.abs(pl))


def _counted(monkeypatch, *names):
    """The arguments of every call to np.<name>, for each name."""
    calls = {name: [] for name in names}
    for name in names:
        def counted(*args, _fn=getattr(np, name), _name=name, **kwargs):
            calls[_name].append(args)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    return calls


def _times_given(calls, *want):
    """How many of calls had the arrays want as their arguments."""
    return sum(len(args) == len(want) and all(
        np.allclose(a, w, rtol=1e-12, atol=0.0) for a, w in zip(args, want))
        for args in calls)


_DS = np.logspace(-1.0, -200.0, 34) * np.tile([1.0, -1.0], 17)


@pytest.mark.parametrize("p,eps", [(0.6, 0.7), (0.75, 0.4)])
def test_near_of_the_sum_follows_the_papers_closed_form(p, eps):
    # f + g = 8z(1+z^2)/(1-z^2)^(2+eps), a product, at offsets where the
    # complex path overflows; scalar gaps and a gap per point
    ev = BoundaryEvaluator(parse(f"{_F} + {_G}"), {"eps": eps})
    array_gap = np.logspace(-2.0, -250.0, _DS.size)
    for r in (1 + 0j, -1 + 0j):
        for gap in (0.0, 1e-3, 1e-250, array_gap):
            gaps = np.broadcast_to(gap, _DS.shape)
            pl, cond = np.array([_closed_form_log(*_on_circle(r, d, g), p,
                                                  eps)
                                 for d, g in zip(_DS, gaps)]).T
            got = ev.near(r, _DS, gap, p)
            fits = np.abs(pl) < 700.0
            assert fits.sum() >= 12
            assert np.all(np.isfinite(got[fits]))
            _agree(got[fits], np.exp(pl[fits]), cond[fits])


def test_shared_leaves_are_logged_once_per_call(monkeypatch):
    # f and g = -f(-z) share the leaves 1 + z and 1 - z: each is logged
    # once per call, from real parts, and never by numpy's complex log
    ev = BoundaryEvaluator(parse(f"{_F} + {_G}"), {"eps": 0.5})
    delta = np.array([1e-3, -1e-5])
    dz = np.expm1(1j * delta)                   # z - 1 on the circle
    calls = _counted(monkeypatch, "log", "arctan2")
    ev.near(1 + 0j, delta, 0.0, 0.5)
    assert not any(np.iscomplexobj(args[0]) for args in calls["log"])
    for leaf in (2.0 + dz, -dz):
        assert _times_given(calls["log"], np.abs(leaf)) == 1
    # |f + g| = |1 + z|^m |1 - z|^m |(1 + z)^4 - (1 - z)^4|: no Log at all
    assert not calls["arctan2"]
    assert _times_given(calls["log"], np.abs((2 + dz) ** 4 - dz ** 4)) == 1
    # the complex path: one atan2 per leaf under a non-integer power
    for call, leaves in ((lambda: ev.value(POINTS), (1 + POINTS, 1 - POINTS)),
                         (lambda: ev.near(1 + 0j, delta, 0.0), (2 + dz, -dz))):
        calls["log"].clear()
        calls["arctan2"].clear()
        call()
        assert not any(np.iscomplexobj(args[0]) for args in calls["log"])
        assert len(calls["arctan2"]) == 2
        for leaf in leaves:
            assert _times_given(calls["arctan2"], leaf.imag, leaf.real) == 1


# Each cause of EvalDomainError, alone and before or after another: the
# walk meets a product's operands left to right and a quotient's
# denominator before its numerator; z = 1 in every call below
_CAUSES = {
    "zero base, negative power": ("(1-z)^(-2)",
                                  "zero base raised to negative power -2"),
    "zero denominator": ("1/(1-z)", "division by zero"),
    "principal branch": ("(z-2)^0.5", "principal branch violation: base "
                         "(-1+0j) on (-inf, 0] with non-integer exponent 0.5"),
    "unbound parameter": ("alpha", "unbound parameter 'alpha'"),
}


def _raised(ev):
    """The messages of the EvalDomainErrors of value and near at z = 1,
    each with and without p."""
    z, delta = np.array([0.5 + 0.5j, 1 + 0j]), np.array([0.3, 0.0])
    msgs = []
    for call in (lambda p: ev.value(z, p), lambda p: ev.near(1 + 0j, delta,
                                                            0.0, p)):
        for p in (None, 0.5):
            with pytest.raises(EvalDomainError) as info:
                call(p)
            msgs.append(str(info.value))
    return msgs


@pytest.mark.parametrize("cause", sorted(_CAUSES))
def test_every_domain_error_is_kept_with_and_without_p(cause):
    text, msg = _CAUSES[cause]
    assert _raised(BoundaryEvaluator(parse(text))) == [msg] * 4
    for other, (text2, msg2) in _CAUSES.items():
        if other == cause:
            continue
        first = BoundaryEvaluator(parse(f"({text})*({text2})"))
        assert _raised(first) == [msg] * 4
        later = BoundaryEvaluator(parse(f"({text2})*({text})"))
        assert _raised(later) == [msg2] * 4
        # the denominator first
        quotient = BoundaryEvaluator(parse(f"({text2})/(({text})*(1-z))"))
        assert _raised(quotient) == [msg] * 4


def _sum_of(text):
    """A sum whose |.|^p takes _reduced's form, with text in each term."""
    return f"({text})*(z+3)^0.5 + (z+3)^1.5*({text})"


def _reduced_sums(ev):
    return sum(isinstance(k, tuple) and k[0] == "|"
               for k in ev._plan.keys)


@pytest.mark.parametrize("cause", sorted(_CAUSES))
def test_every_domain_error_is_kept_in_a_reduced_sum(cause):
    text, msg = _CAUSES[cause]
    ev = BoundaryEvaluator(parse(_sum_of(text)))
    assert _reduced_sums(ev) == 1
    assert _raised(ev) == [msg] * 4
    for other, (text2, msg2) in _CAUSES.items():
        if other != cause:
            first = BoundaryEvaluator(parse(_sum_of(f"({text})*({text2})")))
            assert _raised(first) == [msg] * 4
            # a reduced sum under a quotient, and one in its denominator
            quotient = BoundaryEvaluator(parse(
                f"({_sum_of(text2)})/(({text})*(1-z))"))
            assert _raised(quotient) == [msg] * 4
            below = BoundaryEvaluator(parse(f"({text2})/({_sum_of(text)})"))
            assert _reduced_sums(below) == 0
            assert _raised(below) == [msg] * 4


def test_reduced_sum_is_finite_where_the_complex_sum_overflows():
    # |1 - z| = 0.05 and 0.1: |1 - z|^-400.5 overflows, its square root not
    ev = BoundaryEvaluator(parse(
        "(1+z)^0.5/(1-z)^400.5 + (1-z)^0.5/(1+z)^400.5"))
    assert _reduced_sums(ev) == 1
    delta = np.array([0.05, -0.1])
    assert not np.any(np.isfinite(np.abs(ev.near(1 + 0j, delta, 0.0))))
    lp, lm = (np.log(np.abs(w)) for w in (2.0 + np.expm1(1j * delta),
                                          np.expm1(1j * delta)))
    # the second term is below the first by |(1-z)/(1+z)|^401 < 1e-600
    pl = 0.5 * (0.5 * lp - 400.5 * lm)
    _agree(ev.near(1 + 0j, delta, 0.0, 0.5), np.exp(pl),
           1.0 + 0.5 * (0.5 * np.abs(lp) + 400.5 * np.abs(lm) + 401 * np.pi))


@pytest.mark.parametrize("text", ["(1-z)^3*(1+z)^0.5", "(1-z)^2/(1+z)",
                                  "(1-z)*(z+2)^0.5 + (1-z)^3"])
def test_zero_leaf_with_positive_power_gives_zero(text):
    # a positive integer power: a non-integer one of a zero base is a
    # principal-branch violation
    ev = BoundaryEvaluator(parse(text))
    z, delta = np.array([1 + 0j]), np.array([0.0])
    for p in (None, 0.5):
        for w in (ev.value(z, p), ev.near(1 + 0j, delta, 0.0, p)):
            assert w.tolist() == [0]


@pytest.mark.parametrize("text,env,net", [
    ("1/(1-z)^2", None, {1: 2.0}),
    ("1/((1-z)*(2-2*z))", None, {1: 2.0}),    # two leaves at one root
    ("(1-z)^0.5/(1-z)", None, {1: 0.5}),      # a zero offsets the pole
    ("1/(1-z^2)^2", None, {1: 2.0, -1: 2.0}),  # one leaf, two roots
    ("1e300/(1-z)^3", None, {1: 3.0}),
    ("(1+z)^(2-eps)/(1-z)^(2+eps)", {"eps": 0.5}, {-1: -1.5, 1: 2.5}),
    ("z^3/(2-z)", None, {}),                  # no root on the circle
    ("1/(1-z) + 1/(1-z)", None, None),        # a sum
    ("((1-z)*(1+z))^0.5", None, None),        # a product under a power
    ("0/(1-z)", None, None),                  # c = 0
    ("1/(1+z^2)", None, {1j: 1.0, -1j: 1.0}),  # roots snapped as +-i
])
def test_net_exponents_of_product_forms(text, env, net):
    got = BoundaryEvaluator(parse(text), env).net_exponents()
    assert got == (None if net is None else pytest.approx(net, rel=1e-15))


# ---------------------------------------------------------------------------
# the memo of compiled evaluators


def _signs(w: complex) -> tuple:
    return math.copysign(1.0, w.real), math.copysign(1.0, w.imag)


def test_memo_keeps_equal_trees_with_other_zeros_apart():
    # Expr equality merges these two trees, yet 0.5 times each constant is
    # its own signed zero; a binding's -0.0 and 0.0 differ the same way
    neg, pos = Mul(Const(complex(-0.0, -0.0)), Z()), Mul(Const(0j), Z())
    assert neg == pos and hash(neg) == hash(pos)
    want = {id(neg): (1.0, -1.0), id(pos): (1.0, 1.0)}
    for order in ((neg, pos), (pos, neg)):
        expr._COMPILED.clear()
        for e in order + order:
            assert _signs(evaluate(e, 0.5)) == want[id(e)]
    e = parse("eps*z")
    for order in ((-0.0, 0.0), (0.0, -0.0)):
        expr._COMPILED.clear()
        for eps in order + order:
            assert _signs(evaluate(e, 0.5, {"eps": eps})) == (
                math.copysign(1.0, eps), 1.0)


@pytest.mark.parametrize("text", ["alpha*z", "(1-z)^(-alpha)"])
def test_unbound_parameter_raises_on_every_evaluate(text):
    e = parse(text)
    for _ in range(3):
        with pytest.raises(EvalDomainError,
                           match="unbound parameter 'alpha'"):
            evaluate(e, 0.5)


@pytest.mark.parametrize("env", [{"p": -1}, {"p": 0.0}, {"eps": math.inf},
                                 {"q": math.nan}])
def test_bad_binding_raises_before_the_memo_is_read(monkeypatch, env):
    e = parse("1/(1-z)")
    compiled(e)
    monkeypatch.setattr(expr, "_COMPILED", None)    # any read would raise
    for call in (lambda: compiled(e, env), lambda: evaluate(e, 0.5, env),
                 lambda: boundary_structure(e, env)):
        with pytest.raises(EvalDomainError):
            call()


def test_memo_keeps_at_most_its_bound():
    expr._COMPILED.clear()
    trees = [parse(f"{k}/(1-z)") for k in range(300)]
    for k, e in enumerate(trees):
        assert evaluate(e, 0.5) == 2 * k
        if k % 100 == 99:
            evaluate(trees[0], 0.5)
    assert len(expr._COMPILED) == expr._COMPILED_MAX == 256
    # the least recently used go first: trees[0] was used lately
    kept = {id(ev.expr) for ev in expr._COMPILED.values()}
    assert kept == {id(e) for e in [trees[0]] + trees[45:]}


def test_compiled_is_one_evaluator_per_object_and_binding():
    e, twin = parse("(1+z)^(2-eps)"), parse("(1+z)^(2-eps)")
    assert e == twin and e is not twin
    ev = compiled(e, {"eps": 0.5})
    assert compiled(e, {"eps": 0.5}) is ev and ev.expr is e
    assert compiled(twin, {"eps": 0.5}) is not ev
    assert compiled(e, {"eps": 0.25}) is not ev
    # bindings are keyed as check_param_env returns them
    assert compiled(e, {"eps": 1}) is compiled(e, {"eps": 1.0})
    assert compiled(e) is compiled(e, {})


def test_shared_evaluator_hands_out_copies_of_its_roots():
    ev = compiled(parse("(1-z^2)^0.5/(1-z)^2"))
    net = ev.net_exponents()
    net.clear()
    assert ev.net_exponents() == pytest.approx({1: 1.5, -1: -0.5})
    assert ev.structure() == boundary_structure(ev.expr)
