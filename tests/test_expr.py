import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from disknorms.expr import (Add, Const, Div, EvalDomainError, Mul, Neg,
                            NotPolynomialError, Param, ParseError, Pow, Z,
                            boundary_singularities, boundary_structure,
                            evaluate, exponent_value, parse,
                            substitute_negate, substitute_rotate,
                            substitute_square, to_polynomial,
                            BoundaryEvaluator, _is_int, _resolve)
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
    # boundary_structure treats an exponent it cannot resolve as one of
    # unknown sign, as it does for an unbound parameter
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


def _eval_coeffs(coeffs, z):
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


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
def test_to_polynomial_matches_direct_evaluation(e):
    coeffs = to_polynomial(e).coeffs
    direct = evaluate(e, POINTS)
    via_coeffs = _eval_coeffs(coeffs, POINTS)
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert float(np.max(np.abs(direct - via_coeffs))) <= 1e-12 * scale


def test_to_polynomial_known_coefficients():
    assert to_polynomial(parse("(1+z)^2")).coeffs == (1 + 0j, 2 + 0j, 1 + 0j)
    assert to_polynomial(parse("2*z^3 - z + 0.5")).coeffs == \
        (0.5 + 0j, -1 + 0j, 0j, 2 + 0j)


def test_to_polynomial_rejects_non_polynomial():
    with pytest.raises(NotPolynomialError):
        to_polynomial(parse("1/(1-z)"))
    with pytest.raises(NotPolynomialError):
        to_polynomial(parse("(1-z)^(-1/4)"))


def test_to_polynomial_parameterized_exponent():
    coeffs = to_polynomial(parse("(1+z)^(4/p)"), {"p": 2.0}).coeffs
    assert coeffs == (1 + 0j, 2 + 0j, 1 + 0j)


# ---------------------------------------------------------------------------
# boundary structure


def test_boundary_singularities_basic():
    assert boundary_singularities(parse("1/(1-z)")) == {0.0}
    assert boundary_singularities(parse("(1+z)/(1-z)")) == {0.0}
    assert boundary_singularities(parse("1/(1-z^2)")) == {0.0, math.pi}
    assert boundary_singularities(parse("(1+z)^(4/p)"), {"p": 0.25}) == set()


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
def circle_factor_products(draw):
    """(e, factors): e a product and quotient of 1 to 4 factors
    (a + b*z^k)^s with |a| = |b|, so that every root lies on the circle;
    factors lists each one's root grid indices and its exponent in e."""
    e, factors = None, []
    for _ in range(draw(st.integers(1, 4))):
        j, k = draw(st.integers(0, _GRID - 1)), draw(st.sampled_from([1, 2]))
        s = draw(st.sampled_from([-2.5, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]))
        rho = draw(st.sampled_from([0.5, 1.0, 3.0]))
        # a + b*z^k vanishes where z^k = u, at angles j and j + GRID/2
        u = complex(math.cos(k * j * _STEP), math.sin(k * j * _STEP))
        zk = Z() if k == 1 else draw(st.sampled_from(
            [Pow(Z(), Const(2 + 0j)), Mul(Z(), Z())]))
        f = Pow(Add(Const(complex(rho)), Mul(Const(-rho * u.conjugate()), zk)),
                Const(complex(s)))
        roots = [j] if k == 1 else [j, (j + _GRID // 2) % _GRID]
        if e is None:
            e, factors = f, [[roots, s]]
            continue
        op, right = draw(st.sampled_from([Mul, Div])), draw(st.booleans())
        if op is Div and right:
            s = -s
        elif op is Div:
            for fac in factors:
                fac[1] = -fac[1]
        e = op(e, f) if right else op(f, e)
        factors.append([roots, s])
    return e, factors


def _grid_index(angle):
    i = round(angle / _STEP)
    assert abs(angle - i * _STEP) < 1e-9
    return i % _GRID


@given(circle_factor_products())
def test_boundary_structure_of_circle_factor_products(case):
    e, factors = case
    blowup, zeros = {}, set()
    for roots, s in factors:
        for i in roots:
            if s < 0:
                blowup[i] = blowup.get(i, 0.0) - s
            else:
                zeros.add(i)
    zeros = sorted(zeros - set(blowup))
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


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("eps", [0.4, 0.7, 1.0])
def test_log_form_matches_complex_form_on_the_paper_pair(p, eps):
    # f, g = -f(-z) and f + g; |f + g|^p is the modulus of the same sum
    pair = {_F: [(1, 1, 1, 2 - eps), (1, -1, 1, -2 - eps)],
            _G: [(1, -1, 1, 2 - eps), (1, 1, 1, -2 - eps)],
            f"{_F} + {_G}": None}
    for text, factors in pair.items():
        ev = BoundaryEvaluator(parse(text), {"eps": eps})

        def cond(leaf):
            return 1.0 if factors is None else _log_terms(factors, p, leaf)[1]
        _agree(ev.value(POINTS, p), np.abs(ev.value(POINTS)) ** p,
               [cond(lambda a, b, k: a + b * z ** k) for z in POINTS])
        for anchor in (1 + 0j, -1 + 0j, 1j):
            for gap in (0.0, 1e-3):
                _agree(ev.near(anchor, _MODERATE, gap, p),
                       np.abs(ev.near(anchor, _MODERATE, gap)) ** p,
                       [cond(lambda a, b, k: _leaf_at(a, b, k, anchor, d,
                                                      gap))
                        for d in _MODERATE])
            if factors is None:
                continue
            # f and g stay finite at offsets where |f| overflows a double
            pl, cnd = np.array([_log_terms(factors, p, lambda a, b, k: _leaf_at(
                a, b, k, anchor, d, 0.0)) for d in _DEEP]).T
            fits = np.abs(pl) < 700.0
            got = ev.near(anchor, _DEEP, 0.0, p)
            assert np.all(np.isfinite(got[fits]))
            _agree(got[fits], np.exp(pl[fits]), cnd[fits])


def test_log_form_is_finite_where_the_complex_form_overflows():
    # |1 - z| in (0.03, 0.17): |1 - z|^-400 overflows, |1 - z|^-200 does not
    ev = BoundaryEvaluator(parse("1/(1-z)^400"))
    delta = np.array([0.05, -0.1])
    assert not np.any(np.isfinite(np.abs(ev.near(1 + 0j, delta, 0.0))))
    pl = -200.0 * np.log(2.0 * np.abs(np.sin(delta / 2.0)))
    _agree(ev.near(1 + 0j, delta, 0.0, 0.5), np.exp(pl), 1.0 + np.abs(pl))


def test_shared_leaves_are_logged_once_per_call(monkeypatch):
    # f and g = -f(-z) share the leaves 1 + z and 1 - z: two complex logs
    ev = BoundaryEvaluator(parse(f"{_F} + {_G}"), {"eps": 0.5})
    logs = []
    log = np.log

    def counted(x, *args, **kwargs):
        logs.append(np.iscomplexobj(x))
        return log(x, *args, **kwargs)

    monkeypatch.setattr(np, "log", counted)
    ev.near(1 + 0j, np.array([1e-3, -1e-5]), 0.0, 0.5)
    assert logs.count(True) == 2


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
