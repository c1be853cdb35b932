"""Expression trees for analytic functions on the unit disk.

Small closed-form language: rational combinations and real powers of
polynomials in z, with real parameters (p, eps, alpha, q) allowed in
exponents.  Provides parsing, evaluation with principal-branch powers,
cancellation-safe evaluation near boundary points, |f|^p from a log-modulus
product form, structural detection of boundary zeros/singularities, and the
substitutions z -> -z and z -> z^2.

Under a parameter binding, an expression is resolved once, bottom up
(_resolve): each node records its affine parts a + b*z^k (k = 1, 2) when
it has them, and each power its exponent.  BoundaryEvaluator compiles that
form once into a _Plan of product forms, which evaluation, boundary-offset
evaluation and the boundary structure (BoundaryEvaluator.structure) all
read; none of them recognises or resolves anything itself.
"""
from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

__all__ = [
    "Expr", "Const", "Z", "Param", "Add", "Neg", "Mul", "Div", "Pow",
    "ParamEnv", "PARAM_NAMES",
    "ExprError", "ParseError", "EvalDomainError", "UnsupportedFormError",
    "parse", "evaluate", "exponent_value",
    "substitute_negate", "substitute_square", "substitute_rotate",
    "boundary_structure", "BoundaryStructure", "SingularPoint",
    "BoundaryEvaluator", "check_param_env",
]

PARAM_NAMES = ("p", "eps", "alpha", "q")

ParamEnv = Mapping[str, float]

_TWO_PI = 2.0 * math.pi
_EPS = np.finfo(float).eps


class ExprError(ValueError):
    """Base class for expression-layer errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ExprError):
    """Division by zero, principal-branch violation, or unbound parameter."""


class UnsupportedFormError(ExprError):
    """Raised when boundary zeros of a singular factor cannot be found
    structurally."""


# ---------------------------------------------------------------------------
# AST node types


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Z:
    pass


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    num: "Expr"
    den: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: "Expr"  # must not contain Z; resolved to a real at eval time


Expr = Union[Const, Z, Param, Add, Neg, Mul, Div, Pow]


def _kids(e: Expr) -> tuple:
    """The operands of e in field order, a power's exponent last."""
    if isinstance(e, (Add, Mul, Div, Pow, Neg, Z)):
        return tuple(vars(e).values())
    if isinstance(e, (Const, Param)):
        return ()
    raise TypeError(f"not an Expr node: {e!r}")


def _contains_z(e: Expr) -> bool:
    return isinstance(e, Z) or any(_contains_z(k) for k in _kids(e))


def check_param_env(env: Optional[ParamEnv]) -> dict:
    """Validate parameter values: finite reals, and p > 0 when bound."""
    env = dict(env) if env else {}
    for name, val in env.items():
        v = float(val)
        if not math.isfinite(v):
            raise EvalDomainError(f"parameter {name!r} must be finite, got {val!r}")
        env[name] = v
    if "p" in env and env["p"] <= 0.0:
        raise EvalDomainError(f"parameter 'p' must be positive, got {env['p']}")
    return env


# ---------------------------------------------------------------------------
# Parsing

_NUM_RE = re.compile(r"(\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str) -> None:
        if not self.take(ch):
            got = self.peek() or "end of input"
            raise ParseError(f"expected {ch!r}, found {got!r}", self.pos)

    def number(self) -> Optional[float]:
        self.skip_ws()
        m = _NUM_RE.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return float(m.group(0))

    def ident(self) -> Optional[str]:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group(0)


def parse(text: str) -> Expr:
    """Parse the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ['^' exponent]
    atom   := number | 'z' | 'i' | ident | '(' expr ')'
    exponent := signed-number | '(' z-free arithmetic ')'

    Binary '-' desugars to Add(left, Neg(right)).  A unary minus applied
    directly to a numeric literal folds into the constant, so "-2" is
    Const(-2) while "-z^2" is Neg(Pow(z, 2)).
    """
    toks = _Tokens(text)
    node = _parse_expr(toks)
    toks.skip_ws()
    if toks.pos != len(toks.text):
        raise ParseError(f"unexpected trailing input {toks.text[toks.pos:]!r}", toks.pos)
    return node


def _parse_expr(toks: _Tokens) -> Expr:
    node = _parse_term(toks)
    while True:
        if toks.take("+"):
            node = Add(node, _parse_term(toks))
        elif toks.take("-"):
            node = Add(node, Neg(_parse_term(toks)))
        else:
            return node


def _parse_term(toks: _Tokens) -> Expr:
    node, _ = _parse_factor(toks)
    while True:
        if toks.take("*"):
            rhs, _ = _parse_factor(toks)
            node = Mul(node, rhs)
        elif toks.take("/"):
            rhs, _ = _parse_factor(toks)
            node = Div(node, rhs)
        else:
            return node


def _parse_factor(toks: _Tokens):
    # returns (node, is_bare_literal) so a unary minus can fold numbers
    if toks.take("-"):
        sub, lit = _parse_factor(toks)
        if lit:
            assert isinstance(sub, Const)
            return Const(-sub.value), False
        return Neg(sub), False
    node, lit = _parse_atom(toks)
    if toks.take("^"):
        node = Pow(node, _parse_exponent(toks))
        lit = False
    return node, lit


def _parse_atom(toks: _Tokens):
    ch = toks.peek()
    if ch == "":
        raise ParseError("unexpected end of input", toks.pos)
    if ch == "(":
        toks.take("(")
        node = _parse_expr(toks)
        toks.expect(")")
        return node, False
    num = toks.number()
    if num is not None:
        return Const(complex(num)), True
    start = toks.pos
    name = toks.ident()
    if name is None:
        raise ParseError(f"unexpected character {ch!r}", toks.pos)
    if name == "z":
        return Z(), False
    if name == "i":
        return Const(1j), False
    if name in PARAM_NAMES:
        return Param(name), False
    raise ParseError(f"unknown identifier {name!r}", start)


def _parse_exponent(toks: _Tokens) -> Expr:
    ch = toks.peek()
    if ch == "(":
        start = toks.pos
        toks.take("(")
        node = _parse_expr(toks)
        toks.expect(")")
        if _contains_z(node):
            raise ParseError("exponent must not contain z", start)
        return node
    neg = toks.take("-")
    if not neg:
        toks.take("+")
    num = toks.number()
    if num is None:
        raise ParseError("expected a number or parenthesized exponent after '^'",
                         toks.pos)
    return Const(complex(-num if neg else num))


# ---------------------------------------------------------------------------
# Evaluation


def _is_int(s: float) -> Optional[int]:
    n = round(s)
    if abs(s - n) <= 1e-9 * max(1.0, abs(s)):
        return int(n)
    return None


def exponent_value(e: Expr, env: Optional[ParamEnv] = None) -> float:
    """Resolve a z-free exponent expression to a real number."""
    env = env or {}

    def rec(node: Expr) -> complex:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Param):
            try:
                return complex(env[node.name])
            except KeyError:
                raise EvalDomainError(f"unbound parameter {node.name!r}") from None
        if isinstance(node, Z):
            raise EvalDomainError("exponent must not contain z")
        if isinstance(node, Neg):
            return -rec(node.operand)
        if isinstance(node, Add):
            return rec(node.left) + rec(node.right)
        if isinstance(node, Mul):
            return rec(node.left) * rec(node.right)
        if isinstance(node, Div):
            d = rec(node.den)
            if d == 0:
                raise EvalDomainError("division by zero in exponent")
            return rec(node.num) / d
        if isinstance(node, Pow):
            b, s = rec(node.base), rec(node.exponent)
            try:
                return complex(b) ** complex(s)
            except (ZeroDivisionError, OverflowError) as exc:
                raise EvalDomainError(f"power in exponent: {exc}") from None
        raise TypeError(f"not an Expr node: {node!r}")

    val = rec(e)
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise EvalDomainError(f"exponent must be real, got {val!r}")
    if not math.isfinite(val.real):
        raise EvalDomainError(f"exponent is not finite: {val!r}")
    return float(val.real)


def evaluate(e: Expr, z, env: Optional[ParamEnv] = None):
    """Evaluate e at z (complex scalar or ndarray) with principal powers.

    Raises EvalDomainError on division by zero, on a non-integer power of a
    base lying on the closed negative real axis, and on unbound parameters.
    """
    scalar = np.isscalar(z) or (isinstance(z, np.ndarray) and z.ndim == 0)
    zz = np.asarray(z, dtype=complex)
    out = BoundaryEvaluator(e, env).value(zz)
    return complex(out) if scalar else out


# ---------------------------------------------------------------------------
# Substitutions


def _neg(e: Expr) -> Expr:
    if isinstance(e, Neg):
        return e.operand
    return Neg(e)


def _substitute_z(e: Expr, repl: Expr) -> Expr:
    if isinstance(e, Z):
        return repl
    if isinstance(e, Pow):      # the exponent is z-free and kept as it is
        return Pow(_substitute_z(e.base, repl), e.exponent)
    new = [_substitute_z(k, repl) for k in _kids(e)]
    if isinstance(e, Neg):
        return _neg(new[0])
    return type(e)(*new) if new else e


def substitute_negate(e: Expr) -> Expr:
    """z -> -z, collapsing double negations (so 1-z becomes 1+z)."""
    return _substitute_z(e, Neg(Z()))


def substitute_square(e: Expr) -> Expr:
    """z -> z^2 (so 1/(1-z) becomes 1/(1-z^2))."""
    return _substitute_z(e, Pow(Z(), Const(complex(2))))


def substitute_rotate(e: Expr, lam: complex) -> Expr:
    """z -> lam*z for a fixed complex constant lam."""
    return _substitute_z(e, Mul(Const(complex(lam)), Z()))


# ---------------------------------------------------------------------------
# The resolved form, compiled by _Plan


class _Node:
    """An expression node resolved under one parameter binding."""
    __slots__ = ("e", "kids", "aff", "s", "n")

    def __init__(self, e: Expr, kids: list, aff, s=None, n=None):
        self.e, self.kids, self.aff, self.s, self.n = e, kids, aff, s, n


_Z2 = (0j, 1 + 0j, (2,))        # the aff of z*z and of z^2


def _resolve(e: Expr, env: dict) -> _Node:
    """e resolved once, bottom up, into a _Node: e, its resolved operands
    kids (a power's base only), aff, and for a power the exponent s and the
    integer n that _is_int snaps it to (s is None when exponent_value
    raises).

    aff = (a, b, ks) when e == a + b*z^k structurally for every k in ks, a
    nonempty subset of (1, 2); else None.  A constant or bound parameter
    is (v, 0, (1, 2)), z is (0, 1, (1,)), z*z and z^2 are (0, 1, (2,)), and
    sums, negations, products and quotients combine their operands' aff
    (_affine).  Never raises an ExprError: the readers raise for what is
    unresolved, on their call.
    """
    if isinstance(e, Const):
        return _Node(e, [], (e.value, 0j, (1, 2)))
    if isinstance(e, Z):
        return _Node(e, [], (0j, 1 + 0j, (1,)))
    if isinstance(e, Param):
        bound = e.name in env
        return _Node(e, [], (complex(env[e.name]), 0j, (1, 2)) if bound else None)
    if isinstance(e, Pow):
        s = n = None
        try:
            s = exponent_value(e.exponent, env)
            n = _is_int(s)
        except EvalDomainError:
            pass
        aff = _Z2 if n == 2 and isinstance(e.base, Z) else None
        return _Node(e, [_resolve(e.base, env)], aff, s, n)
    kids = [_resolve(k, env) for k in _kids(e)]
    if isinstance(e, Mul) and isinstance(e.left, Z) and isinstance(e.right, Z):
        return _Node(e, kids, _Z2)
    return _Node(e, kids, _affine(e, kids[0].aff, kids[-1].aff))


def _affine(e: Expr, l, r):
    """The aff of a sum, negation, product or quotient e from the aff l and
    r of its operands (l is r for a negation), with e's own arithmetic:
    Mul scales by an operand with b == 0, the left one first, and Div
    divides by a nonzero constant."""
    if l is None or r is None:
        return None
    (a, b, ks), (c, d, ls) = l, r
    # the k both operands share, each of ks and ls being (1,), (2,) or (1, 2)
    ks = ks if ks == ls or len(ls) == 2 else ls if len(ks) == 2 else ()
    if not ks:
        return None
    if isinstance(e, Add):
        return (a + c, b + d, ks)
    if isinstance(e, Mul):
        if b == 0:
            return (a * c, a * d, ks)
        return (c * a, c * b, ks) if d == 0 else None
    if isinstance(e, Neg):
        return (-a, -b, ks)
    return (a / c, b / c, ks) if d == 0 and c != 0 else None


# ---------------------------------------------------------------------------
# Boundary structure: roots of factors on |z| = 1


@dataclass(frozen=True)
class SingularPoint:
    """A boundary point where a denominator/negative-power factor vanishes."""
    angle: float          # in [0, 2*pi)
    root: complex         # the exact factor root, normalized to |root| = 1
    blowup: float         # its strength (BoundaryEvaluator.structure)


@dataclass(frozen=True)
class BoundaryStructure:
    singular: tuple[SingularPoint, ...]
    zeros: tuple[float, ...]     # boundary zeros of positive-power factors


def _canonical_angle(t: float) -> float:
    t = math.fmod(t, _TWO_PI)
    if t < 0:
        t += _TWO_PI
    if abs(t - _TWO_PI) < 1e-15:
        t = 0.0
    return t


def _circle_roots(a: complex, b: complex, squared: bool) -> list[complex]:
    """Unit-circle roots of a + b*z (or a + b*z^2 when squared)."""
    if b == 0:
        return []
    w = -a / b
    if abs(abs(w) - 1.0) > 1e-9:
        return []
    if squared:
        half = math.atan2(w.imag, w.real) / 2.0
        return [complex(math.cos(ang), math.sin(ang))
                for ang in (half, half + math.pi)]
    return [w / abs(w)]


def _exact_root(r: complex) -> complex:
    """Snap to the exactly representable unimodular points +-1, +-i."""
    for cand in (1 + 0j, -1 + 0j, 1j, -1j):
        if abs(r - cand) < 1e-12:
            return cand
    return r


def _add_at_root(table: dict, root: complex, x: float) -> float:
    """Add x at root to table, angle: (root, sum), roots snapped
    (_exact_root) and merged within 1e-12 of angle, also across 2 pi;
    returns the angle it is kept at."""
    root = _exact_root(root)
    ang = _canonical_angle(math.atan2(root.imag, root.real))
    for known, (r0, s0) in table.items():
        if abs(known - ang) < 1e-12 or abs(abs(known - ang) - _TWO_PI) < 1e-12:
            table[known] = (r0, s0 + x)
            return known
    table[ang] = (root, x)
    return ang


def boundary_structure(e: Expr, env: Optional[ParamEnv] = None) -> BoundaryStructure:
    """The boundary singular points and zeros of e, read off its plan
    (BoundaryEvaluator.structure)."""
    return BoundaryEvaluator(e, env).structure()


# ---------------------------------------------------------------------------
# Compiled evaluation: product forms over shared leaves

_SNAP = 64.0 * _EPS


def _affine_leaf(a: complex, b: complex, k: int):
    """a + b*z^k (b != 0) at c = (anchor, dz, anchor^2, z^2 - anchor^2),
    expanded around the anchor; b = +-1, as in 1 +- z, needs no product."""
    abs_a = abs(a)
    i, j = (0, 1) if k == 1 else (2, 3)   # (anchor, dz) or (a2, dz2)

    def leaf(c):
        base = a + b * c[i]
        if abs(base) <= _SNAP * (abs_a + abs(b * c[i])):
            base = 0j
        return (base + c[j] if b == 1 else base - c[j] if b == -1
                else base + b * c[j])
    return leaf


def _fails(msg: str):
    def step(vals, logs, p):
        raise EvalDomainError(msg)
    return step


def _nonzero(c: complex, terms: dict, msg: str):
    """Raises msg where c * prod leaf_j^s_j is 0: where c is, or a leaf of
    positive power (one of negative power was checked on the way)."""
    if c == 0:
        return _fails(msg)
    idx = [i for i, s in terms.items() if s > 0]

    def step(vals, logs, p):
        for i in idx:
            if np.count_nonzero(vals[i]) < vals[i].size:
                raise EvalDomainError(msg)
    return step


def _branch(i: int, s: float):
    """The principal-branch check of leaf i under the non-integer power s."""
    def step(vals, logs, p):
        w = np.asarray(vals[i])
        # it can only fire where some imaginary part is 0
        if np.count_nonzero(w.imag) < w.size:
            bad = (w.imag == 0.0) & (w.real <= 0.0)
            if bad.any():
                raise EvalDomainError(
                    f"principal branch violation: base {w[bad].flat[0]} "
                    f"on (-inf, 0] with non-integer exponent {s}")
    return step


def _summed(i: int, forms: list, reduced=None):
    """The step that evaluates leaf i, once per call, as a sum of forms; on
    the p path, with reduced = (m, rest) from _reduced, its log modulus
    sum_j m_j log|leaf_j| + log|sum rest| into logs[i] instead."""
    def step(vals, logs, p):
        if reduced and p is not None:
            if logs[i] is None:
                w = [_product(form, vals, logs) for form in reduced[1]]
                logs[i] = np.log(np.abs(sum(w[1:], w[0]))) + sum(
                    m * np.log(np.abs(vals[j])) for j, m in reduced[0])
        elif vals[i] is None:
            w = [_product(form, vals, logs) for form in forms]
            vals[i] = np.asarray(sum(w[1:], w[0]))
    return step


def _reduced(forms: list):
    """(m, rest) with sum forms = prod_j leaf_j^m_j * sum rest, m_j = min_k
    s_kj and rest_k = c_k prod_j leaf_j^(s_kj - m_j) of integer powers (to 4
    ulps), as principal powers of one base multiply exactly; None when they
    are not, or when every s_kj is an integer."""
    s = [dict(form[2]) for form in forms]
    m = {j: min(t.get(j, 0.0) for t in s) for t in s for j in t}
    n = [{j: round(t.get(j, 0.0) - mj) for j, mj in m.items()} for t in s]
    if all(x.is_integer() for t in s for x in t.values()) or any(
            abs(t.get(j, 0.0) - mj - k[j]) > 4 * _EPS * (abs(mj) + k[j])
            for t, k in zip(s, n) for j, mj in m.items()):
        return None
    return ([(j, mj) for j, mj in m.items() if mj],
            [(c, logc, tuple((j, float(x)) for j, x in k.items() if x), steps)
             for (c, logc, _, steps), k in zip(forms, n)])


def _product(form, vals: list, logs: list, p: Optional[float] = None):
    """A form (c, log|c|, terms, steps) after its steps: c times its integer
    powers, by products, and one exp(sum_j s_j Log leaf_j) over the rest,
    Log w = log|w| + i atan2(Im w, Re w); with p, exp(p log|c| + sum_j p s_j
    log|leaf_j|), a _reduced sum's log|leaf| read from logs, or |leaf|^ps."""
    c, logc, terms, steps = form
    for step in steps:
        step(vals, logs, p)
    if p is not None:
        if len(terms) == 1 and not logc and vals[terms[0][0]] is not None:
            return np.abs(vals[terms[0][0]]) ** (p * terms[0][1])
        acc = p * logc
        for k, (i, s) in enumerate(terms):
            m = (p * s) * (np.log(np.abs(vals[i])) if logs[i] is None
                           else logs[i].real)
            acc = m if not (k or logc) else acc + m
        return np.exp(acc)
    w, reals = None, []
    for i, s in terms:
        if not s.is_integer():
            reals.append((i, s))
        elif w is None:
            w = vals[i] if s == 1.0 else vals[i] ** int(s)
        else:
            w = (w * vals[i] if s == 1.0 else w / vals[i] if s == -1.0
                 else w * vals[i] ** int(s))
    if reals:
        for i, _ in reals:
            if logs[i] is None:
                # numpy's complex log is about ten times slower
                w_i = vals[i]
                logs[i] = (np.log(np.abs(w_i))
                           + 1j * np.arctan2(w_i.imag, w_i.real))
        x = np.exp(sum((s * logs[i] for i, s in reals[1:]),
                       reals[0][1] * logs[reals[0][0]]))
        w = x if w is None else w * x
    return c if w is None else w if c == 1 else -w if c == -1 else c * w


class _Plan:
    """An expression's forms c * prod leaf_j^s_j over one table of leaves.

    A leaf a + b*z^k is keyed by (a, b, k); another base (a non-affine sum,
    or a product under a non-integer power) is keyed by its expression, or
    ("|", e) for a sum in its _reduced form, and evaluated as a sum of
    forms by a step.  A form's steps are the checks
    and leaf evaluations of the tree walk in its order (operands left to
    right, a quotient's denominator first), so each EvalDomainError is
    raised first where the walk raises it, with p or not.  real says
    whether every coefficient it multiplies by is real: each form's c and
    each affine leaf's a and b.
    """

    def __init__(self, node: _Node, env: dict):
        self.env, self.keys, self.affine, self.squares = env, {}, [], False
        self.real, self.forms, self.cut = True, {}, set()
        self.top = self.form(node, mod=True)

    def form(self, node: _Node, steps=None, c=None, terms=None,
             mod=False) -> tuple:
        """(c, log|c|, terms, steps) of node, or of a walk's c and terms."""
        if c is None:
            steps = []
            c, terms = self.walk(node, steps, mod)
        # an integer power of a negative constant can come back complex
        self.real &= complex(c).imag == 0
        logc = math.log(abs(c)) if c != 0 else -math.inf
        return c, logc, tuple((i, s) for i, s in terms.items() if s), steps

    def leaf(self, key, forms=None, steps=None, reduced=None) -> int:
        """key's leaf, added on first sight; forms' step goes to steps."""
        if key not in self.keys:
            self.keys[key] = len(self.affine)
            self.affine.append(None if forms else _affine_leaf(*key))
            if not forms:
                self.squares |= key[2] == 2
                self.real &= key[0].imag == key[1].imag == 0
        if forms:
            self.forms.setdefault(self.keys[key], forms)
            steps.append(_summed(self.keys[key], forms, reduced))
        return self.keys[key]

    def walk(self, node: _Node, steps: list, mod=False):
        """(c, {leaf: s}) of node as a product; appends node's steps.  mod:
        node is read only through |node| on the p path, so a sum there may
        take its _reduced form, a leaf of its own."""
        e, kids, aff = node.e, node.kids, node.aff
        if aff is not None:
            a, b, ks = aff
            return (a, {}) if b == 0 else (1, {self.leaf((a, b, ks[0])): 1.0})
        if isinstance(e, Param):
            steps.append(_fails(f"unbound parameter {e.name!r}"))
            return 1, {}
        if isinstance(e, Add):
            forms = [self.form(k) for k in kids]
            red = _reduced(forms) if mod else None
            return 1, {self.leaf(("|", e) if red else e, forms, steps,
                                 red): 1.0}
        if isinstance(e, Neg):
            c, t = self.walk(kids[0], steps, mod)
            return -c, t
        if not isinstance(e, Pow):
            # a quotient's denominator is walked, and checked, first
            sign = 1.0 if isinstance(e, Mul) else -1.0
            d, u = self.walk(kids[sign < 0], steps, mod and sign > 0)
            if sign < 0:
                steps.append(_nonzero(d, u, "division by zero"))
            c, t = self.walk(kids[sign > 0], steps, mod)
            return (c * d if sign > 0 else c / (d or 1)), {
                i: t.get(i, 0.0) + sign * u.get(i, 0.0) for i in {**t, **u}}
        sub, s, n = [], node.s, node.n
        b, t = self.walk(kids[0], sub, mod and (n or 0) > 0)
        if s is None:
            # re-resolved, and so raised afresh, on every call that reaches it
            steps += sub + [lambda vals, logs, p: exponent_value(
                e.exponent, self.env)]
            return 1, {}
        if n is not None:
            # an s that _is_int snaps to an integer n bypasses the branch cut
            steps += sub
            if n < 0:
                steps.append(_nonzero(b, t, "zero base raised to negative "
                                      f"power {n}"))
            return complex(np.complex128(b) ** n), {i: r * n
                                                   for i, r in t.items()}
        if b == 1 and list(t.values()) == [1.0]:    # a leaf
            steps += sub
            i = next(iter(t))
        else:
            # (c * prod w^r)^s is not c^s * prod w^(r s) on the principal
            # branch, so a base that is not a leaf is a leaf of its own
            i = self.leaf(e.base, [self.form(kids[0], sub, b, t)], steps)
        self.cut.add(i)
        steps.append(_branch(i, s))
        return 1, {i: s}


class BoundaryEvaluator:
    """Evaluator for a fixed expression and parameter binding.

    value(z) evaluates anywhere.  near(anchor, delta, gap) evaluates at
    z = anchor*(1-gap)*e^{i*delta} without ever forming z - anchor by
    subtraction: affine subexpressions a + b*z (and a + b*z^2) are expanded
    around the anchor, with the anchored constant snapped to zero when it is
    below roundoff scale.  This keeps relative accuracy for offsets far
    below machine epsilon, which the singular quadrature transform needs.

    Both run one _Plan, compiled on first use (value is near at anchor 0):
    each product node is c * prod leaf_j^s_j over distinct leaves, each
    evaluated and logged once per call, so f and -f(-z), which share 1 +- z,
    take two logs between them, each from log|w| and atan2, not numpy's
    complex log.  Given p, both return |f|^p, for a product
    exp(p log|c| + sum_j p s_j log|leaf_j|) from real logs only, finite
    wherever p log|f| fits a double.  A sum that is not affine adds its
    products, one complex exp each at most; read only through its modulus,
    with each leaf's powers apart by integers, it is
    prod_j |leaf_j|^m_j |sum of integer powers| (_reduced) instead, so
    |f + g|^p takes no complex log or exp.  Under np.errstate, inf, 0
    and log 0 = -inf are the results meant; the checks raise EvalDomainError.
    """

    def __init__(self, e: Expr, env: Optional[ParamEnv] = None):
        self.expr = e
        self.env = check_param_env(env)
        self._plan = None

    def _compiled(self) -> _Plan:
        """The plan, compiled on first use."""
        if self._plan is None:
            with np.errstate(all="ignore"):
                self._plan = _Plan(_resolve(self.expr, self.env), self.env)
        return self._plan

    @property
    def real_coefficients(self) -> bool:
        """Whether every coefficient of the plan is real (so every Const of
        the expression is; parameters are).  Then f(conj z) = conj f(z) on
        the principal branch, so |f(conj z)| = |f(z)|, which lets a circle
        mean run over [0, pi] alone (hardy._layout)."""
        return self._compiled().real

    @functools.cached_property
    def even_modulus(self) -> bool:
        """Whether the plan proves |f(-z)| = |f(z)|, as for the paper's odd
        f + g.  z -> -z takes a leaf a + b*z to the leaf a - b*z, fixes
        a + b*z^2, and takes any other leaf to the one whose forms its forms
        become, or to minus one if no branch check reads it; then the top
        form must keep its (leaf, s), and each checked leaf map to one.
        to[i] is j + 1 for the image j of leaf i, -(j + 1) for minus j."""
        plan, to = self._compiled(), {}
        own = {i: Counter((c, tuple(sorted(t))) for c, _, t, _ in forms)
               for i, forms in plan.forms.items()}
        for key, i in plan.keys.items():        # operands before their sums
            if i not in own:
                to[i] = 1 + plan.keys.get(
                    (key[0], -key[1], 1) if key[2] == 1 else key, -1)
                continue
            ts = [(c, tuple(sorted((to[j] - 1, s) for j, s in t)))
                  for c, _, t, _ in plan.forms[i]]
            want = [(sg, Counter((sg * c, t) for c, t in ts))
                    for sg in ((1,) if i in plan.cut else (1, -1))]
            to[i] = next((sg * (j + 1) for sg, w in want for j in own
                          if own[j] == w), 0)
        top = sorted(plan.top[2])
        return (sorted((abs(to[i]) - 1, s) for i, s in top) == top
                and all(to[i] - 1 in plan.cut for i in plan.cut))

    def _roots(self) -> tuple:
        """(net, negative, zeros) over the boundary roots of the affine leaves
        reached from the top form through the forms of sums and other bases,
        with exponents s multiplied on the way down: net maps each root's
        angle to (root, -sum s) (_add_at_root), negative to -sum s over the
        s < 0, and zeros lists the angle of each root of an s > 0.  A sum read
        through an s <= 0 raises UnsupportedFormError; a power whose exponent
        does not resolve is only the step that raises, with no root."""
        plan = self._compiled()
        key = {i: k for k, i in plan.keys.items()}
        net: dict[float, tuple[complex, float]] = {}
        negative: dict[float, float] = {}
        zeros: list[float] = []

        def walk(terms, mult: float) -> None:
            for i, s in terms:
                s *= mult
                if plan.affine[i] is not None:
                    a, b, k = key[i]
                    for r in _circle_roots(a, b, squared=k == 2):
                        ang = _add_at_root(net, r, -s)
                        if s < 0:
                            negative[ang] = negative.get(ang, 0.0) - s
                        else:
                            zeros.append(_canonical_angle(
                                math.atan2(r.imag, r.real)))
                elif s <= 0 and len(plan.forms[i]) > 1:
                    raise UnsupportedFormError(
                        "cannot locate boundary zeros of a non-affine "
                        "denominator factor structurally; pass singular "
                        "angles explicitly")
                else:
                    for form in plan.forms[i]:
                        walk(form[2], s)

        walk(plan.top[2], 1.0)
        return net, negative, zeros

    def net_exponents(self) -> Optional[dict]:
        """The net exponent sigma = -sum s_j of the leaves that vanish at each
        boundary root (|f| ~ |z - root|^-sigma there), keyed by the root as
        _add_at_root matches and snaps it, of a plan whose top form is
        c * prod leaf_j^s_j, c != 0, over affine leaves alone; else None."""
        plan = self._compiled()
        c, _, terms, _ = plan.top
        if c == 0 or any(plan.affine[i] is None for i, _ in terms):
            return None
        return dict(self._roots()[0].values())

    def structure(self) -> BoundaryStructure:
        """The singular points and zeros on the circle (_roots).  A root is
        singular where a leaf's exponent is negative, with strength its net
        exponent in a product form (net_exponents) and else the sum of the
        negative exponents there; any other root is a zero, a kink of |f|^p
        on the circle, and zeros within 1e-12 of a singular angle or of a
        smaller zero are dropped."""
        net, negative, zeros = self._roots()
        product = self.net_exponents() is not None
        pts = tuple(SingularPoint(ang, net[ang][0], net[ang][1] if product
                                  else x) for ang, x in sorted(negative.items()))
        kept = [p.angle for p in pts]
        for t in sorted(zeros):
            if all(abs(t - u) >= 1e-12 for u in kept):
                kept.append(t)
        return BoundaryStructure(pts, tuple(kept[len(pts):]))

    @np.errstate(all="ignore")
    def _run(self, anchor: complex, dz, p: Optional[float]) -> np.ndarray:
        plan = self._compiled()
        # z^2 - anchor^2 = dz (2 anchor + dz)
        c = (anchor, dz, *((anchor * anchor, dz * (2.0 * anchor + dz))
                           if plan.squares else ()))
        vals = [f(c) if f else None for f in plan.affine]
        w = np.asarray(_product(plan.top, vals, [None] * len(vals), p))
        # a constant gives one number
        return w if w.shape == dz.shape else np.broadcast_to(w, dz.shape)

    def value(self, z, p: Optional[float] = None) -> np.ndarray:
        """f(z), or |f(z)|^p."""
        return self._run(0j, np.asarray(z), p)

    def near(self, anchor: complex, delta, gap: float,
             p: Optional[float] = None) -> np.ndarray:
        """f, or |f|^p, at z = anchor*(1-gap)*e^{i*delta}.

        delta may be a scalar or ndarray of angle offsets (radians, signed);
        gap is the radial distance 1-|z|/|anchor| >= 0.  Accurate for |delta|
        and gap down to ~1e-290.
        """
        delta = np.asarray(delta, dtype=float)
        half = np.sin(delta / 2.0)
        # e^{i d} - 1, no cancellation
        em1 = (-2.0) * half * half + 1j * np.sin(delta)
        # (1-gap) e^{i d} - 1 = (e^{id} - 1) - gap - gap (e^{id} - 1)
        rel = em1 - gap - gap * em1
        return self._run(anchor, anchor * rel, p)
