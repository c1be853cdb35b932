"""A printer for expression trees, read by the parse round-trip test.

to_string renders an expression so that parse(to_string(e)) rebuilds it,
with the fewest parentheses the grammar of disknorms.expr.parse needs.
"""
from disknorms.expr import Add, Const, Div, Expr, Mul, Neg, Param, Pow, Z

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _fmt_const(c: complex) -> tuple[str, int]:
    re_, im_ = c.real, c.imag
    if im_ == 0.0:
        if re_ >= 0:
            return _fmt_real(re_), _PREC_ATOM
        return "-" + _fmt_real(-re_), _PREC_NEG
    if re_ == 0.0:
        if im_ == 1.0:
            return "i", _PREC_ATOM
        if im_ == -1.0:
            return "-i", _PREC_NEG
        return f"{_fmt_real(im_)}*i", _PREC_MUL
    sign = "+" if im_ >= 0 else "-"
    return f"({_fmt_real(re_)} {sign} {_fmt_real(abs(im_))}*i)", _PREC_ATOM


def _to_string(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Z):
        return "z", _PREC_ATOM
    if isinstance(e, Param):
        return e.name, _PREC_ATOM
    if isinstance(e, Add):
        ls, lp = _to_string(e.left)
        if lp < _PREC_ADD:
            ls = f"({ls})"
        rhs = e.right
        op = "+"
        if isinstance(rhs, Neg):
            op, rhs = "-", rhs.operand
        rs, rp = _to_string(rhs)
        # the subtrahend/addend re-parses at term level
        if rp < _PREC_MUL:
            rs = f"({rs})"
        return f"{ls} {op} {rs}", _PREC_ADD
    if isinstance(e, Neg):
        s, p = _to_string(e.operand)
        # parenthesize so "-2" stays a negated node vs literal fold, and
        # nested structure survives re-parsing
        if p < _PREC_POW or isinstance(e.operand, (Const, Neg)):
            s = f"({s})"
        return f"-{s}", _PREC_NEG
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        l, r = (e.left, e.right) if isinstance(e, Mul) else (e.num, e.den)
        ls, lp = _to_string(l)
        if lp < _PREC_MUL:
            ls = f"({ls})"
        rs, rp = _to_string(r)
        if rp <= _PREC_MUL:  # right operand must bind tighter than * and /
            rs = f"({rs})"
        return f"{ls}{op}{rs}", _PREC_MUL
    if isinstance(e, Pow):
        bs, bp = _to_string(e.base)
        if bp < _PREC_ATOM:
            bs = f"({bs})"
        exp = e.exponent
        if isinstance(exp, Const) and exp.value.imag == 0.0:
            return f"{bs}^{_fmt_real(exp.value.real)}", _PREC_POW
        es, _ = _to_string(exp)
        return f"{bs}^({es})", _PREC_POW
    raise TypeError(f"not an Expr node: {e!r}")


def to_string(e: Expr) -> str:
    """Render an expression so that parse(to_string(e)) reproduces it."""
    return _to_string(e)[0]
