"""Integral means and Hardy-space quasi-norms on the unit circle.

For f analytic on the disk and continuous up to the boundary away from
finitely many points, the H^p quasi-norm is the boundary integral

    ||f||_{H^p}^p = (1/2 pi) int_0^{2 pi} |f(e^{i t})|^p dt,

the increasing limit of the integral means M_p(r; f).  The circle is cut
into arcs at the singular angles; each arc is integrated with the
singular-endpoint transform from the quad module, and f is evaluated
through anchor-offset boundary arithmetic so that samples at angular
distance far below machine epsilon from a pole stay accurate.  The same
arc machinery, run at radius 1 - gap, provides the inner circle integrals
of the Bergman module.  The arcs' pieces and sides are planned once
(_arc_pieces); _circle_mean_p runs each side by heap, and _circle_means
hands the sides of all gaps to quad._bisect at once, which samples each
arc and method (values, from_left, from_right) with one evaluator call
per round.  Both finish each mean through the same sums (_arcs_mean); when
_bisect raises, _circle_means reruns its gaps through _circle_mean_p.

The norm driver _norm serves both spaces: _setup checks p and the
parameters, compiles f and finds its boundary structure; the space's
integral runs; and when it does not converge, the space's probe looks for
divergence along the one truncation ladder, _ladder_says_divergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Optional

import numpy as np

from .expr import (
    BoundaryEvaluator,
    BoundaryStructure,
    Expr,
    SingularPoint,
    _canonical_angle,
    _exact_root,
    boundary_structure,
    check_param_env,
)
from .quad import (NonFiniteSampleError, QuadConfig, _bisect, _finish_side,
                   _pieces, _piecewise, _side_plan, _singular_side, _total,
                   integrate_piecewise)

__all__ = [
    "NormResult",
    "integral_means",
    "hardy_norm",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NormResult:
    """A computed quasi-norm; abs_err_est is the estimate on value_p."""
    space: str              # "Hardy" | "Bergman"
    p: float
    value_p: float          # ||f||^p
    value: float            # value_p^(1/p)
    abs_err_est: float
    converged: bool
    divergent: bool = False  # set when the integral shows divergence symptoms

    @property
    def value_abs_err(self) -> float:
        """First-order propagation of abs_err_est onto value."""
        if not math.isfinite(self.value_p):
            return math.inf
        if self.value_p <= 0.0:
            if self.abs_err_est <= 0.0:
                return 0.0
            try:
                return self.abs_err_est ** (1.0 / self.p)
            except OverflowError:
                return math.inf
        return self.abs_err_est * self.value / (self.p * self.value_p)


def _norm_result(space: str, p: float, value_p: float, err: float,
                 converged: bool, divergent: bool = False) -> NormResult:
    value_p = float(value_p)
    if value_p < 0.0:      # nonnegative integrand; clamp roundoff
        value_p = 0.0
    if value_p == 0.0:
        value = 0.0
    else:
        try:
            value = value_p ** (1.0 / p)
        except OverflowError:
            value = math.inf
    return NormResult(space, float(p), value_p, value, float(err),
                      bool(converged), bool(divergent))


# ---------------------------------------------------------------------------
# Circle arcs between singular angles


@dataclass(frozen=True, eq=False)     # hashed by identity: a grouping key
class _Arc:
    lo: float
    hi: float                       # hi > lo; may exceed 2*pi on the wrap arc
    left: Optional[SingularPoint]   # singular endpoint data, if any
    right: Optional[SingularPoint]
    kinks: tuple[float, ...]        # interior |f|^p kink angles (zeros of f)


def _build_arcs(structure: BoundaryStructure) -> list[_Arc]:
    sing = structure.singular
    zeros = structure.zeros
    if not sing:
        ks = tuple(t for t in zeros if 1e-9 < t < _TWO_PI - 1e-9)
        return [_Arc(0.0, _TWO_PI, None, None, ks)]
    arcs = []
    k = len(sing)
    for j in range(k):
        a = sing[j]
        b = sing[(j + 1) % k]
        lo = a.angle
        hi = b.angle if j + 1 < k else b.angle + _TWO_PI
        ks = []
        for t in zeros:
            tt = t if t > lo else t + _TWO_PI
            if lo + 1e-9 < tt < hi - 1e-9:
                ks.append(tt)
        arcs.append(_Arc(lo, hi, a, b, tuple(sorted(ks))))
    return arcs


class _ArcIntegrand:
    """|f((1-gap) e^{i t})|^p over one arc of the circle.

    Endpoint offsets are anchored at the arc's singular roots, so the
    affine factors of f are never formed by subtracting nearly equal
    angles; this is what lets the singular transform sample at offsets
    like 1e-200.  With gap > 0 the profile flattens at angular scale
    ~gap, which is declared through flat_below so the transform can
    bound its truncated tail by a single deep sample.  _circle_means
    samples each arc through one whose gap it sets per point (_sampler).
    """

    def __init__(self, ev: BoundaryEvaluator, p: float, gap: float, arc: _Arc):
        self._ev = ev
        self._p = p
        self._gap = gap
        self._arc = arc
        self.deep_left = arc.left is not None
        self.deep_right = arc.right is not None
        smax = max((s.blowup for s in (arc.left, arc.right) if s is not None),
                   default=0.0)
        self.flat_below = 1e-3 * gap if gap > 0.0 else 0.0
        if smax <= 0.0:
            self.offset_blowup = None
        elif gap >= 10.0 ** (-270.0 / (max(1.0, p) * smax)):
            # the peak plateaus at height ~gap^{-smax}, representable in
            # doubles, so offsets may go to full transform depth
            self.offset_blowup = None
        else:
            self.offset_blowup = max(1.0, p) * smax

    def values(self, t):
        t = np.asarray(t, dtype=float)
        z = (1.0 - self._gap) * np.exp(1j * t)
        return self._ev.value(z, p=self._p)

    def from_left(self, d):
        return self._ev.near(self._arc.left.root, np.asarray(d, dtype=float),
                             self._gap, p=self._p)

    def from_right(self, d):
        return self._ev.near(self._arc.right.root, -np.asarray(d, dtype=float),
                             self._gap, p=self._p)


def _arc_pieces(arcs: list[_Arc], cfg: QuadConfig) -> list:
    """(arc, QuadConfig, quad._pieces) of each arc under the mean's cfg.
    Sub-targets at 0.45x keep the summed estimates within the caller's
    tolerance (abs and rel parts can both saturate across pieces)."""
    n = len(arcs)
    budget = max(int(cfg.max_evaluations) // n, 1000)
    raw_abs = 0.45 * cfg.abs_tol * _TWO_PI / n
    subs = [QuadConfig(abs_tol=raw_abs, rel_tol=0.45 * cfg.rel_tol,
                       max_evaluations=budget, singular_left=arc.left is not None,
                       singular_right=arc.right is not None) for arc in arcs]
    return [(arc, sub, _pieces([arc.lo, *arc.kinks, arc.hi], sub))
            for arc, sub in zip(arcs, subs)]


def _arcs_mean(plans: list, cfg: QuadConfig, results):
    """(mean, abs_err_est, evaluations, converged) of the _arc_pieces plans
    from results, an iterator over the results of their sides in order."""
    return _total([_piecewise(pieces, sub, results) for _, sub, pieces in plans],
                  cfg, scale=_TWO_PI)


def _circle_mean_p(ev: BoundaryEvaluator, p: float,
                   structure: BoundaryStructure, gap: float,
                   cfg: QuadConfig) -> tuple[float, float, int, bool]:
    """(mean, abs_err_est, evaluations, converged) of the mean
    (1/2 pi) int |f((1-gap) e^{i t})|^p dt over the full circle, with
    cfg's tolerances on the mean."""
    plans = _arc_pieces(_build_arcs(structure), cfg)
    intgs = [_ArcIntegrand(ev, p, gap, arc) for arc, _, _ in plans]
    return _arcs_mean(plans, cfg, (
        _singular_side(intg, *side) for intg, (_, _, pieces) in zip(intgs, plans)
        for _, sides in pieces for side in sides))


def _circle_means(ev: BoundaryEvaluator, p: float,
                  structure: BoundaryStructure, gaps, cfg: QuadConfig):
    """Yield _circle_mean_p at each of gaps, in order, with the bisections
    of every gap, arc, piece and side run at once by quad._bisect (batched
    as scipy.integrate.quad_vec batches its intervals); each gap only adds
    its _side_plans.  When _bisect raises, the gaps run one at a time
    through _circle_mean_p instead, so a failure is raised where, and as,
    the gap loop raises it."""
    plans = _arc_pieces(_build_arcs(structure), cfg)
    fns, owners = {}, []
    for gap in gaps:
        for arc, _, pieces in plans:
            intg = _ArcIntegrand(ev, p, gap, arc)
            for _, sides in pieces:
                for side in sides:
                    plan = _side_plan(intg, *side)
                    # the arc's first integrand samples it at every gap
                    fn = fns.setdefault((arc, plan.method),
                                        _sampler(intg, plan.method))
                    owners.append((fn, gap, plan))
    try:
        done = _bisect(owners)
    except Exception:
        means = (_circle_mean_p(ev, p, structure, gap, cfg) for gap in gaps)
    else:
        finished = (_finish_side(plan, *d) for (*_, plan), d in zip(owners, done))
        means = (_arcs_mean(plans, cfg, finished) for _ in gaps)
    yield from means


def _sampler(intg: _ArcIntegrand, method: str):
    """intg's method as quad._bisect calls it, fn(points, gaps), with the
    gap of each point."""
    def fn(points, gaps):
        intg._gap = gaps
        return getattr(intg, method)(points)
    return fn


# ---------------------------------------------------------------------------
# Explicitly declared singular angles


def _probe_strength(ev: BoundaryEvaluator, root: complex, p: float) -> float:
    """Estimate the |f| blowup exponent at a declared singular root from
    two boundary samples on each side."""
    d = np.array([1e-3, 1e-7])
    best = 0.0
    for sgn in (1.0, -1.0):
        try:
            y = np.abs(np.asarray(ev.near(root, sgn * d, 0.0)))
        except Exception:
            return 3.0
        if not np.all(np.isfinite(y)) or np.any(y <= 0.0):
            return 3.0
        slope = (math.log(y[1]) - math.log(y[0])) / (4.0 * math.log(10.0))
        best = max(best, slope)
    return 1.1 * max(best, 0.25) + 0.05


def _declared_structure(ev: BoundaryEvaluator, p: float,
                        angles) -> BoundaryStructure:
    pts = []
    for t in angles:
        ang = _canonical_angle(float(t))
        if any(abs(ang - s.angle) < 1e-12 for s in pts):
            continue
        root = _exact_root(complex(math.cos(ang), math.sin(ang)))
        pts.append(SingularPoint(ang, root, _probe_strength(ev, root, p)))
    pts.sort(key=lambda s: s.angle)
    return BoundaryStructure(tuple(pts), ())


# ---------------------------------------------------------------------------
# Divergence probe


def _ladder_says_divergent(truncated) -> bool:
    """Domain-truncation ladder test of both spaces.

    truncated(cut) is the integral with the singular set shaved out to
    depth cut, for cut = 1e-4, 1e-6, 1e-8.  A blow-up at any rung
    (NonFiniteSampleError) marks the limiting integral divergent; so does
    growth above 10% between the deepest two truncations without geometric
    decay of the increments.  (A slowly convergent tail also grows, but
    its increments shrink geometrically along the ladder.)
    """
    vals = []
    for cut in (1e-4, 1e-6, 1e-8):
        try:
            vals.append(truncated(cut))
        except NonFiniteSampleError:
            return True
    i1, i2, i3 = vals
    if not (math.isfinite(i2) and math.isfinite(i3)):
        return True
    if i3 <= 1.10 * i2:
        return False
    d1, d2 = i2 - i1, i3 - i2
    return not (d1 > 0.0 and d2 < 0.95 * d1)


def _divergence_probe(ev: BoundaryEvaluator, p: float,
                      structure: BoundaryStructure) -> bool:
    """Truncated boundary integrals with the singular angles shaved out at
    shrinking cuts."""
    if not structure.singular:
        return False
    arcs = _build_arcs(structure)
    sub = QuadConfig(abs_tol=1e-8, rel_tol=1e-5, max_evaluations=40000)

    def truncated(cut):
        pieces = []
        for arc in arcs:
            lo = arc.lo + (cut if arc.left is not None else 0.0)
            hi = arc.hi - (cut if arc.right is not None else 0.0)
            if hi - lo < 4.0 * cut:
                continue
            bps = [lo, *(t for t in arc.kinks if lo + 1e-9 < t < hi - 1e-9),
                   hi]
            intg = _ArcIntegrand(ev, p, 0.0, arc)
            pieces.append(integrate_piecewise(intg, bps, sub).value)
        return fsum(pieces)

    return _ladder_says_divergent(truncated)


# ---------------------------------------------------------------------------
# Public operations


def _setup(f: Expr, p: float, env, singular_angles=None):
    """The checked p and env, the compiled evaluator and the boundary
    structure: located structurally from the evaluator's resolved form, or
    probed at the declared singular_angles.  Returns (p, evaluator,
    structure)."""
    p = float(p)
    if not 0.0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    env = check_param_env(env)
    ev = BoundaryEvaluator(f, env)
    if singular_angles is None:
        structure = boundary_structure(ev.resolved())
    else:
        structure = _declared_structure(ev, p, singular_angles)
    return p, ev, structure


def _norm(space: str, integral, probe, f: Expr, p: float, env,
          cfg: Optional[QuadConfig], singular_angles) -> NormResult:
    """The norm driver of both spaces: integral(ev, p, structure, cfg) ->
    (value_p, abs_err_est, converged), and, when that does not converge,
    probe(ev, p, structure) -> divergent.  An integral that blows up
    (NonFiniteSampleError) is inf and not converged, never an exception."""
    cfg = cfg or QuadConfig()
    p, ev, structure = _setup(f, p, env, singular_angles)
    try:
        value, err, conv = integral(ev, p, structure, cfg)
    except NonFiniteSampleError:
        # samples or inner means overflowed despite the depth caps
        value, err, conv = math.inf, math.inf, False
    div = False if conv else probe(ev, p, structure)
    return _norm_result(space, p, value, err, conv, div)


def _integral_means_full(f: Expr, p: float, r: float, env=None,
                         cfg: Optional[QuadConfig] = None
                         ) -> tuple[float, float, int, bool]:
    """integral_means plus (error-on-M, evaluations, converged)."""
    cfg = cfg or QuadConfig()
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    p, ev, structure = _setup(f, p, env)
    mean, err, evals, conv = _circle_mean_p(ev, p, structure, 1.0 - r, cfg)
    M = _norm_result("Hardy", p, mean, err, conv)
    return M.value, M.value_abs_err, evals, conv


def integral_means(f: Expr, p: float, r: float, env=None,
                   cfg: Optional[QuadConfig] = None) -> float:
    """M_p(r; f) = ((1/2 pi) int_0^{2 pi} |f(r e^{i t})|^p dt)^{1/p}."""
    return _integral_means_full(f, p, r, env, cfg)[0]


def hardy_norm(f: Expr, p: float, env=None,
               cfg: Optional[QuadConfig] = None,
               singular_angles=None) -> NormResult:
    """The H^p quasi-norm of f via its boundary integral.

    Boundary singularities are located structurally unless singular_angles
    is given (radians; required when the denominators are not affine in z
    or z^2).  A non-convergent result is probed for divergence and the
    outcome reported through NormResult.divergent.
    """
    def boundary_mean(ev, p, structure, cfg):
        mean, err, _, conv = _circle_mean_p(ev, p, structure, 0.0, cfg)
        return mean, err, conv
    return _norm("Hardy", boundary_mean, _divergence_probe, f, p, env, cfg,
                 singular_angles)
