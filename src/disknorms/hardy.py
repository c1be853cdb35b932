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
of the Bergman module.  One driver, _circle_means, runs the means at any
number of gaps: it plans the arcs' pieces and sides once (_arc_pieces),
builds one integrand per arc, which takes the gap with each point and
plans each side once per class of gaps, and hands the sides of every gap
to quad._bisect, which runs one gap's alone by heap and several gaps' at
once, sampling each arc and method with one evaluator call per round.

When every coefficient of f is real (BoundaryEvaluator.real_coefficients)
and its singular angles are symmetric under t -> 2 pi - t, each mean runs
over [0, pi] alone (_layout), as |f| at -t is |f| at t; when also |f(-z)| =
|f(z)| (BoundaryEvaluator.even_modulus, as for the paper's odd f + g), over
[0, pi/2], as |f| at t + pi is too.

The norm driver _norm serves both spaces: _setup checks p and the
parameters, compiles f and reads its boundary structure off the compiled
plan (BoundaryEvaluator.structure); the space's integral runs; and when it
does not converge, a product form is divergent where p times its net
exponent at a boundary root reaches 1 on the circle or 2 on the disk
(BoundaryEvaluator.net_exponents), and otherwise the space's probe looks
for divergence along the one truncation ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import NamedTuple, Optional

import numpy as np

from .expr import (
    BoundaryEvaluator,
    BoundaryStructure,
    Expr,
    SingularPoint,
    _canonical_angle,
    _exact_root,
)
from .quad import (NonFiniteSampleError, QuadConfig, _bisect, _pieces,
                   _piecewise, _side_plan, _total, integrate_piecewise)

__all__ = [
    "NormResult",
    "integral_means",
    "hardy_norm",
]

_TWO_PI = 2.0 * math.pi
_CUTS = (1e-4, 1e-6, 1e-8)      # the rungs of the truncation ladder
_CRITICAL = {"Hardy": 1.0, "Bergman": 2.0}  # p*sigma where a norm is infinite
_AXES = (0.0, math.pi, 0.5 * math.pi, _canonical_angle(-0.5 * math.pi))


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
        err = self.abs_err_est * self.value / (self.p * self.value_p)
        if math.isinf(err) and math.isfinite(self.abs_err_est):
            # the product overflowed though the quotient is finite
            err = self.abs_err_est * (self.value / (self.p * self.value_p))
        return err


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


def _arcs(points, zeros) -> list[_Arc]:
    """The _Arcs between consecutive points, (angle, SingularPoint or None)
    each, with the zeros (or their turns by 2 pi) inside each as kinks."""
    return [_Arc(lo, hi, a, b, tuple(sorted(
        tt for t in zeros for tt in (t, t + _TWO_PI)
        if lo + 1e-9 < tt < hi - 1e-9)))
        for (lo, a), (hi, b) in zip(points, points[1:])]


def _build_arcs(structure: BoundaryStructure) -> list[_Arc]:
    """The arcs of the circle between its singular angles."""
    sing = structure.singular
    points = ([(s.angle, s) for s in sing]
              + [(s.angle + _TWO_PI, s) for s in sing[:1]])
    return _arcs(points or [(0.0, None), (_TWO_PI, None)], structure.zeros)


def _layout(ev: BoundaryEvaluator, structure: BoundaryStructure):
    """(arcs, span) of the circle means of f: the arcs of [0, span] between
    its singular angles and span, with span pi when every coefficient of f
    is real and the singular angles are invariant under t -> -t, and pi/2
    when also |f(-z)| = |f(z)| (BoundaryEvaluator.even_modulus) and they and
    the zeros are invariant under t -> t + pi; else _build_arcs and 2 pi.
    Each is exact: on the principal branch f(conj z) = conj f(z), and
    even_modulus maps the leaves at z onto those at -z, so |f|^p, and whether
    a branch check raises, are the same at t, -t and t + pi, a group with
    [0, pi/2] for a fundamental domain."""
    sing = [s.angle for s in structure.singular]

    def invariant(angles, k):
        # under t -> -t and, for k = 4, t -> t + pi, within 1e-12; an angle
        # within 1e-12 of a multiple of 2 pi/k is that of 1, -1, i or -i
        def near(u):
            return any(abs(math.remainder(u - v, _TWO_PI)) < 1e-12
                       for v in angles)
        return all(near(-t) and (k == 2 or near(t + math.pi)) and (
            t in _AXES[:k] or abs(math.remainder(k * t, _TWO_PI)) >= 1e-12)
            for t in angles)

    if not (ev.real_coefficients and invariant(sing, 2)):
        return _build_arcs(structure), _TWO_PI
    span = (0.5 * math.pi if invariant(sing, 4)
            and invariant(structure.zeros, 4) and ev.even_modulus else math.pi)
    points = ([] if 0.0 in sing else [(0.0, None)]) + [
        (s.angle, s) for s in structure.singular if s.angle <= span] + (
        [] if span in sing else [(span, None)])
    return _arcs(points, structure.zeros), span


class _Ends(NamedTuple):
    """An arc's ends as quad._side_plan reads them at one class of gaps:
    offsets capped (offset_blowup) or not (None), and the circle flat below
    every offset (inf), so that a singular side samples its tail, or not."""
    deep_left: bool
    deep_right: bool
    offset_blowup: Optional[float]
    flat_below: float


class _ArcIntegrand:
    """|f((1-gap) e^{i t})|^p over one arc of the circle, the gap given in
    each call, fn(points, gap), as quad._bisect calls its owners; as a
    quad integrand of its own, the arc of the circle itself (gap 0).

    Endpoint offsets are anchored at the arc's singular roots, so the
    affine factors of f are never formed by subtracting nearly equal
    angles; this is what lets the singular transform sample at offsets
    like 1e-200.  With gap > 0 the profile flattens at angular scale
    ~gap, so the transform can bound its truncated tail by a single deep
    sample (quad._tail_at), and the peak plateaus at height ~gap^{-smax}:
    below gap _uncapped_from that is not representable in doubles, and the
    offsets stop at the depth offset_blowup allows.  Its attributes are
    those of gap 0, where the offsets are capped and nothing is flat (no
    flat_below).
    """

    def __init__(self, ev: BoundaryEvaluator, p: float, arc: _Arc):
        self._ev = ev
        self._p = p
        self._arc = arc
        self._plans = {}
        self.deep_left = arc.left is not None
        self.deep_right = arc.right is not None
        smax = max((s.blowup for s in (arc.left, arc.right) if s is not None),
                   default=0.0)
        self.offset_blowup = max(1.0, p) * smax if smax > 0.0 else None
        self._uncapped_from = (math.inf if self.offset_blowup is None
                               else 10.0 ** (-270.0 / self.offset_blowup))

    def values(self, t, gap=0.0):
        t = np.asarray(t, dtype=float)
        z = (1.0 - gap) * np.exp(1j * t)
        return self._ev.value(z, p=self._p)

    def from_left(self, d, gap=0.0):
        return self._ev.near(self._arc.left.root, np.asarray(d, dtype=float),
                             gap, p=self._p)

    def from_right(self, d, gap=0.0):
        return self._ev.near(self._arc.right.root, -np.asarray(d, dtype=float),
                             gap, p=self._p)

    def owner(self, j: int, side: tuple, gap: float) -> tuple:
        """(fn, gap, plan) of side (quad._sides), the arc's j-th, at gap, as
        quad._bisect takes it.  The gap moves the plan only through its
        class: whether the offsets are capped, and whether the circle is
        flat (below 1e-3 gap) at the side's deepest offset, where one sample
        then bounds the tail.  Each class of each side is planned once."""
        uncapped = gap >= self._uncapped_from
        flat = 1e-3 * gap
        plan = self._plan(j, side, uncapped, flat > 0.0)
        if plan.tail_at is not None and not plan.tail_at <= flat:
            plan = self._plan(j, side, uncapped, False)
        return getattr(self, plan.method), gap, plan

    def _plan(self, j: int, side: tuple, uncapped: bool, tailed: bool):
        """The plan of the j-th side at the gaps of one class."""
        key = (j, uncapped, tailed)
        plan = self._plans.get(key)
        if plan is None:
            ends = self if not (uncapped or tailed) else _Ends(
                self.deep_left, self.deep_right,
                None if uncapped else self.offset_blowup,
                math.inf if tailed else 0.0)
            plan = self._plans[key] = _side_plan(ends, *side)
        return plan


def _arc_pieces(arcs: list[_Arc], span: float, cfg: QuadConfig) -> list:
    """(arc, QuadConfig, quad._pieces) of each of the arcs (_layout), which
    cover span, under the mean's cfg.  Sub-targets at 0.45x keep the summed
    estimates within the caller's tolerance (abs and rel parts can both
    saturate across pieces)."""
    n = len(arcs)
    budget = max(int(cfg.max_evaluations) // n, 1000)
    raw_abs = 0.45 * cfg.abs_tol * span / n
    subs = [QuadConfig(abs_tol=raw_abs, rel_tol=0.45 * cfg.rel_tol,
                       max_evaluations=budget, singular_left=arc.left is not None,
                       singular_right=arc.right is not None) for arc in arcs]
    return [(arc, sub, _pieces([arc.lo, *arc.kinks, arc.hi], sub))
            for arc, sub in zip(arcs, subs)]


def _circle_mean_p(ev: BoundaryEvaluator, p: float,
                   structure: BoundaryStructure, gap: float,
                   cfg: QuadConfig) -> tuple[float, float, int, bool]:
    """The _circle_means at gap alone."""
    return next(_circle_means(ev, p, structure, [gap], cfg))


def _circle_means(ev: BoundaryEvaluator, p: float,
                  structure: BoundaryStructure, gaps, cfg: QuadConfig):
    """Yield the (mean, abs_err_est, evaluations, converged) of the mean
    (1/2 pi) int |f((1-gap) e^{i t})|^p dt over the full circle at each of
    gaps, in order, with cfg's tolerances on each.  quad._bisect runs the
    sides of every gap, arc and piece: those of one gap alone by heap, of
    several at once (batched as scipy.integrate.quad_vec batches its
    intervals), and raises a failure where, and as, the gap loop raises it.
    Each arc has one integrand, whatever the number of gaps."""
    arcs, span = _layout(ev, structure)
    plans = _arc_pieces(arcs, span, cfg)
    sides = []
    for arc, _, pieces in plans:
        intg = _ArcIntegrand(ev, p, arc)
        sides += [(intg, j, side) for j, side in enumerate(
            side for _, piece_sides in pieces for side in piece_sides)]
    results = _bisect([intg.owner(j, side, gap) for gap in gaps
                       for intg, j, side in sides])
    for _ in gaps:
        yield _total([_piecewise(pieces, sub, results)
                      for _, sub, pieces in plans], cfg, scale=span)


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
        if not math.isfinite(float(t)):
            raise ValueError(f"singular angles must be finite, got {t}")
        ang = _canonical_angle(float(t))
        if any(abs(math.remainder(ang - s.angle, _TWO_PI)) < 1e-12
               for s in pts):      # within 1e-12, also across 2 pi
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
    depth cut, for each cut of _CUTS in order; it may compute the rung or
    serve a value precomputed for it.  A blow-up at any rung
    (NonFiniteSampleError) marks the limiting integral divergent; so does
    growth above 10% between the deepest two truncations without geometric
    decay of the increments.  (A slowly convergent tail also grows, but
    its increments shrink geometrically along the ladder.)
    """
    vals = []
    for cut in _CUTS:
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
    arcs = [(arc, _ArcIntegrand(ev, p, arc)) for arc in _build_arcs(structure)]
    sub = QuadConfig(abs_tol=1e-8, rel_tol=1e-5, max_evaluations=40000)

    def truncated(cut):
        pieces = []
        for arc, intg in arcs:
            lo = arc.lo + (cut if arc.left is not None else 0.0)
            hi = arc.hi - (cut if arc.right is not None else 0.0)
            if hi - lo < 4.0 * cut:
                continue
            bps = [lo, *(t for t in arc.kinks if lo + 1e-9 < t < hi - 1e-9),
                   hi]
            pieces.append(integrate_piecewise(intg, bps, sub).value)
        return fsum(pieces)

    return _ladder_says_divergent(truncated)


# ---------------------------------------------------------------------------
# Public operations


def _setup(f: Expr, p: float, env, singular_angles=None):
    """The checked p, the evaluator, which checks env, and the boundary
    structure: read off the evaluator's plan (BoundaryEvaluator.structure,
    where a zero at a pole of a product form lowers the strength the depth
    floors read), or probed at the declared singular_angles.  Returns (p,
    evaluator, structure)."""
    p = float(p)
    if not 0.0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    ev = BoundaryEvaluator(f, env)
    if singular_angles is None:
        return p, ev, ev.structure()
    return p, ev, _declared_structure(ev, p, singular_angles)


def _norm(space: str, integral, probe, f: Expr, p: float, env,
          cfg: Optional[QuadConfig], singular_angles) -> NormResult:
    """The norm driver of both spaces: integral(ev, p, structure, cfg) ->
    (value_p, abs_err_est, converged), and, when that does not converge,
    divergent where p*sigma reaches _CRITICAL at a located root of a product
    form, else probe(ev, p, structure).  An integral that blows up
    (NonFiniteSampleError) is inf and not converged, never an exception."""
    cfg = cfg or QuadConfig()
    p, ev, structure = _setup(f, p, env, singular_angles)
    try:
        value, err, conv = integral(ev, p, structure, cfg)
    except NonFiniteSampleError:
        # samples or inner means overflowed despite the depth caps
        value, err, conv = math.inf, math.inf, False
    div = not conv and (singular_angles is None and any(
        p * s >= _CRITICAL[space]
        for s in (ev.net_exponents() or {}).values())
        or probe(ev, p, structure))
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
