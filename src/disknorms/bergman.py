"""Bergman-space quasi-norms and membership of (1-z)^{-alpha}.

The A^p quasi-norm is computed from the radial form

    ||f||_{A^p}^p = int_0^1 2 r M_p^p(r; f) dr

with the area measure normalized so the disk has measure 1.  The inner
circle integral reuses the arc machinery of the hardy module at radius
1 - gap; the means at all radii of one outer request run at once
(hardy._circle_means), and where the outer error spreads over several
panels, as at the kinks that zeros of f put into M_p^p, one request
bisects up to four of them (_RadialIntegrand.batch).  The outer radial
integral receives gaps directly from the singular-endpoint transform, so
radii exponentially close to 1 never suffer the 1 - r rounding collapse.
bergman_norm hands this radial integral, and a probe that truncates it at
1 - cut, to the norm driver of the hardy module.  Each of the probe's three
rungs is the radial integral's singular side with its transform stopped at
the gap cut; they bisect at once (quad._bisect), their inner means in one
request per round, and each fails as it would alone.  For p = 2 the norm
is also available exactly from Taylor coefficients as sum |a_n|^2/(n+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Optional

import numpy as np

from .expr import BoundaryEvaluator, BoundaryStructure, Expr
from .hardy import (
    _CRITICAL,
    _CUTS,
    NormResult,
    _Ends,
    _circle_means,
    _ladder_says_divergent,
    _norm,
    _norm_result,
)
from .quad import (NonFiniteSampleError, QuadConfig, _bisect, _side_plan,
                   _sides, integrate)

__all__ = [
    "InnerIntegralError",
    "MembershipVerdict",
    "bergman_norm",
    "bergman_norm_coeffs",
    "membership_classify",
    "membership_evidence",
]

_MEMBERSHIP_BAND = 1e-12
_OUTER_BUDGET = 6000        # outer radial nodes; each node is an inner mean


class InnerIntegralError(NonFiniteSampleError):
    """The inner circle mean at radius is not finite, so the radial
    integrand's sample there is not: x and radius are that radius."""

    def __init__(self, radius: float):
        radius = float(radius)
        super().__init__(f"inner circle integral failed at radius {radius!r}",
                         radius)
        self.radius = radius


class _RadialIntegrand:
    """Outer radial integrand 2 r^{1+k} M_p^p(r; f).

    Right-endpoint offsets are taken as the circle gap 1 - r directly.
    The offset depth is capped so that the inner peak plateau gap^{-s}
    stays representable in double precision; below that depth the inner
    means are not computable and the outer transform's extrapolated tail
    accounts for the truncation.  The outer heap bisects up to batch
    panels a step (quad._adaptive), so one request runs the inner means of
    up to 120 radii at once: 240 inner bisections, as many as
    verify_ap_large_p runs.
    """

    deep_left = False
    flat_below = 0.0
    batch = 4

    def __init__(self, ev: BoundaryEvaluator, p: float,
                 structure: BoundaryStructure, inner_cfg: QuadConfig,
                 weight_pow: int = 0):
        self._ev = ev
        self._p = p
        self._st = structure
        self._inner = inner_cfg
        self._k = weight_pow
        smax = max((s.blowup for s in structure.singular), default=0.0)
        self.deep_right = bool(structure.singular)
        if smax > 0.0:
            self.offset_blowup = max(max(0.0, p * smax - 1.0) + 0.25,
                                     (280.0 / 260.0) * max(1.0, p) * smax)
        else:
            self.offset_blowup = None
        self.inner_evals = 0
        self.max_inner_rel = 0.0

    def _terms(self, radii, gaps):
        """2 r^{1+k} M_p^p(r) at each radius r = 1 - gap; the inner means
        run at once, their bookkeeping and failures in radius order."""
        out = np.empty(len(gaps))
        means = _circle_means(self._ev, self._p, self._st, gaps, self._inner)
        for j, (g, (m, e, n, _)) in enumerate(zip(gaps, means)):
            self.inner_evals += n
            if not (math.isfinite(m) and math.isfinite(e)):
                raise InnerIntegralError(1.0 - g)
            if m > 0.0:
                self.max_inner_rel = max(self.max_inner_rel, e / m)
            out[j] = 2.0 * radii[j] ** (1 + self._k) * m
        return out

    def values(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return self._terms(list(r), [1.0 - rj for rj in r])

    from_left = values      # offsets from the left endpoint 0 are radii

    def from_right(self, d):
        d = np.atleast_1d(np.asarray(d, dtype=float))
        return self._terms([1.0 - dj for dj in d], list(d))


def _radial_integral(ev: BoundaryEvaluator, p: float,
                     structure: BoundaryStructure, cfg: QuadConfig,
                     weight_pow: int = 0):
    """int_0^1 2 r^{1+k} M_p^p(r; f) dr with folded inner error.

    Returns (value, abs_err_est, converged, evaluations).
    """
    inner = QuadConfig(abs_tol=0.1 * cfg.abs_tol, rel_tol=0.1 * cfg.rel_tol,
                       max_evaluations=min(int(cfg.max_evaluations), 150000))
    intg = _RadialIntegrand(ev, p, structure, inner, weight_pow)
    # the outer target leaves room for the folded inner contributions
    outer = QuadConfig(abs_tol=0.45 * cfg.abs_tol, rel_tol=0.45 * cfg.rel_tol,
                       max_evaluations=_OUTER_BUDGET,
                       singular_right=intg.deep_right)
    r = integrate(intg, 0.0, 1.0, outer)
    err = r.abs_err_est + intg.max_inner_rel * abs(r.value)
    conv = r.converged and err <= max(cfg.abs_tol, cfg.rel_tol * abs(r.value))
    return r.value, err, conv, r.evaluations + intg.inner_evals


def _radial_divergence_probe(ev: BoundaryEvaluator, p: float,
                             structure: BoundaryStructure) -> bool:
    """Truncate the radial integral at 1 - cut for shrinking cuts and apply
    the ladder growth test.  A rung is the right singular side of [0, 1]
    whose depth floor 10^(-280/offset_blowup) (quad._side_plan) is cut.  The
    rungs bisect at once, owners of one quad._bisect call on one integrand,
    bit for bit as each rung alone, and fail as each would alone."""
    if not structure.singular:
        return False
    inner = QuadConfig(abs_tol=1e-7, rel_tol=1e-6, max_evaluations=60000)
    outer = QuadConfig(abs_tol=1e-6, rel_tol=1e-4, max_evaluations=3000,
                       singular_right=True)
    intg = _RadialIntegrand(ev, p, structure, inner)

    def fn(d, _):
        return intg.from_right(d)

    owners = [(fn, cut, _side_plan(_Ends(False, True, 280.0 / math.log10(
        1.0 / cut), 0.0), *_sides(0.0, 1.0, outer)[0])) for cut in _CUTS]
    sides = _bisect(owners)
    return _ladder_says_divergent(lambda cut: next(sides)[0])


def bergman_norm(f: Expr, p: float, env=None,
                 cfg: Optional[QuadConfig] = None,
                 singular_angles=None) -> NormResult:
    """The A^p quasi-norm of f via the radial-means integral."""
    def radial(ev, p, structure, cfg):
        value, err, conv, _ = _radial_integral(ev, p, structure, cfg)
        return value, err, conv
    return _norm("Bergman", radial, _radial_divergence_probe, f, p, env, cfg,
                 singular_angles)


def bergman_norm_coeffs(coeffs) -> NormResult:
    """Exact A^2 norm from Taylor coefficients: value_p = sum |a_n|^2/(n+1)."""
    vals = [complex(a) for a in coeffs]
    vp = fsum(abs(a) ** 2 / (n + 1.0) for n, a in enumerate(vals))
    return _norm_result("Bergman", 2.0, vp, 0.0, True)


# ---------------------------------------------------------------------------
# Membership of (1-z)^{-alpha}


@dataclass(frozen=True)
class MembershipVerdict:
    alpha: float
    p: float
    product: float                   # p * alpha
    classification: str              # Member | NonMember | Boundary
    evidence: tuple = ()             # pairs (R, I(R)), radii increasing
    diagnostic: Optional[str] = None  # Convergent | Divergent-log | -poly


def _classify(product: float) -> str:
    critical = _CRITICAL["Bergman"]
    if product < critical - _MEMBERSHIP_BAND:
        return "Member"
    if abs(product - critical) <= _MEMBERSHIP_BAND:
        # on the critical line the function is not in A^p, but the marginal
        # case is tagged so front ends can display it distinctly
        return "Boundary"
    return "NonMember"


def membership_classify(alpha: float, p: float) -> MembershipVerdict:
    """Rule-based classification of (1-z)^{-alpha} in A^p by p*alpha vs 2."""
    alpha, p = float(alpha), float(p)
    if not (0.0 < alpha < math.inf and 0.0 < p < math.inf):
        raise ValueError("need finite alpha > 0 and p > 0")
    prod = p * alpha
    return MembershipVerdict(alpha, p, prod, _classify(prod))


def _truncated_disk_integral(s: float, R: float) -> float:
    """(1/pi) int_{|z|<=R} |1-z|^{-s} dx dy via polar coordinates at z = 1.

    At angle t from the center z = 1 the disk |z| <= R is met for radii
    between r- and r+ = cos t +- sqrt(cos^2 t - (1 - R^2)); the radial
    integral of r^{1-s} is elementary, leaving a 1D angular integral.
    Its form (r+^q - r-^q)/q, q = 2 - s, is taken as the difference of
    expm1(q log r+-), which does not cancel as q -> 0 (log(r+/r-) at 0).
    At t = asin R the two radii meet and the integrand goes to zero like
    the square root of cos^2 t - (1 - R^2), so the right end is a
    square-root endpoint: plain bisection converges there only slowly,
    and the singular transform samples it at double-exponential rates.
    For s > 2, r-^{2-s} may overflow; the integral is then inf.
    """
    one_m_R2 = (1.0 - R) * (1.0 + R)
    tmax = math.asin(R)

    def G(t):
        t = np.asarray(t, dtype=float)
        c = np.cos(t)
        disc = np.maximum(c * c - one_m_R2, 0.0)
        rp = c + np.sqrt(disc)
        rm = one_m_R2 / rp
        q = 2.0 - s
        if q == 0.0:
            return np.log(rp / rm)
        with np.errstate(over="ignore", invalid="ignore"):
            return (np.expm1(q * np.log(rp)) - np.expm1(q * np.log(rm))) / q

    try:
        r = integrate(G, 0.0, tmax,
                      QuadConfig(abs_tol=1e-10, rel_tol=1e-9,
                                 max_evaluations=200000, singular_right=True))
    except NonFiniteSampleError:
        return math.inf
    return 2.0 * r.value / math.pi


def _default_radii() -> tuple[float, ...]:
    return tuple(1.0 - 2.0 ** (-k) for k in range(2, 13))


def membership_evidence(alpha: float, p: float,
                        radii=None) -> MembershipVerdict:
    """Classification plus truncated integrals I(R) and a growth diagnostic.

    Increment ratios of I along the radii distinguish a geometrically
    convergent tail (ratio < 0.9) from logarithmic (ratio near 1) and
    polynomial (ratio > 1.1) divergence; the thresholds reflect the
    (1-r)^{1-p*alpha} tail behaviour of the integrand.  An I(R) that
    overflows is polynomial divergence.
    """
    base = membership_classify(alpha, p)
    rs = _default_radii() if radii is None else tuple(float(R) for R in radii)
    if len(rs) < 4:
        raise ValueError("need at least 4 radii for the growth diagnostic")
    for a, b in zip(rs[:-1], rs[1:]):
        if not 0.0 < a < b < 1.0:
            raise ValueError("radii must be strictly increasing in (0, 1)")
    s = base.product
    evidence = tuple((R, _truncated_disk_integral(s, R)) for R in rs)
    if not all(math.isfinite(I) for _, I in evidence):
        med = math.inf
    else:
        incs = [b[1] - a[1] for a, b in zip(evidence[:-1], evidence[1:])]
        ratios = sorted(b / a for a, b in zip(incs[:-1], incs[1:]) if a > 0.0)
        tail = ratios[-3:]
        med = tail[len(tail) // 2]
    if med < 0.9:
        diag = "Convergent"
    elif med <= 1.1:
        diag = "Divergent-log"
    else:
        diag = "Divergent-poly"
    return MembershipVerdict(base.alpha, base.p, base.product,
                             base.classification, evidence, diag)
