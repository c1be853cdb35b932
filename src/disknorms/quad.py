"""Adaptive one-dimensional quadrature.

Fixed Gauss-Kronrod 7/15 pair on each panel with largest-error-first
bisection; panel error is the embedded-rule difference inflated by a fixed
safety factor of 4.  Endpoints flagged singular are handled by a one-sided
double-exponential change of variable x = endpoint +- L*exp(-2 sinh w), so
endpoint values are never sampled and integrable power/log singularities
converge at the usual Gauss rates in w.

Integrands are real-valued callables on ndarrays.  An integrand may instead
be an object with methods values(x), from_left(d), from_right(d) where d is
the distance to the corresponding interval endpoint; the offset form is what
the singular transform calls, so objects that evaluate stably from an
endpoint offset (see expr.BoundaryEvaluator.near) keep full accuracy at
offsets far below machine epsilon.  Plain callables fall back to f(a + d) /
f(b - d), with the transform depth capped near roundoff of the endpoint and
the unreachable tail folded into the error estimate.

Each integrator is a step generator: it yields requests (fn, points), fn
a method of the integrand, and receives fn(points).  integrate and
integrate_piecewise serve them one at a time (_drive); hardy._circle_means
serves many generators at once.  Sibling panels (the halves of a bisection,
or all initial panels) share one request; each panel's sums still use only
its own samples.  Requests repeat their panels from radius to radius and
norm to norm, so each distinct request's node table is built once (_nodes)
and shared read-only; a plain callable receives a copy of its nodes.
"""
from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from math import fsum
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "QuadConfig", "QuadResult", "QuadError", "NonFiniteSampleError",
    "integrate", "integrate_piecewise",
]

_EPS = np.finfo(float).eps

# Gauss-Kronrod 7/15: (|node|, Kronrod weight, Gauss weight or 0)
_GK_DATA = (
    (0.991455371120813, 0.022935322010529, 0.0),
    (0.949107912342759, 0.063092092629979, 0.129484966168870),
    (0.864864423359769, 0.104790010322250, 0.0),
    (0.741531185599394, 0.140653259715525, 0.279705391489277),
    (0.586087235467691, 0.169004726639267, 0.0),
    (0.405845151377397, 0.190350578064785, 0.381830050505119),
    (0.207784955007898, 0.204432940075298, 0.0),
    (0.0,               0.209482141084728, 0.417959183673469),
)

_GK_X = np.array([-d[0] for d in _GK_DATA[:-1]] +
                 [0.0] + [d[0] for d in reversed(_GK_DATA[:-1])])
_GK_WK = np.array([d[1] for d in _GK_DATA[:-1]] +
                  [_GK_DATA[-1][1]] + [d[1] for d in reversed(_GK_DATA[:-1])])
_GK_WG = np.array([d[2] for d in _GK_DATA[:-1]] +
                  [_GK_DATA[-1][2]] + [d[2] for d in reversed(_GK_DATA[:-1])])

_SAFETY = 4.0
_W_MAX = 6.5          # exp(-2 sinh 6.5) ~ 1.2e-289, safely above underflow
_NODE_TABLES = 4096     # node tables kept by _nodes, least recently used out


class QuadError(ValueError):
    pass


class NonFiniteSampleError(QuadError):
    """The integral blew up: its sample at x came back nan or inf."""

    def __init__(self, message: str, x: float):
        super().__init__(message)
        self.x = x


@dataclass(frozen=True)
class QuadConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_evaluations: int = 2_000_000
    singular_left: bool = False
    singular_right: bool = False

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if not (self.rel_tol >= 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be nonnegative, got {self.rel_tol}")
        if self.max_evaluations < 100:
            raise ValueError("max_evaluations must be at least 100")


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_err_est: float
    evaluations: int
    converged: bool


class _CallableIntegrand:
    deep_left = False
    deep_right = False
    offset_blowup = None

    def __init__(self, f, a: float, b: float):
        self._f = f
        self._a = a
        self._b = b
        self._vectorized = None

    def _call(self, x):
        if self._vectorized is None:
            try:
                y = np.asarray(self._f(x), dtype=float)
                if y.shape != x.shape:
                    raise ValueError
                self._vectorized = True
                return y
            except (TypeError, ValueError):
                self._vectorized = False
        if self._vectorized:
            return self._f(x)
        return np.array([self._f(float(xi)) for xi in x], dtype=float)

    def values(self, x):
        return self._call(x.copy())     # x is a shared node table

    def from_left(self, d):
        return self._call(self._a + d)

    def from_right(self, d):
        return self._call(self._b - d)


def _as_integrand(f, a: float, b: float):
    if hasattr(f, "values") and hasattr(f, "from_left") and hasattr(f, "from_right"):
        return f
    if not callable(f):
        raise TypeError("integrand must be callable or provide "
                        "values/from_left/from_right")
    return _CallableIntegrand(f, a, b)


@functools.lru_cache(maxsize=_NODE_TABLES)
def _nodes(bounds: tuple, L: float):
    """Read-only node table (halves, x, points, weights) of one request of
    (lo, hi) panels: half-widths, Kronrod nodes x, the points sampled (x,
    or with L > 0 the offsets L*exp(-2 sinh x)) and the weights dd/dx
    (None when L == 0)."""
    halves = tuple(0.5 * (hi - lo) for lo, hi in bounds)
    x = np.concatenate([0.5 * (lo + hi) + h2 * _GK_X
                        for (lo, hi), h2 in zip(bounds, halves)])
    points, weights = x, None
    if L:
        ph = np.exp(-2.0 * np.sinh(x))
        points, weights = L * ph, 2.0 * L * np.cosh(x) * ph
        points.flags.writeable = weights.flags.writeable = False
    x.flags.writeable = False
    return halves, x, points, weights


def _panels(fn, bounds: Sequence[tuple[float, float]], L: float = 0.0):
    """Step generator of the (value, error) of each (lo, hi) panel from one
    request of fn at all of their nodes, each panel summing its own 15
    samples.  With L > 0 the panels lie in the double-exponential variable
    w: fn is sampled at the offsets L*exp(-2 sinh w), weighted by dd/dw."""
    halves, x, points, weights = _nodes(tuple(bounds), L)
    y = np.asarray((yield fn, points), dtype=float)
    if y.shape != x.shape:
        raise QuadError(f"expected {x.size} samples, one per node, got {y.size}")
    if L:
        y = y * weights
    finite = np.isfinite(y)
    if not finite.all():
        xb = float(x[~finite][0])
        raise NonFiniteSampleError(f"non-finite sample at interior node {xb}", xb)
    out = []
    for i, h2 in enumerate(halves):
        yi = y[15 * i:15 * i + 15]
        vk = h2 * float(_GK_WK.dot(yi))
        vg = h2 * float(_GK_WG.dot(yi))
        out.append((vk, _SAFETY * abs(vk - vg)))
    return out


def _answer(steps, fn, x):
    """Serve the request (fn, x) of steps by fn(x), raising its exception
    where the request was made; returns the next request of steps."""
    try:
        y = fn(x)
    except Exception as ex:
        return steps.throw(ex)
    return steps.send(y)


def _drive(steps):
    """Run a step generator to its result, one request at a time."""
    try:
        request = next(steps)
        while True:
            request = _answer(steps, *request)
    except StopIteration as stop:
        return stop.value


def _panel(F, bounds: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """(value, error) of each (lo, hi) panel from one call of F."""
    return _drive(_panels(F, bounds))


def _adaptive(fn, edges: Sequence[float], abs_tol: float, rel_tol: float,
              budget: int, L: float = 0.0):
    """Step generator of largest-error-first bisection over the initial
    panels given by edges, sampled by _panels(fn, ..., L).

    Returns (value, err, evaluations, converged, panels) with panels a list
    of (lo, hi, value, err) sorted by lo.
    """
    heap: list = []
    done: list = []
    bounds = list(zip(edges[:-1], edges[1:]))
    sums = yield from _panels(fn, bounds, L)
    for seq, ((lo, hi), (v, e)) in enumerate(zip(bounds, sums)):
        heapq.heappush(heap, (-e, seq, lo, hi, v, e))
    seq = len(bounds)
    evals = 15 * len(bounds)
    total_v = fsum(item[4] for item in heap)
    total_e = fsum(item[5] for item in heap)

    while (total_e > max(abs_tol, rel_tol * abs(total_v))
           and evals + 30 <= budget and heap):
        ne, _, lo, hi, v, e = heapq.heappop(heap)
        if e <= 0.0:
            done.append((lo, hi, v, e))
            break
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            # interval at floating-point resolution; freeze it
            done.append((lo, hi, v, e))
            continue
        (v1, e1), (v2, e2) = yield from _panels(fn, [(lo, mid), (mid, hi)], L)
        evals += 30
        total_v += (v1 + v2) - v
        total_e += (e1 + e2) - e
        heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2, e2))
        seq += 2

    panels = done + [(lo, hi, v, e) for (_, _, lo, hi, v, e) in heap]
    panels.sort(key=lambda t: t[0])
    value = fsum(t[2] for t in panels)
    err = fsum(t[3] for t in panels)
    converged = err <= max(abs_tol, rel_tol * abs(value))
    return value, err, evals, converged, panels


def _singular_side(intg, lo: float, hi: float, side: str, abs_tol: float,
                   rel_tol: float, budget: int):
    """Step generator integrating [lo, hi] with the singular endpoint on
    the given side."""
    L = hi - lo
    deep = getattr(intg, "deep_" + side, False)
    endpoint = lo if side == "left" else hi
    eval_off = getattr(intg, "from_" + side)

    floor = 0.0 if deep else 64.0 * _EPS * abs(endpoint)
    s_max = getattr(intg, "offset_blowup", None)
    if s_max is not None and s_max > 0.0:
        floor = max(floor, 10.0 ** (-280.0 / s_max))
    if floor > 0.0 and floor < L:
        W = min(_W_MAX, math.asinh(math.log(L / floor) / 2.0))
    elif floor >= L:
        W = 0.0
    else:
        W = _W_MAX

    if W < 0.5:
        # too shallow for the transform to help; plain refinement
        h = L / 3.0
        return (yield from _adaptive(intg.values, [lo, lo + h, lo + 2 * h, hi],
                                     abs_tol, rel_tol, budget))[:4]

    blockw = min(1.0, W / 3.0)
    edges = sorted({0.0, W - 3.0 * blockw, W - 2.0 * blockw, W - blockw, W})
    value, err, evals, converged, panels = yield from _adaptive(
        eval_off, edges, abs_tol, rel_tol, budget, L)

    # integrands that flatten below a known offset scale (circle integrals
    # at radius 1-gap flatten at ~gap) admit a direct bound on the
    # untransformed remainder; otherwise extrapolate the block decay
    dmin = L * math.exp(-2.0 * math.sinh(W))
    flat = getattr(intg, "flat_below", 0.0) or 0.0
    tail = None
    if flat > 0.0 and dmin <= flat:
        try:
            y_end = float(np.asarray((yield eval_off, np.array([dmin])),
                                     dtype=float)[0])
            evals += 1
            tail, ok = _SAFETY * abs(y_end) * dmin, True
        except NonFiniteSampleError:
            tail = None
    if tail is None:
        tail, ok = _tail_estimate(panels, W, blockw, abs_tol, abs(value))
    err += tail
    converged = (converged and ok and
                 err <= max(abs_tol, rel_tol * abs(value)))
    return value, err, evals, converged


def _tail_estimate(panels, W: float, blockw: float, abs_tol: float,
                   scale: float) -> tuple[float, bool]:
    """Truncation-tail bound from the last three w-blocks of the transform.

    Under x = L*exp(-2 sinh w) a power-law singularity gives block sums whose
    log-decrements grow by a fixed factor per block; extrapolating that
    growth reproduces the remaining tail to within a small factor.  Block
    sums that fail to decay signal a non-integrable endpoint; the tail is
    then uncontrolled and convergence is withdrawn.
    """
    def block(j: int) -> float:
        lo_cut = W - (j + 1) * blockw
        hi_cut = W - j * blockw
        return fsum(v for (plo, phi, v, e) in panels
                    if lo_cut - 1e-12 <= plo < hi_cut - 1e-12)

    s0, s1, s2 = abs(block(0)), abs(block(1)), abs(block(2))
    if s0 <= max(1e-3 * abs_tol, 1e-16 * max(scale, abs_tol)):
        return 0.0, True
    if s0 >= 0.95 * s1 or s1 == 0.0:
        # not decaying toward the endpoint: truncated part uncontrolled
        return 20.0 * s0, False
    d1 = math.log(s1 / s0)
    if s2 > s1 > 0.0:
        d2 = math.log(s2 / s1)
        accel = d1 / d2 if d2 > 0.0 else 1.0
    else:
        accel = 1.0
    if accel > 1.05:
        # log-decrements grow by `accel` per block; next block sum is about
        # s0*exp(-d1*accel), and the factor-4 safety absorbs the remainder
        return _SAFETY * s0 * math.exp(-min(d1 * accel, 700.0)), True
    rho = math.exp(-d1)
    return s0 * rho / (1.0 - rho), True


def _integrate(f, a: float, b: float, cfg: Optional[QuadConfig] = None):
    """Step generator of integrate."""
    cfg = cfg or QuadConfig()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    intg = _as_integrand(f, a, b)

    if not cfg.singular_left and not cfg.singular_right:
        h = (b - a) / 3.0
        value, err, evals, converged, _ = yield from _adaptive(
            intg.values, [a, a + h, a + 2.0 * h, b],
            cfg.abs_tol, cfg.rel_tol, cfg.max_evaluations)
    elif cfg.singular_left and cfg.singular_right:
        m = 0.5 * (a + b)
        v1, e1, n1, c1 = yield from _singular_side(
            intg, a, m, "left", 0.5 * cfg.abs_tol, cfg.rel_tol,
            cfg.max_evaluations // 2)
        v2, e2, n2, c2 = yield from _singular_side(
            intg, m, b, "right", 0.5 * cfg.abs_tol, cfg.rel_tol,
            cfg.max_evaluations // 2)
        value, err, evals = v1 + v2, e1 + e2, n1 + n2
        converged = (c1 and c2 and
                     err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)))
    else:
        side = "left" if cfg.singular_left else "right"
        value, err, evals, converged = yield from _singular_side(
            intg, a, b, side, cfg.abs_tol, cfg.rel_tol, cfg.max_evaluations)

    return QuadResult(float(value), float(err), int(evals), bool(converged))


def integrate(f, a: float, b: float, cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Integrate f over [a, b] under cfg; see the module docstring."""
    return _drive(_integrate(f, a, b, cfg))


def _integrate_piecewise(f, breakpoints: Sequence[float],
                         cfg: Optional[QuadConfig] = None):
    """Step generator of integrate_piecewise."""
    cfg = cfg or QuadConfig()
    bps = [float(t) for t in breakpoints]
    if len(bps) < 2:
        raise ValueError("breakpoints must include both interval endpoints")
    for t0, t1 in zip(bps[:-1], bps[1:]):
        if not t0 < t1:
            raise ValueError("breakpoints must be strictly increasing")
    n = len(bps) - 1
    sub_budget = max(cfg.max_evaluations // n, 300)
    results = []
    for i in range(n):
        sub = QuadConfig(abs_tol=cfg.abs_tol / n, rel_tol=cfg.rel_tol,
                         max_evaluations=sub_budget,
                         singular_left=cfg.singular_left and i == 0,
                         singular_right=cfg.singular_right and i == n - 1)
        results.append((yield from _integrate(f, bps[i], bps[i + 1], sub)))
    value = fsum(r.value for r in results)
    err = fsum(r.abs_err_est for r in results)
    evals = sum(r.evaluations for r in results)
    converged = (all(r.converged for r in results) and
                 err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)))
    return QuadResult(float(value), float(err), int(evals), bool(converged))


def integrate_piecewise(f, breakpoints: Sequence[float],
                        cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Integrate over [breakpoints[0], breakpoints[-1]] split at the interior
    breakpoints.

    The config's singular flags apply to the outer endpoints of the overall
    range; interior breakpoints are plain splits.  The error estimate is the
    sum of the piece estimates.
    """
    return _drive(_integrate_piecewise(f, breakpoints, cfg))
