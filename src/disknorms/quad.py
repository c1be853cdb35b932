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

An integral is planned as data: _pieces and _sides give its pieces and
their sides, (lo, hi, side, tolerances, budget) each.  A single integral
bisects each side by heap (_singular_side), one request (fn, points) at a
time, fn a method of the integrand; sibling panels (the halves of the
panels one step bisects, or all initial panels) share one request, and
each panel's sums use only its own samples.  A step bisects the
largest-error panel and, up to the integrand's batch, the next ones while
the error not yet taken is at least tol/8 (_adaptive).  Each distinct
request's node table is built once (_nodes) and shared read-only; a plain
callable receives a copy of it.  _bisect runs bisections that share one
arg by heap, one panel a step, and those of several at once (_rounds),
with their panels in arrays, each in the heap's order and arithmetic, so
bit for bit as the heap runs it, provided the samples reach the stacked
sums (_sums) as a fresh C-contiguous array: numpy sums a stride-0
broadcast, such as a constant integrand returns, in another order; the
one-sample tails ride in the first round's requests.  When that raises,
it runs each alone by heap in its turn, so each fails as it would alone.
_finish_side adds each side's tail and checks its convergence, for the
rounds in arrays (_finish_sides, a _Rows), and _total sums the sides,
pieces and means and checks theirs.
"""
from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass
from math import fsum
from typing import NamedTuple, Optional, Sequence

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
        if not 100 <= self.max_evaluations < math.inf:
            raise ValueError("max_evaluations must be finite and at least 100")


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_err_est: float
    evaluations: int
    converged: bool


class _CallableIntegrand:
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


def _node_arrays(lo, hi, L):
    """Half-widths, Kronrod nodes x (a row per panel), points and weights
    of the (lo, hi) panels: for L > 0 the offsets L*exp(-2 sinh x) and
    dd/dx, for L = 0 x and 1 (None if every panel is plain)."""
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _GK_X
    de = L > 0.0
    if not de.any():
        return h, x, x, None
    xd, Ld = (x, L[:, None]) if de.all() else (x[de], L[de, None])
    ph = np.exp(-2.0 * np.sinh(xd))
    points, weights = Ld * ph, 2.0 * Ld * np.cosh(xd) * ph
    if de.all():
        return h, x, points, weights
    mixed = x.copy(), np.ones_like(x)
    mixed[0][de], mixed[1][de] = points, weights
    return (h, x, *mixed)


@functools.lru_cache(maxsize=_NODE_TABLES)
def _nodes(bounds: tuple, L: float):
    """Read-only _node_arrays of one request of (lo, hi) panels, with the
    half-widths as floats."""
    lo, hi = np.array(bounds, dtype=float).T
    halves, *arrays = _node_arrays(lo, hi, np.full(len(bounds), float(L)))
    for a in arrays:
        if a is not None:
            a.flags.writeable = False
    return halves.tolist(), *arrays


def _samples(y, x, weights=None):
    """The samples y at the nodes x (a row per panel) times the weights;
    raises on a wrong count and at the first non-finite one."""
    y = np.asarray(y, dtype=float)
    if y.shape != (x.size,):
        raise QuadError(f"expected {x.size} samples, one per node, got {y.size}")
    y = y.reshape(x.shape) if weights is None else y.reshape(x.shape) * weights
    finite = np.isfinite(y)
    if not finite.all():
        xb = float(x[~finite][0])
        raise NonFiniteSampleError(f"non-finite sample at interior node {xb}", xb)
    return y


def _sums(y, h):
    """(value, error) of the panels of weighted samples y (a row each) and
    half-widths h: a stacked matmul runs numpy's dot once per row, where a
    matrix-vector product would change the last bits."""
    vk = h * np.matmul(y[:, None, :], _GK_WK[:, None])[:, 0, 0]
    vg = h * np.matmul(y[:, None, :], _GK_WG[:, None])[:, 0, 0]
    return vk, _SAFETY * np.abs(vk - vg)


def _panel(fn, bounds: Sequence[tuple[float, float]], L: float = 0.0):
    """(value, error) of each (lo, hi) panel of scale L (see _node_arrays)
    from one call of fn at all of their nodes, each summed by ndarray.dot,
    as _sums sums it."""
    halves, x, points, weights = _nodes(tuple(bounds), L)
    out = []
    for yi, h2 in zip(_samples(fn(points.ravel()), x, weights), halves):
        vk = h2 * float(_GK_WK.dot(yi))
        vg = h2 * float(_GK_WG.dot(yi))
        out.append((vk, _SAFETY * abs(vk - vg)))
    return out


@dataclass(frozen=True)
class _Plan:
    """One bisection; L > 0 for a singular side of depth W (_side_plan)."""
    method: str
    edges: tuple
    abs_tol: float
    rel_tol: float
    budget: int
    L: float = 0.0
    W: float = 0.0
    tail_at: Optional[float] = None


def _adaptive(fn, plan: _Plan, batch: int = 1):
    """[(value, err, evaluations, leaf panels), tail sample] of
    largest-error-first bisection of plan, by heap, as _rounds for batch 1.
    Each step bisects the largest-error panel and, in heap order, up to
    batch - 1 more, taken while the errors taken sum to at most total_e -
    tol/8 (scipy.integrate.quad_vec's rule) and the budget allows, all
    halves in one request; a panel of no error or at floating-point
    resolution ends the batch, and the next step takes it alone."""
    abs_tol, rel_tol, budget = plan.abs_tol, plan.rel_tol, plan.budget
    heap: list = []
    done: list = []
    bounds = list(zip(plan.edges[:-1], plan.edges[1:]))
    sums = _panel(fn, bounds, plan.L)
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
        step, halves, err = [(lo, mid, hi, v, e)], [(lo, mid), (mid, hi)], e
        while (len(step) < batch and heap
               and err <= total_e - max(abs_tol, rel_tol * abs(total_v)) / 8
               and evals + 30 * (len(step) + 1) <= budget):
            _, _, lo, hi, v, e = heap[0]
            mid = 0.5 * (lo + hi)
            if e <= 0.0 or not (lo < mid < hi):
                break
            heapq.heappop(heap)
            step.append((lo, mid, hi, v, e))
            halves += [(lo, mid), (mid, hi)]
            err += e
        evals += 15 * len(halves)
        sums = iter(_panel(fn, halves, plan.L))     # read in pairs of halves
        for (lo, mid, hi, v, e), (v1, e1), (v2, e2) in zip(step, sums, sums):
            total_v += (v1 + v2) - v
            total_e += (e1 + e2) - e
            heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1))
            heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2, e2))
            seq += 2

    panels = done + [(lo, hi, v, e) for (_, _, lo, hi, v, e) in heap]
    try:
        y_end = None if plan.tail_at is None else float(
            np.asarray(fn(np.array([plan.tail_at])), dtype=float)[0])
    except NonFiniteSampleError:
        y_end = None
    return [(fsum(t[2] for t in panels), fsum(t[3] for t in panels), evals,
             panels), y_end]


def _bisect(owners):
    """The _finish_side of each of owners, (fn, arg, plan) each, in order,
    as an iterator: alone (_alone) when they share one arg, as one integral
    runs, each finished as it is read; else at once by _rounds, finished
    in arrays (_finish_sides), a _Rows; and when _rounds raises anything,
    each alone in its turn, failing as it would alone."""
    if len({arg for _, arg, _ in owners}) > 1:
        try:
            done = _rounds(owners)
        except Exception:
            pass                    # the owners run alone
        else:
            return _finish_sides([plan for _, _, plan in owners], done)
    return (_finish_side(plan, *_alone(fn, arg, plan))
            for fn, arg, plan in owners)


def _alone(fn, arg, plan: _Plan):
    """The _adaptive of one of _bisect's owners, fn(points, arg)."""
    return _adaptive(lambda x: fn(x, arg), plan)


class _Bisected(NamedTuple):
    """What _rounds gives of its owners, an array each in owner order:
    value and err (one fsum each), evaluations and the tail sample (0.0
    with no tail_at); and panels, the leaf panels, (lo, hi, value, err)
    each, of each owner whose tail is extrapolated, by owner index, the
    only ones _finish_side reads."""
    value: np.ndarray
    err: np.ndarray
    evals: np.ndarray
    y_end: np.ndarray
    panels: dict


class _Rows:
    """Rows of (value, err, evaluations, converged), an array per field in
    row order, read as an iterator of tuples of Python numbers, as
    _finish_side and _total give them."""

    def __init__(self, value, err, evals, converged):
        self.value, self.err = value, err
        self.evals, self.converged = evals, converged
        self._rows = None

    def __iter__(self):
        return self

    def __next__(self):
        if self._rows is None:
            self._rows = zip(self.value.tolist(), self.err.tolist(),
                             self.evals.tolist(), self.converged.tolist())
        return next(self._rows)


def _places(keys) -> tuple:
    """(the distinct keys in first-seen order, an array of each key's place
    among them)."""
    distinct = dict.fromkeys(keys)
    place = dict(zip(distinct, range(len(distinct))))
    return list(distinct), np.fromiter(map(place.__getitem__, keys),
                                       dtype=int, count=len(keys))


def _table(plans, fields):
    """The fields(plan) of each of plans, a row each, None read as and
    short rows padded with nan, worked out once per distinct plan (by
    identity): few plans serve many owners."""
    ids = list(map(id, plans))
    distinct, row = _places(ids)
    by_id = dict(zip(ids, plans))
    rows = [[math.nan if v is None else v for v in fields(by_id[i])]
            for i in distinct]
    width = max(map(len, rows), default=0)
    return np.array([r + [math.nan] * (width - len(r)) for r in rows],
                    dtype=float).reshape(-1, width)[row]


def _rounds(owners) -> _Bisected:
    """Run the bisections of owners, (fn, arg, plan) each, as _adaptive
    runs each alone, all at once in rounds.  A round takes every running
    owner's largest-error panel (ties to the lowest seq, as the heap) and
    samples all halves with one call fn(points, args) per fn, args the
    points' owners' args; the first round's calls also take each
    plan.tail_at, whose sample is not checked.  Each field of the panels
    is one flat array, a row of slots per owner in seq order.  Returns
    their _Bisected, value and err by fsum (correctly rounded, so in any
    order); the first exception of a call, a _samples check or an fsum
    propagates."""
    n, (fns, args, plans) = len(owners), zip(*owners)
    fns, group = _places(fns)
    args, plans = np.array(args, dtype=float), list(plans)
    cols = _table(plans, lambda p: (
        p.abs_tol, p.rel_tol, p.budget - 30, p.L, p.tail_at,
        len(p.edges) - 1, *p.edges))
    atol, rtol, room, L, tail_at = cols[:, :5].T
    k = cols[:, 5].astype(int)
    ends = np.flatnonzero(~np.isnan(tail_at))

    def call(own, points, x, w, ends=ends[:0]):
        """The samples at points (a row per entry of own), weighted and
        checked (_samples) at nodes x, copied into a fresh C-contiguous
        array (the stacked matmul of _sums sums a stride-0 one in another
        order), and, unchecked, those at the tail_at of the owners ends:
        one call per fn with rows (a sole fn takes them all, unmasked), none
        for no rows."""
        y, m, t = np.empty_like(points), points.shape[1], np.empty(ends.size)
        for g, r, s in ([(0, slice(None), slice(None))]
                        if len(fns) == 1 and own.size
                        else [(g, group[own] == g, group[ends] == g)
                              for g in np.unique(group[own]).tolist()]):
            at, a = points[r].ravel(), np.repeat(args[own[r]], m)
            if ends.size:
                at = np.concatenate([at, tail_at[ends[s]]])
                a = np.concatenate([a, args[ends[s]]])
            out = np.asarray(fns[g](at, a), dtype=float)
            if out.shape != at.shape:
                raise QuadError(f"expected {at.size} samples, one per "
                                f"point, got {out.size}")
            size = x[r].size
            y[r] = _samples(out[:size], x[r], None if w is None else w[r])
            t[s] = out[size:]
        return y, t

    width, start = max(16, int(k.max(initial=0))), np.cumsum(k) - k
    own = np.repeat(np.arange(n), k)
    slot = np.arange(cols.shape[1] - 7) < k[:, None]
    lo, hi = cols[:, 6:-1][slot], cols[:, 7:][slot]
    h, x, points, w = _node_arrays(lo, hi, L[own])
    y, t = call(own, points, x, w, ends)
    v, e = _sums(y, h)
    y_end = np.zeros(n)
    y_end[ends] = t
    # lo (nan: no leaf), hi, value, error and key (the error of a live panel)
    fills = (np.nan, 0.0, 0.0, 0.0, -np.inf)
    P = [np.full(n * width, fill) for fill in fills]
    c = own * width + np.arange(own.size) - np.repeat(start, k)
    for a, z in zip(P, (lo, hi, v, e, e)):
        a[c] = z
    tv, te = _fsums(v, e, start.tolist(), (start + k).tolist())
    npan = k.copy()                 # an owner's evaluations are 15 * npan

    o = np.arange(n)                # the running owners
    while True:
        plo, phi, pv, pe, key = P
        o = o[(te[o] > np.fmax(atol[o], rtol[o] * np.abs(tv[o])))
              & (15 * npan[o] <= room[o])]
        if not o.size:
            break
        f = o * width + key.reshape(n, width)[o].argmax(axis=1)
        lo, hi, ek = plo[f], phi[f], key[f]
        mid = 0.5 * (lo + hi)
        stop = ek <= 0.0                # no panel left, or no error
        take = ~stop & (lo < mid) & (mid < hi)
        running = o
        if not take.all():
            # a panel at floating-point resolution freezes; the next round
            # takes the owner's next largest, as the heap does at once
            key[f[~stop & ~take]] = -np.inf
            running = o[~stop]
            o, f, lo, mid, hi = o[take], f[take], lo[take], mid[take], hi[take]
        lo2, hi2 = np.empty(2 * o.size), np.empty(2 * o.size)
        lo2[0::2], lo2[1::2], hi2[0::2], hi2[1::2] = lo, mid, mid, hi
        own = np.repeat(o, 2)
        h, x, points, w = _node_arrays(lo2, hi2, L[own])
        v, e = _sums(call(own, points, x, w)[0], h)
        tv[o] += (v[0::2] + v[1::2]) - pv[f]
        te[o] += (e[0::2] + e[1::2]) - pe[f]
        plo[f], key[f] = np.nan, -np.inf
        s = npan[o]
        npan[o] = s + 2
        if s.max(initial=0) + 2 > width:
            P = [np.hstack([a.reshape(n, width), np.full((n, width), fill)])
                 .ravel() for a, fill in zip(P, fills)]
            width *= 2
        c = np.repeat(o * width + s, 2)
        c[1::2] += 1
        for a, z in zip(P, (lo2, hi2, v, e, e)):
            a[c] = z
        o = running

    plo, phi, pv, pe = (a.reshape(n, width) for a in P[:4])
    leaf = ~np.isnan(plo)
    end = np.cumsum(leaf.sum(axis=1)).tolist()
    v, e, starts = pv[leaf], pe[leaf], [0, *end[:-1]]
    panels = {j: list(zip(plo[j, leaf[j]].tolist(), phi[j, leaf[j]].tolist(),
                          v[starts[j]:end[j]].tolist(),
                          e[starts[j]:end[j]].tolist()))
              for j in np.flatnonzero((L > 0.0) & np.isnan(tail_at)).tolist()}
    return _Bisected(*_fsums(v, e, starts, end), 15 * npan, y_end, panels)


def _fsums(v, e, starts, ends):
    """The fsum of v, and of e, over each slice [start, end), as arrays."""
    bounds = list(map(slice, starts, ends))
    return [np.fromiter(map(fsum, map(a.tolist().__getitem__, bounds)),
                        dtype=float, count=len(bounds)) for a in (v, e)]


def _finish_sides(plans, done: _Bisected) -> _Rows:
    """The _finish_side of each of plans from done, their _rounds, in
    arrays: a sampled tail adds its bound and one evaluation, an
    extrapolated one its _tail_estimate, side by side, and each side is
    checked against its plan; in numpy as Python floats, quietly."""
    atol, rtol, tail_at = _table(plans, lambda p: (
        p.abs_tol, p.rel_tol, p.tail_at)).T
    tailed = ~np.isnan(tail_at)
    value, ok = done.value, np.ones(len(plans), dtype=bool)
    with np.errstate(all="ignore"):
        err = np.where(tailed, done.err + _SAFETY * np.abs(done.y_end)
                       * tail_at, done.err)
        for j, panels in done.panels.items():
            tail, ok[j] = _tail_estimate(panels, plans[j].W,
                                         plans[j].abs_tol, abs(value[j]))
            err[j] += tail
        return _Rows(value, err, done.evals + tailed,
                     ok & (err <= np.fmax(atol, rtol * np.abs(value))))


def _side_plan(intg, lo: float, hi: float, side: Optional[str],
               abs_tol: float, rel_tol: float, budget: int) -> _Plan:
    """The _Plan of [lo, hi] with its singular endpoint on side, "left" or
    "right"; plain for side None or a transform too shallow to help."""
    L = hi - lo
    W = 0.0
    if side is not None:
        deep = getattr(intg, "deep_" + side, False)
        endpoint = lo if side == "left" else hi
        floor = 0.0 if deep else 64.0 * _EPS * abs(endpoint)
        s_max = getattr(intg, "offset_blowup", None)
        if s_max is not None and s_max > 0.0:
            floor = max(floor, 10.0 ** (-280.0 / s_max))
        if floor > 0.0 and floor < L:
            W = min(_W_MAX, math.asinh(math.log(L / floor) / 2.0))
        elif floor <= 0.0:
            W = _W_MAX
    if W < 0.5:
        h = L / 3.0
        return _Plan("values", (lo, lo + h, lo + 2.0 * h, hi), abs_tol,
                     rel_tol, budget)
    blockw = min(1.0, W / 3.0)
    edges = tuple(sorted({0.0, W - 3.0 * blockw, W - 2.0 * blockw,
                          W - blockw, W}))
    return _Plan("from_" + side, edges, abs_tol, rel_tol, budget, L, W,
                 _tail_at(intg, L, W))


def _tail_at(intg, L: float, W: float) -> Optional[float]:
    """The deepest offset of a singular side of length L and depth W, when
    intg flattens below it (flat_below; a circle at radius 1 - gap flattens
    at ~gap), where one sample bounds the untransformed tail; else None, and
    the tail is extrapolated from the block decay.  It is the only part of
    a _side_plan that flat_below moves."""
    dmin = L * math.exp(-2.0 * math.sinh(W))
    flat = getattr(intg, "flat_below", 0.0) or 0.0
    return dmin if flat > 0.0 and dmin <= flat else None


def _singular_side(intg, *side):
    """(value, err, evaluations, converged) of the _side_plan of a side
    (_sides) run alone by heap (_finish_side)."""
    plan = _side_plan(intg, *side)
    return _finish_side(plan, *_adaptive(getattr(intg, plan.method), plan,
                                         getattr(intg, "batch", 1)))


def _finish_side(plan: _Plan, result, y_end: Optional[float]):
    """(value, err, evaluations, converged) of a side from its plan, the
    (value, err, evaluations, leaf panels) of its bisection (by heap or by
    _rounds) and, for a singular side, its tail sample y_end, which, when
    None (none, or blown up), is extrapolated from the panels."""
    value, err, evals, panels = result
    ok = True
    if plan.L and y_end is not None:
        evals += 1
        err += _SAFETY * abs(y_end) * plan.tail_at
    elif plan.L:
        tail, ok = _tail_estimate(panels, plan.W, plan.abs_tol, abs(value))
        err += tail
    return value, err, evals, ok and err <= max(plan.abs_tol,
                                                plan.rel_tol * abs(value))


def _tail_estimate(panels, W: float, abs_tol: float,
                   scale: float) -> tuple[float, bool]:
    """Truncation-tail bound from the last three w-blocks of the transform.

    Under x = L*exp(-2 sinh w) a power-law singularity gives block sums whose
    log-decrements grow by a fixed factor per block; extrapolating that
    growth reproduces the remaining tail to within a small factor.  Block
    sums that fail to decay signal a non-integrable endpoint; the tail is
    then uncontrolled and convergence is withdrawn.
    """
    blockw = min(1.0, W / 3.0)          # as _side_plan cuts the blocks

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


def _sides(a: float, b: float, cfg: QuadConfig) -> list:
    """The sides of [a, b] under cfg as _side_plan takes them, (lo, hi,
    side, abs_tol, rel_tol, budget) each: [a, b], or its halves with half
    of abs_tol and of the budget (rounded down) when cfg flags both ends."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if not math.isfinite(abs(a) + abs(b)):   # bounds b - a and a + b
        raise ValueError(f"interval too wide, |a| + |b| overflows: [{a}, {b}]")
    if cfg.singular_left and cfg.singular_right:
        m = 0.5 * (a + b)
        half = (0.5 * cfg.abs_tol, cfg.rel_tol, cfg.max_evaluations // 2)
        return [(a, m, "left", *half), (m, b, "right", *half)]
    side = ("left" if cfg.singular_left else
            "right" if cfg.singular_right else None)
    return [(a, b, side, cfg.abs_tol, cfg.rel_tol, cfg.max_evaluations)]


def _pieces(breakpoints: Sequence[float], cfg: QuadConfig) -> list:
    """The pieces of the breakpoints under cfg, (QuadConfig, _sides) each:
    each of n pieces has abs_tol / n and the budget / n, at least 300, and
    cfg's singular flags apply to the outer ends only."""
    bps = [float(t) for t in breakpoints]
    if len(bps) < 2:
        raise ValueError("breakpoints must include both interval endpoints")
    if not all(t0 < t1 for t0, t1 in zip(bps, bps[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    n = len(bps) - 1
    subs = [QuadConfig(abs_tol=cfg.abs_tol / n, rel_tol=cfg.rel_tol,
                       max_evaluations=max(cfg.max_evaluations // n, 300),
                       singular_left=cfg.singular_left and i == 0,
                       singular_right=cfg.singular_right and i == n - 1)
            for i in range(n)]
    return [(sub, _sides(lo, hi, sub)) for sub, lo, hi in zip(subs, bps, bps[1:])]


# the sides of one piece add by +: an overflow gives inf, where fsum raises
_plus = functools.partial(functools.reduce, operator.add)


def _total(parts, cfg: QuadConfig, add=fsum, scale: float = 1.0):
    """(value, err, evaluations, converged) of parts, each such a tuple:
    values and errors summed by add, over scale, and checked against cfg."""
    values, errs, evals, convs = zip(*parts)
    # one part adds to itself: fsum moves only -0.0, and no part is -0.0
    value, err = ((values[0], errs[0]) if len(values) == 1
                  else (add(values), add(errs)))
    value, err = value / scale, err / scale
    converged = all(convs) and err <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return float(value), float(err), int(sum(evals)), bool(converged)


def _piecewise(pieces: list, cfg: QuadConfig, results):
    """The _total of pieces under cfg from results, their sides' in order."""
    return _total([_total([next(results) for _ in sides], sub, _plus)
                   for sub, sides in pieces], cfg)


def integrate(f, a: float, b: float, cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Integrate f over [a, b] under cfg; see the module docstring."""
    cfg = cfg or QuadConfig()
    sides = _sides(a, b, cfg)
    intg = _as_integrand(f, float(a), float(b))
    return QuadResult(*_total([_singular_side(intg, *side) for side in sides],
                              cfg, _plus))


def integrate_piecewise(f, breakpoints: Sequence[float],
                        cfg: Optional[QuadConfig] = None) -> QuadResult:
    """Integrate f over [breakpoints[0], breakpoints[-1]] in pieces split at
    the interior breakpoints, plain joins, under cfg (see _pieces); the
    error estimate is the sum of the piece estimates."""
    cfg = cfg or QuadConfig()
    pieces = _pieces(breakpoints, cfg)
    intg = _as_integrand(f, float(breakpoints[0]), float(breakpoints[-1]))
    return QuadResult(*_piecewise(pieces, cfg, (
        _singular_side(intg, *side) for _, sides in pieces for side in sides)))
