"""Independent references used to cross-check library results.

Tiny integrators, deliberately primitive: fixed-step midpoint/trapezoid
rules and Riemann sums share no code (and no failure modes) with the
adaptive machinery under test.  Accuracy is controlled by brute-force step
counts, which is fine at test scale.

Exact sums by Parseval's identity: the A^2 norm of a polynomial from its
coefficients, and the H^p and A^p norms at every p of the paper's product
forms c z^m (1 + z^k)^plus (1 - z^k)^minus from a coefficient recurrence.
"""
import functools
import math
from math import fsum

import numpy as np


def circle_mean_p(f, p, r, n=4096):
    """(1/2pi) int |f(r e^{i t})|^p dt by the periodic trapezoid rule.

    Spectrally accurate for integrands smooth on the circle; keep r away
    from 1 when f has boundary singularities.
    """
    t = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    z = r * np.exp(1j * t)
    return float(np.mean(np.abs(f(z)) ** p))


def midpoint(f, a, b, n=2048):
    x = a + (b - a) * (np.arange(n) + 0.5) / n
    return float((b - a) * np.mean(f(x)))


def midpoint_richardson(f, a, b, n=512, levels=4):
    """Midpoint rule with Richardson extrapolation (smooth integrands)."""
    ests = [midpoint(f, a, b, n * 2 ** k) for k in range(levels)]
    # midpoint error ~ C h^2: one extrapolation order per level
    for order in range(1, levels):
        factor = 4.0 ** order
        ests = [(factor * b - a) / (factor - 1.0)
                for a, b in zip(ests, ests[1:])]
    return ests[0]


def disk_integral(F, nr=1500, nt=1500, grade=1.0):
    """(1/pi) int_D F(z) dA by a polar midpoint sum.

    grade > 1 clusters radial nodes toward |z| = 1 via r = u^(1/grade)
    with the Jacobian folded in; helps when F concentrates mass at the
    boundary.  Plain Riemann accuracy only -- use generous node counts
    and loose tolerances.
    """
    u = (np.arange(nr) + 0.5) / nr
    r = u ** (1.0 / grade)
    w = r * (u ** (1.0 / grade - 1.0) / grade) / nr  # r dr in the u variable
    t = 2.0 * math.pi * (np.arange(nt) + 0.5) / nt
    z = r[:, None] * np.exp(1j * t)[None, :]
    vals = F(z)
    return float(2.0 * np.sum(w[:, None] * vals) / nt)


def bergman_p2(coeffs):
    """||sum a_n z^n||_{A^2}^2 = sum |a_n|^2/(n+1), term for term."""
    return fsum(abs(complex(a)) ** 2 / (n + 1.0) for n, a in enumerate(coeffs))


def _squared_coefficients(a, b, terms):
    """|b_n|^2 for n < terms, where (1+w)^a (1-w)^(-b) = sum b_n w^n.

    The ODE (1-w^2) y' = ((a+b) + (b-a) w) y gives the recurrence
    (n+1) b_{n+1} = (a+b) b_n + (b-a+n-1) b_{n-1}.
    """
    out = [1.0] * terms
    s, d = a + b, b - a - 2.0
    prev, cur = 0.0, 1.0
    for n in range(1, terms):
        prev, cur = cur, (s * cur + (d + n) * prev) / n
        out[n] = cur * cur
    return out


def _is_int(x):
    return x == math.floor(x)


# terms in the first of the four partial sums; the accuracy and cost that
# ROADMAP item 8 records were measured at this count
_TERMS = 16384


def parseval_norm_p(space, p, c=1.0, m=0, k=1, plus=0.0, minus=0.0):
    """(||f||^p, error estimate) of f = c z^m (1 + z^k)^plus (1 - z^k)^minus
    in H^p (space "Hardy") or A^p ("Bergman"), k = 1 or 2.

    With h^{p/2} = sum b_j w^j, w = z^k, Parseval gives
    ||f||_{H^p}^p = |c|^p sum |b_j|^2 and
    ||f||_{A^p}^p = |c|^p sum |b_j|^2 / (kj + 1 + pm/2).
    The sums stop at N, 2N, 4N and 8N terms (N = _TERMS), and three
    Richardson steps remove the tail with its known exponents:
    |b_j|^2 ~ j^(2b-2) from the singularity of h^{p/2} at w = 1,
    j^(-2a-2) from w = -1, and their cross term (-1)^j j^(b-a-2), whose
    tail over an even cut-off is a power too,
    each with its 1/j corrections (a = p plus/2, b = -p minus/2).  The
    estimate is the size of the last step.  Where h^{p/2} has no singular
    point the sum is finite and exact.
    """
    value, err = _parseval_sum(space, p, m, k, 0.5 * p * plus,
                               -0.5 * p * minus)
    scale = abs(c) ** p
    return scale * value, scale * err


@functools.lru_cache(maxsize=None)
def _parseval_sum(space, p, m, k, a, b):
    """parseval_norm_p at c = 1, cached: the paper's f, g and f + g and
    their closed-form checks share sums."""
    shift = -1.0 if space == "Bergman" else 0.0
    at_one = not (b <= 0.0 and _is_int(b))
    at_minus_one = not (a >= 0.0 and _is_int(a))
    leading = ([2.0 * b - 1.0] * at_one + [-2.0 * a - 1.0] * at_minus_one
               + [b - a - 2.0] * (at_one and at_minus_one))
    exponents = sorted({e + shift - i for e in leading for i in range(3)},
                       reverse=True)[:3]
    if exponents and exponents[0] >= 0.0:
        raise ValueError(f"the {space} series diverges")
    # with no singular point h^{p/2} is a polynomial of degree a - b
    squares = _squared_coefficients(a, b, 8 * _TERMS if exponents else
                                    int(a - b) + 1)
    if space == "Bergman":
        squares = [s / (k * j + 1.0 + 0.5 * p * m)
                   for j, s in enumerate(squares)]
    sums = [fsum(squares[:_TERMS << i]) for i in range(4)]
    last = sums
    for e in exponents:
        r = 2.0 ** e
        last, sums = sums, [(y - r * x) / (1.0 - r)
                            for x, y in zip(sums, sums[1:])]
    return sums[-1], abs(sums[-1] - last[-1])
