"""The Parseval-series oracle against closed forms, and the norms of the
paper's functions against the oracle at every p."""
import math

import pytest

from disknorms.bergman import bergman_norm
from disknorms.hardy import hardy_norm
from disknorms.verify import _pair, eps_window

from oracles import parseval_norm_p


def _assert_within(series, exact):
    value, est = series
    assert abs(value - exact) <= 1e-9 * exact
    assert abs(value - exact) <= est


@pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
def test_series_matches_secant(p):
    # ||(1+z)/(1-z)||_{H^p}^p = sec(p pi/2), and -f(-z) has the same norm
    for form in (dict(plus=1.0, minus=-1.0),
                 dict(c=-1.0, plus=-1.0, minus=1.0)):
        _assert_within(parseval_norm_p("Hardy", p, **form),
                       1.0 / math.cos(0.5 * math.pi * p))


@pytest.mark.parametrize("p,s", [(1.0, 0.5), (1.0, 0.9), (1.0, 0.99),
                                 (0.5, 0.9)])
def test_series_matches_hardy_gamma_form(p, s):
    # ||(1-z)^(-s/p)||_{H^p}^p = Gamma(1-s)/Gamma(1-s/2)^2
    _assert_within(parseval_norm_p("Hardy", p, minus=-s / p),
                   math.gamma(1.0 - s) / math.gamma(1.0 - 0.5 * s) ** 2)


@pytest.mark.parametrize("p,s", [(1.0, 1.5), (1.0, 1.9), (1.0, 1.99),
                                 (0.75, 1.9)])
def test_series_matches_bergman_gamma_form(p, s):
    # ||(1-z)^(-s/p)||_{A^p}^p = Gamma(2-s)/Gamma(2-s/2)^2
    _assert_within(parseval_norm_p("Bergman", p, minus=-s / p),
                   math.gamma(2.0 - s) / math.gamma(2.0 - 0.5 * s) ** 2)


@pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
def test_series_in_the_square_on_the_circle(p):
    # |1 - z^2| on the circle is |1 - w| on the circle w = z^2:
    # ||4z/(1-z^2)||_{H^p}^p = 4^p Gamma(1-p)/Gamma(1-p/2)^2
    _assert_within(parseval_norm_p("Hardy", p, c=4.0, m=1, k=2, minus=-1.0),
                   4.0 ** p * math.gamma(1.0 - p)
                   / math.gamma(1.0 - 0.5 * p) ** 2)


@pytest.mark.parametrize("beta", [0.75, 0.95])
def test_series_in_the_square_on_the_disk(beta):
    # w = z^2 covers the disk twice with Jacobian 4|z|^2:
    # ||z/(1-z^2)^beta||_{A^2}^2 = Gamma(2-2 beta)/Gamma(2-beta)^2 / 2
    _assert_within(parseval_norm_p("Bergman", 2.0, m=1, k=2, minus=-beta),
                   0.5 * math.gamma(2.0 - 2.0 * beta)
                   / math.gamma(2.0 - beta) ** 2)


@pytest.mark.parametrize("space,p", [("Hardy", 1.0), ("Bergman", 2.0)])
def test_series_at_the_critical_exponent_diverges(space, p):
    with pytest.raises(ValueError, match="diverges"):
        parseval_norm_p(space, p, minus=-1.0)


# ---------------------------------------------------------------------------
# the paper's f, g = -f(-z) and f + g against the series.  g has the
# coefficients of f up to sign, so its series is that of f
# (test_series_matches_secant checks the mirrored form itself)


def _hp(plus, minus, scale):
    def forms(eps):
        return {"f": dict(plus=plus, minus=minus),
                "g": dict(c=-1.0, plus=plus, minus=minus),
                "f+g": dict(c=scale, m=1, k=2, minus=-1.0)}
    return forms


def _ap_forms(eps):
    return {"f": dict(plus=2.0 - eps, minus=-2.0 - eps),
            "g": dict(c=-1.0, plus=2.0 - eps, minus=-2.0 - eps),
            "f+g": dict(c=8.0, m=1, k=2, plus=1.0, minus=-2.0 - eps)}


# case: (text of f, norm, space, series forms of f, g and f + g, p grid);
# the ap-large-p eps is the window midpoint
_CASES = {
    "hp-counterexample": ("(1+z)/(1-z)", hardy_norm, "Hardy",
                          _hp(1.0, -1.0, 4.0),
                          (0.5, 0.75, 0.9, 0.95, 0.97, 0.99)),
    "hp-equality": ("1/(1-z)", hardy_norm, "Hardy", _hp(0.0, -1.0, 2.0),
                    (0.5, 0.75, 0.9, 0.95, 0.97, 0.99)),
    "ap-large-p": ("(1+z)^(2-eps) / (1-z)^(2+eps)", bergman_norm, "Bergman",
                   _ap_forms, (0.5, 0.6, 0.75, 0.9, 0.95, 0.97, 0.99)),
}

# open defects, ROADMAP item 3: the mass below the depth floor of the
# singular transform is in neither the value nor the estimate
_FLOOR = "open defect: the mass below the depth floor is not in the estimate"
_DISHONEST = {
    **{(case, which, 0.97): _FLOOR + " (converged, estimate 1.2x short)"
       for case, which in (("hp-counterexample", "f+g"), ("hp-equality", "f"),
                           ("hp-equality", "g"), ("hp-equality", "f+g"))},
    **{("ap-large-p", which, 0.9): _FLOOR + " (estimate 5x short)"
       for which in ("f", "g", "f+g")},
    **{("ap-large-p", which, 0.95): _FLOOR + " (converged, estimate 2.5e-7 "
       "or 4.2e-7, error 0.108 or 0.216)" for which in ("f", "g", "f+g")},
}


def _paper_cases():
    for case, (*_, ps) in _CASES.items():
        for p in ps:
            for which in ("f", "g", "f+g"):
                key = (case, which, p)
                marks = ([pytest.mark.xfail(reason=_DISHONEST[key])]
                         if key in _DISHONEST else [])
                yield pytest.param(*key, marks=marks,
                                   id=f"{case}-{which}-{p}")


@pytest.mark.parametrize("case,which,p", _paper_cases())
def test_paper_norm_within_its_estimate_of_the_series(case, which, p):
    text, norm_fn, space, forms, _ = _CASES[case]
    eps = eps_window(p).midpoint() if space == "Bergman" else 0.0
    env = {"p": p, "eps": eps}
    f, g, total, norm = _pair(text, 1.0, norm_fn, p, env, None)
    r = norm({"f": f, "g": g, "f+g": total}[which])
    series, series_err = parseval_norm_p(space, p, **forms(eps)[which])
    # the series' own error counts against the norm, so the check holds
    # whatever the true value within the series' estimate
    assert abs(r.value_p - series) + series_err <= r.abs_err_est
