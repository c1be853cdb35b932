"""Bit-for-bit pins of quadrature and norm results.

The expected strings are the exact reprs these calls have always produced.
The evaluation plan and the batched panel calls must not move a single
bit: any change in rounding, bisection order or evaluation count shows
here, long before it would move a verdict.
"""
import cmath

import numpy as np
import pytest

from disknorms.bergman import bergman_norm
from disknorms.expr import parse, substitute_rotate
from disknorms.hardy import _integral_means_full, hardy_norm
from disknorms.verify import verify_ap_large_p
from disknorms.quad import QuadConfig, integrate, integrate_piecewise


def _two_ended(x):
    return x ** -0.5 + (1.0 - x) ** -0.25


GOLDEN = [
    ("integrate x^-1/2, singular left",
     lambda: integrate(lambda x: x ** -0.5, 0, 1,
                       QuadConfig(singular_left=True)),
     "QuadResult(value=1.9999999999999942, abs_err_est=1.0007157529433588e-09,"
     " evaluations=120, converged=True)"),
    ("integrate cos",
     lambda: integrate(np.cos, 0, 3),
     "QuadResult(value=0.141120008059867, abs_err_est=2.2426505097428162e-14,"
     " evaluations=45, converged=True)"),
    # both ends singular: the budget halves per side, rounding down (719
    # gives 359 a side, one bisection short of what 720 gives)
    ("integrate x^-1/2 + (1-x)^-1/4, both ends singular",
     lambda: integrate(_two_ended, 0, 1,
                       QuadConfig(singular_left=True, singular_right=True,
                                  max_evaluations=20001)),
     "QuadResult(value=3.333333333278384, abs_err_est=1.4654168020779423e-09,"
     " evaluations=240, converged=True)"),
    ("integrate x^-1/2 + (1-x)^-1/4, both ends singular, odd budget spent",
     lambda: integrate(_two_ended, 0, 1,
                       QuadConfig(abs_tol=1e-300, rel_tol=0.0,
                                  singular_left=True, singular_right=True,
                                  max_evaluations=719)),
     "QuadResult(value=3.33333333327843, abs_err_est=9.388986839437559e-10,"
     " evaluations=660, converged=False)"),
    # the singular flags act on the outer pieces only
    ("integrate_piecewise x^-1/2 + (1-x)^-1/4 over 4 pieces",
     lambda: integrate_piecewise(_two_ended, [0.0, 0.25, 0.5, 0.75, 1.0],
                                 QuadConfig(singular_left=True,
                                            singular_right=True)),
     "QuadResult(value=3.333333333278432, abs_err_est=1.0421709843445624e-09,"
     " evaluations=300, converged=True)"),
    # 1000 evaluations over 5 pieces: each piece gets the floor of 300
    ("integrate_piecewise sqrt|sin 40x|, per-piece budget floor",
     lambda: integrate_piecewise(
         lambda x: np.sqrt(np.abs(np.sin(40.0 * x))),
         [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
         QuadConfig(abs_tol=1e-14, max_evaluations=1000)),
     "QuadResult(value=0.7662724966830428, abs_err_est=0.0017701198352618516,"
     " evaluations=1425, converged=False)"),
    ("hardy (1+z)/(1-z), p=0.5",
     lambda: hardy_norm(parse("(1+z)/(1-z)"), 0.5),
     "NormResult(space='Hardy', p=0.5, value_p=1.4142135624250958,"
     " value=2.00000000014708, abs_err_est=3.6187667540373057e-09,"
     " converged=True, divergent=False)"),
    ("hardy 1/(1-z), p=0.9",
     lambda: hardy_norm(parse("1/(1-z)"), 0.9),
     "NormResult(space='Hardy', p=0.9, value_p=3.642429629126842,"
     " value=4.205019041355531, abs_err_est=1.8580689169466312e-09,"
     " converged=True, divergent=False)"),
    ("hardy 1/(1-z^2), p=0.7",
     lambda: hardy_norm(parse("1/(1-z^2)"), 0.7),
     "NormResult(space='Hardy', p=0.7, value_p=1.5600121644856682,"
     " value=1.8875441612203554, abs_err_est=6.263071847381202e-09,"
     " converged=True, divergent=False)"),
    # real coefficients: the mean runs over [0, pi] alone, one from_left
    # side, and counts half the evaluations of the circle (hardy._layout)
    ("integral means 1/(1-z)^2, p=0.6, r=0.99",
     lambda: _integral_means_full(parse("1/(1-z)^2"), 0.6, 0.99),
     "(7.534803012600102, 3.3480511688347613e-09, 301, True)"),
    ("bergman (1+z)^(4/p), p=0.4",
     lambda: bergman_norm(parse("(1+z)^(4/p)"), 0.4, env={"p": 0.4}),
     "NormResult(space='Bergman', p=0.4, value_p=3.333333333333313,"
     " value=20.28602064833918, abs_err_est=9.83454098850863e-14,"
     " converged=True, divergent=False)"),
    ("bergman 1/(1-z), p=1.5",
     lambda: bergman_norm(parse("1/(1-z)"), 1.5),
     "NormResult(space='Bergman', p=1.5, value_p=2.1574104047535045,"
     " value=1.6696361757231208, abs_err_est=1.0752839433307809e-09,"
     " converged=True, divergent=False)"),
    # not converged and flagged divergent: the integral runs, then p times
    # the net exponent at z = 1 reaches the critical value, with no probe
    ("hardy 1/(1-z), p=1 (divergent)",
     lambda: hardy_norm(parse("1/(1-z)"), 1.0),
     "NormResult(space='Hardy', p=1.0, value_p=205.66323888654443,"
     " value=205.66323888654443, abs_err_est=2599.130292615642,"
     " converged=False, divergent=True)"),
    ("bergman 1/(1-z)^2, p=1 (divergent)",
     lambda: bergman_norm(parse("1/(1-z)^2"), 1.0),
     "NormResult(space='Bergman', p=1.0, value_p=298.64291490866515,"
     " value=298.64291490866515, abs_err_est=3784.4866163946517,"
     " converged=False, divergent=True)"),
    # radial integrals whose inner circle means run in lockstep
    ("ap-large-p report, p=0.6, eps=0.7",
     lambda: verify_ap_large_p(0.6, 0.7),
     "VerificationReport(case_id='ap-large-p', inputs={'p': 0.6, 'eps': 0.7,"
     " 'kappa': 10.0, 'scale': 1.0}, lhs=31.393162567005774,"
     " rhs=21.68823215215943, defect=9.704930414846345,"
     " margin=1.3765839126672582e-06, verdict='Confirmed', sub_results=("
     "('membership', MembershipVerdict(alpha=2.7, p=0.6, product=1.62,"
     " classification='Member', evidence=(), diagnostic=None)),"
     " ('precondition', BoundCheck(description='membership exponent product"
     " below 2', lhs=1.62, rhs=2.0, margin=0.0, passed=True)),"
     " ('norm_f', NormResult(space='Bergman', p=0.6,"
     " value_p=4.179424599556673, value=10.844116076079715,"
     " abs_err_est=2.4968414870920557e-09, converged=True, divergent=False)),"
     " ('norm_g', NormResult(space='Bergman', p=0.6,"
     " value_p=4.179424599556673, value=10.844116076079715,"
     " abs_err_est=2.4968414870920557e-09, converged=True, divergent=False)),"
     " ('norm_sum', NormResult(space='Bergman', p=0.6,"
     " value_p=7.908626058653589, value=31.393162567005774,"
     " abs_err_est=1.7543391824604192e-08, converged=True, divergent=False)),"
     " ('closed_form', IdentityCheck(description='f + g ="
     " 8z(1+z^2)/(1-z^2)^(2+eps)', max_rel_diff=1.1701194046711145e-15,"
     " tolerance=1e-10, points=64, passed=True))))"),
    ("bergman 1/(1-z)^2, p=0.9",
     lambda: bergman_norm(parse("1/(1-z)^2"), 0.9),
     "NormResult(space='Bergman', p=0.9, value_p=5.072372743896286,"
     " value=6.075303181429022, abs_err_est=2.7012787924279833e-09,"
     " converged=True, divergent=False)"),
    # complex coefficients keep the full circle: |f(conj z)| is not |f(z)|
    # for 1/(1-z) + i*z, so [0, pi] alone would not do (hardy._layout)
    ("hardy i*z/(1-z), p=0.5",
     lambda: hardy_norm(parse("i*z/(1-z)"), 0.5),
     "NormResult(space='Hardy', p=0.5, value_p=1.1803405990160927,"
     " value=1.3932039296856684, abs_err_est=1.371028440963927e-10,"
     " converged=True, divergent=False)"),
    ("hardy (1+z)/(1-z) rotated by e^{0.3i}, p=0.5",
     lambda: hardy_norm(substitute_rotate(parse("(1+z)/(1-z)"),
                                          cmath.exp(0.3j)), 0.5),
     "NormResult(space='Hardy', p=0.5, value_p=1.4142135624250958,"
     " value=2.00000000014708, abs_err_est=3.6187663556030328e-09,"
     " converged=True, divergent=False)"),
    ("hardy 1/(1-z) + i*z, p=0.5",
     lambda: hardy_norm(parse("1/(1-z) + i*z"), 0.5),
     "NormResult(space='Hardy', p=0.5, value_p=1.363646818182186,"
     " value=1.8595326447383995, abs_err_est=4.131904426763836e-09,"
     " converged=True, divergent=False)"),
    ("bergman 1/(1-z)^2 + i*z, p=0.9",
     lambda: bergman_norm(parse("1/(1-z)^2 + i*z"), 0.9),
     "NormResult(space='Bergman', p=0.9, value_p=5.272512969190301,"
     " value=6.342227855546047, abs_err_est=4.289262061353409e-09,"
     " converged=True, divergent=False)"),
    # two singular angles and z^2 leaves
    ("bergman 8z(1+z^2)/(1-z^2)^(2+eps), p=0.6, eps=0.7",
     lambda: bergman_norm(parse("(8*z*(1+z^2))/(1-z^2)^(2+eps)"), 0.6,
                          env={"eps": 0.7}),
     "NormResult(space='Bergman', p=0.6, value_p=7.90862605865359,"
     " value=31.393162567005785, abs_err_est=1.754339313402172e-08,"
     " converged=True, divergent=False)"),
    # a finite norm (exact 500) falsely flagged divergent: the radial
    # integral and the radial probe both run
    ("bergman 1/(1-z)^2, p=0.999 (false divergence)",
     lambda: bergman_norm(parse("1/(1-z)^2"), 0.999),
     "NormResult(space='Bergman', p=0.999, value_p=224.84875421161757,"
     " value=226.07093495153654, abs_err_est=2531.497245937864,"
     " converged=False, divergent=True)"),
]


@pytest.mark.parametrize("name,call,expected", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_repr(name, call, expected):
    assert repr(call()) == expected
