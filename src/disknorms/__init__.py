"""Hardy- and Bergman-space quasi-norms on the unit disk, with mechanical
verification of the triangle-inequality violations for 0 < p < 1."""

from .bergman import (MembershipVerdict, bergman_norm, bergman_norm_coeffs,
                      membership_classify, membership_evidence)
from .expr import (BoundaryEvaluator, BoundaryStructure, EvalDomainError,
                   Expr, ExprError, ParseError, SingularPoint,
                   UnsupportedFormError, boundary_structure, evaluate, parse,
                   substitute_negate, substitute_rotate, substitute_square)
from .hardy import NormResult, hardy_norm, integral_means
from .quad import (NonFiniteSampleError, QuadConfig, QuadResult, integrate,
                   integrate_piecewise)
from .verify import (BoundCheck, EpsWindow, IdentityCheck,
                     VerificationReport, eps_window, verify_ap_large_p,
                     verify_ap_small_p, verify_elem_inequality,
                     verify_hp_counterexample, verify_hp_equality_case,
                     verify_lemma_ap, verify_lemma_cv, verify_lemma_cvh,
                     verify_means_monotone, verify_rotation_invariance)

__version__ = "0.1.0"

__all__ = [
    "parse", "evaluate", "Expr",
    "substitute_negate", "substitute_square", "substitute_rotate",
    "boundary_structure",
    "BoundaryEvaluator", "BoundaryStructure", "SingularPoint",
    "ExprError", "ParseError", "EvalDomainError",
    "UnsupportedFormError", "NonFiniteSampleError",
    "QuadConfig", "QuadResult", "integrate", "integrate_piecewise",
    "NormResult", "hardy_norm", "integral_means",
    "bergman_norm", "bergman_norm_coeffs",
    "MembershipVerdict", "membership_classify", "membership_evidence",
    "VerificationReport", "IdentityCheck", "BoundCheck", "EpsWindow",
    "eps_window",
    "verify_lemma_cvh", "verify_lemma_cv", "verify_elem_inequality",
    "verify_lemma_ap", "verify_hp_counterexample",
    "verify_hp_equality_case", "verify_ap_large_p", "verify_ap_small_p",
    "verify_means_monotone", "verify_rotation_invariance",
    "__version__",
]
