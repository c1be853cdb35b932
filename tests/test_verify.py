import dataclasses
import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from disknorms import verify as verify_mod
from disknorms.expr import evaluate, parse
from disknorms.verify import (eps_window, verify_ap_large_p,
                              verify_ap_small_p, verify_elem_inequality,
                              verify_hp_counterexample,
                              verify_hp_equality_case, verify_lemma_ap,
                              verify_lemma_cv, verify_lemma_cvh,
                              verify_means_monotone,
                              verify_rotation_invariance)

STANDARD_SET = [("1+z", 2.0), ("(1+z)^2", 2.0)]


# ---------------------------------------------------------------------------
# identity lemmas


@pytest.mark.parametrize("text,p", STANDARD_SET + [("1/(1-z)", 0.5)])
def test_lemma_cvh_on_standard_set(text, p):
    r = verify_lemma_cvh(parse(text), p)
    assert r.verdict == "Confirmed"
    assert abs(r.defect) <= r.margin
    assert r.case_id == "lemma-cvh"


def test_lemma_cvh_constant():
    r = verify_lemma_cvh(parse("3"), 0.7)
    assert r.verdict == "Confirmed"
    assert r.lhs == pytest.approx(3.0 ** 0.7, rel=1e-11)


@pytest.mark.parametrize("text,p", STANDARD_SET + [("(1-z)^(-1/4)", 1.0)])
def test_lemma_cv_on_standard_set(text, p):
    r = verify_lemma_cv(parse(text), p)
    assert r.verdict == "Confirmed"
    assert abs(r.defect) <= r.margin


def test_lemma_cv_unit_constant():
    # both sides equal 1: the weighted right side integrates 2|z|^2
    r = verify_lemma_cv(parse("1"), 2.0)
    assert r.lhs == pytest.approx(1.0, rel=1e-11)
    assert r.rhs == pytest.approx(1.0, rel=1e-11)
    assert r.verdict == "Confirmed"


def test_lemma_cv_sides_are_independent():
    names = [n for n, _ in verify_lemma_cv(parse("1+z"), 2.0).sub_results]
    assert "weighted_integral" in names


# ---------------------------------------------------------------------------
# elementary inequality


def test_elem_equality_case_confirmed():
    r = verify_elem_inequality(3.0, 3.0, 2.0)
    assert r.verdict == "Confirmed"
    assert r.defect == 0.0 and r.margin == 0.0


def test_elem_direct_arithmetic():
    r = verify_elem_inequality(2.0, 1.0, 2.0)
    assert (r.lhs, r.rhs) == (3.0, 1.0)
    assert r.verdict == "Confirmed"


def test_elem_domain_validation():
    with pytest.raises(ValueError):
        verify_elem_inequality(-1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        verify_elem_inequality(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        verify_elem_inequality(1.0, 0.0, 2.0)


@pytest.mark.parametrize("a,b,q", [(1e200, 1.0, 2.0), (1e-300, 2.0, 1e5)])
def test_elem_overflowing_power_is_inconclusive(a, b, q):
    # a ** q raises OverflowError for floats; it is read as inf
    r = verify_elem_inequality(a, b, q)
    assert r.lhs == math.inf and r.rhs == math.inf
    assert r.verdict == "Inconclusive"


@given(st.floats(1e-6, 10.0), st.floats(1e-6, 10.0),
       st.floats(1.0, 5.0, exclude_min=True))
@example(9.0, 2.8985880880490407, 1.0000000000000002)  # defect -8.9e-16
@settings(max_examples=500)
def test_elem_random_samples(a, b, q):
    assert verify_elem_inequality(a, b, q).verdict == "Confirmed"


# ---------------------------------------------------------------------------
# membership lemma


# at p*alpha = 100, I(R) overflows past R = 0.75: polynomial divergence
@pytest.mark.parametrize("alpha,p", [(1.0, 1.0), (2.0, 0.9), (4.0, 0.5),
                                     (2.5, 1.0), (0.5, 1.5), (50.0, 2.0)])
def test_lemma_ap_agreement(alpha, p):
    r = verify_lemma_ap(alpha, p)
    assert r.verdict == "Confirmed"
    assert r.lhs == pytest.approx(alpha * p, rel=1e-15)
    names = [n for n, _ in r.sub_results]
    assert names == ["classifier", "evidence"]


def _membership_grid():
    spec = importlib.util.spec_from_file_location(
        "membership_grid", pathlib.Path(__file__).resolve().parent.parent
        / "scripts" / "membership_grid.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_membership_grid_with_overflowing_evidence():
    assert _membership_grid().main(["--alphas", "50", "--ps", "2"]) == 0


def test_membership_grid_takes_the_lemma_ap_verdict(monkeypatch, capsys):
    # p*alpha = 2 is a Boundary point, which must look divergent: a
    # Convergent diagnostic there is a disagreement, and the script exits 1
    script = _membership_grid()
    argv = ["--alphas", "4", "--ps", "0.5"]
    assert script.main(argv) == 0
    evidence = verify_mod.membership_evidence
    monkeypatch.setattr(verify_mod, "membership_evidence", lambda *a: (
        dataclasses.replace(evidence(*a), diagnostic="Convergent")))
    assert script.main(argv) == 1
    out = capsys.readouterr().out
    assert "Boundary       Convergent" in out
    assert out.endswith("# 1 points, 1 classifier/evidence disagreements\n")


# ---------------------------------------------------------------------------
# Hardy counterexample


@pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_hp_counterexample_confirmed_across_range(p):
    r = verify_hp_counterexample(p)
    assert r.verdict == "Confirmed"
    assert r.defect > r.margin > 0.0


def test_hp_counterexample_sub_checks():
    r = verify_hp_counterexample(0.3)
    subs = dict(r.sub_results)
    assert subs["symmetry"].passed
    assert subs["closed_form"].passed
    assert subs["proof_chain"].passed
    # chain: the norm of f+g is exactly 4x the norm of the single pole
    ratio = subs["norm_sum"].value / subs["norm_pole"].value
    assert ratio == pytest.approx(4.0, rel=1e-8)


def test_identity_checks_see_one_read_only_draw(monkeypatch):
    # the 64 points of seed 1729 are drawn once, with the bits of a fresh
    # draw, and shared read-only by every report's identity check
    seen = []

    def spy(e, z, env=None):
        seen.append(z)
        return evaluate(e, z, env)

    monkeypatch.setattr(verify_mod, "evaluate", spy)
    verify_hp_counterexample(0.3)
    verify_hp_equality_case(0.5)
    rng = np.random.default_rng(1729)
    r = 0.9 * np.sqrt(rng.uniform(size=64))
    fresh = r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=64))
    assert len(seen) == 4 and all(z is seen[0] for z in seen)
    assert seen[0].tobytes() == fresh.tobytes()
    with pytest.raises(ValueError):
        seen[0][0] = 0.0


def test_hp_counterexample_rejects_bad_p():
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            verify_hp_counterexample(bad)


def test_hp_equality_within_margin():
    for p in (0.3, 0.7):
        r = verify_hp_equality_case(p)
        assert r.verdict == "Confirmed"
        assert abs(r.defect) <= r.margin
        assert dict(r.sub_results)["proof_chain"].passed


def test_scaling_leaves_verdicts_unchanged():
    for fn in (verify_hp_counterexample, verify_hp_equality_case):
        plain = fn(0.45)
        scaled = fn(0.45, scale=7.5)
        assert scaled.verdict == plain.verdict
        assert scaled.defect == pytest.approx(7.5 * plain.defect, rel=1e-9)


# ---------------------------------------------------------------------------
# eps window


def test_eps_window_degenerate_at_half():
    w = eps_window(0.5)
    assert (w.lo, w.hi, w.hi_closed) == (1.0, 1.0, True)
    assert w.degenerate and w.contains(1.0) and not w.contains(0.999)
    assert w.midpoint() == 1.0


def test_eps_window_clipped_closed():
    w = eps_window(0.6)
    assert w.lo == pytest.approx(2.0 / 3.0)
    assert w.hi == 1.0 and w.hi_closed
    assert w.contains(1.0)


def test_eps_window_half_open():
    w = eps_window(0.75)
    assert w.lo == pytest.approx(1.0 / 3.0)
    assert w.hi == pytest.approx(2.0 / 3.0)
    assert not w.hi_closed
    assert w.contains(1.0 / 3.0)
    assert not w.contains(2.0 / 3.0)


def test_eps_window_domain():
    for bad in (0.49, 1.0, 0.25, 1.2):
        with pytest.raises(ValueError):
            eps_window(bad)


# ---------------------------------------------------------------------------
# Bergman counterexamples


def test_ap_large_p_confirmed_easy_pair():
    r = verify_ap_large_p(0.5, 1.0)
    assert r.verdict == "Confirmed"
    subs = dict(r.sub_results)
    assert subs["membership"].classification == "Member"
    assert subs["precondition"].passed
    assert subs["closed_form"].passed
    assert r.defect > r.margin


def test_ap_large_p_confirmed_mid_pair():
    r = verify_ap_large_p(0.75, 0.4)
    assert r.verdict == "Confirmed"


def test_ap_large_p_rejects_eps_outside_window():
    with pytest.raises(ValueError):
        verify_ap_large_p(0.75, 0.9)
    with pytest.raises(ValueError):
        verify_ap_large_p(0.6, 0.5)
    with pytest.raises(ValueError):
        verify_ap_large_p(0.45, 1.0)  # p outside [1/2, 1)


def test_ap_small_p_all_sub_checks():
    r = verify_ap_small_p(0.25)
    assert r.verdict == "Confirmed"
    subs = dict(r.sub_results)
    for name in ("exact_value", "lower_bound", "strict_claim", "arithmetic"):
        assert subs[name].passed, name
    assert subs["exact_value"].rhs == pytest.approx(10.0 / 3.0, abs=0)


def test_ap_small_p_near_half():
    r = verify_ap_small_p(0.49)
    assert r.verdict == "Confirmed"
    # 2^8/(15*pi) ~ 5.432 still beats 2^0.49 * 10/3 ~ 4.681
    subs = dict(r.sub_results)
    assert subs["arithmetic"].lhs == pytest.approx(5.4324887242033615,
                                                   rel=1e-12)
    assert subs["arithmetic"].lhs > subs["arithmetic"].rhs


def test_ap_small_p_rejects_large_p():
    with pytest.raises(ValueError):
        verify_ap_small_p(0.6)
    with pytest.raises(ValueError):
        verify_ap_small_p(0.5)


def test_ap_small_p_scaling():
    plain = verify_ap_small_p(0.3)
    scaled = verify_ap_small_p(0.3, scale=2.0)
    assert scaled.verdict == plain.verdict == "Confirmed"
    assert scaled.lhs == pytest.approx(2.0 ** 0.3 * plain.lhs, rel=1e-8)


# ---------------------------------------------------------------------------
# structural properties


def test_means_monotone_for_monomial():
    r = verify_means_monotone(parse("z"), 1.5)
    assert r.verdict == "Confirmed"


def test_means_monotone_for_constant():
    r = verify_means_monotone(parse("2"), 0.5)
    assert r.verdict == "Confirmed"


def test_means_monotone_for_pole_ratio():
    grid = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95]
    r = verify_means_monotone(parse("(1+z)/(1-z)"), 0.5, grid)
    assert r.verdict == "Confirmed"
    assert len(r.sub_results) == len(grid) - 1
    assert all(c.passed for _, c in r.sub_results)


@pytest.mark.parametrize("text", ["1e300*z", "1e160*z^10"])
def test_means_monotone_blow_up_is_inconclusive(text):
    # a mean that blows up reads as inf; with 1e160*z^10 only the radii
    # from 0.3 on blow up, so the worst pair's defect is finite, and a
    # failed pair of two inf means must not make the verdict Refuted
    r = verify_means_monotone(parse(text), 2.0)
    assert r.verdict == "Inconclusive"
    assert math.inf in [c.lhs for _, c in r.sub_results]


def test_means_monotone_validates_grid():
    f = parse("z")
    with pytest.raises(ValueError):
        verify_means_monotone(f, 1.0, [0.5])
    with pytest.raises(ValueError):
        verify_means_monotone(f, 1.0, [0.5, 0.4])
    with pytest.raises(ValueError):
        verify_means_monotone(f, 1.0, [0.5, 1.0])


def test_rotation_invariance_both_spaces():
    f = parse("(1+z)/(1-z)")
    assert verify_rotation_invariance(f, 0.5).verdict == "Confirmed"
    g = parse("(1+z)^2")
    r = verify_rotation_invariance(g, 1.0, angle=2.4, space="bergman")
    assert r.verdict == "Confirmed"
    assert r.inputs["space"] == "bergman"


def test_rotation_invariance_rejects_unknown_space():
    with pytest.raises(ValueError):
        verify_rotation_invariance(parse("z"), 1.0, space="fock")


# ---------------------------------------------------------------------------
# report mechanics


def test_kappa_scales_margin():
    r10 = verify_hp_counterexample(0.5, kappa=10.0)
    r20 = verify_hp_counterexample(0.5, kappa=20.0)
    assert r20.margin == pytest.approx(2.0 * r10.margin, rel=1e-12)
    assert r10.inputs["kappa"] == 10.0
    assert r20.inputs["kappa"] == 20.0


def test_huge_kappa_gives_inconclusive():
    r = verify_hp_counterexample(0.5, kappa=1e12)
    assert r.verdict == "Inconclusive"


_POLE = parse("1/(1-z)")

# (input, case called with that input x): every case's kappa, the
# triangle cases' scale, lemma-elem's a, b and q, and the rotation angle
_CHECKED = [
    ("kappa", lambda x: verify_lemma_cvh(_POLE, 0.5, kappa=x)),
    ("kappa", lambda x: verify_lemma_cv(_POLE, 1.0, kappa=x)),
    ("kappa", lambda x: verify_hp_counterexample(0.5, kappa=x)),
    ("kappa", lambda x: verify_hp_equality_case(0.5, kappa=x)),
    ("kappa", lambda x: verify_ap_large_p(0.6, 5.0 / 6.0, kappa=x)),
    ("kappa", lambda x: verify_ap_small_p(0.25, kappa=x)),
    ("kappa", lambda x: verify_means_monotone(_POLE, 0.5, kappa=x)),
    ("kappa", lambda x: verify_rotation_invariance(_POLE, 0.5, kappa=x)),
    ("scale", lambda x: verify_hp_counterexample(0.5, scale=x)),
    ("scale", lambda x: verify_hp_equality_case(0.5, scale=x)),
    ("scale", lambda x: verify_ap_large_p(0.6, 5.0 / 6.0, scale=x)),
    ("scale", lambda x: verify_ap_small_p(0.25, scale=x)),
    ("a", lambda x: verify_elem_inequality(x, 1.0, 2.0)),
    ("b", lambda x: verify_elem_inequality(2.0, x, 2.0)),
    ("q", lambda x: verify_elem_inequality(2.0, 1.0, x)),
    ("angle", lambda x: verify_rotation_invariance(_POLE, 0.5, angle=x)),
]


def _not_called(*args, **kwargs):
    raise AssertionError("a norm was computed before the inputs were checked")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name,case", _CHECKED,
                         ids=[f"{i}-{name}" for i, (name, _) in
                              enumerate(_CHECKED)])
def test_bad_numbers_are_rejected_before_any_norm(monkeypatch, name, case,
                                                  bad):
    if name == "angle" and bad == -1.0:
        bad = -math.inf                 # any finite angle is valid
    for fn in ("hardy_norm", "bergman_norm", "_radial_integral",
               "_integral_means_full", "membership_classify"):
        monkeypatch.setattr(verify_mod, fn, _not_called)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        case(bad)


def test_reports_are_immutable():
    r = verify_elem_inequality(2.0, 1.0, 2.0)
    with pytest.raises(AttributeError):
        r.verdict = "Refuted"


def test_strict_verdict_consistency():
    # the recorded verdict must match the defect/margin arithmetic
    for r in (verify_hp_counterexample(0.4), verify_ap_small_p(0.2)):
        assert r.margin >= 0.0
        if r.verdict == "Confirmed":
            assert r.defect > r.margin
