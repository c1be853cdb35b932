import argparse
import importlib.util
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import disknorms
from disknorms.cli import (SWEEP_CASES, SweepRow, main, plot_csv, run_sweep,
                           sweep_csv, _CASES, _EXIT_BY_VERDICT, _build_parser)

from sweep_reader import read_sweep_csv

_SRC = pathlib.Path(disknorms.__file__).resolve().parent.parent


def _field(out: str, name: str) -> str:
    for line in out.splitlines():
        if line.startswith(name + ":"):
            return line.split(":", 1)[1].strip()
    raise KeyError(name)


# ---------------------------------------------------------------------------
# norm


def test_norm_bergman_closed_form(capsys):
    code = main(["norm", "--space", "bergman",
                 "--expr", "(1+z)^(4/p)", "--p", "0.25"])
    out = capsys.readouterr().out
    assert code == 0
    assert float(_field(out, "value_p")) == pytest.approx(10.0 / 3.0,
                                                          abs=1e-8)
    assert _field(out, "space") == "Bergman"


def test_norm_hardy_parseval(capsys):
    code = main(["norm", "--space", "hardy", "--expr", "(1+z)^2",
                 "--p", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert float(_field(out, "value_p")) == pytest.approx(6.0, rel=1e-10)
    assert float(_field(out, "value")) == pytest.approx(math.sqrt(6.0),
                                                        rel=1e-10)


def test_norm_json_schema(capsys):
    code = main(["norm", "--space", "hardy", "--expr", "1+z", "--p", "1",
                 "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(payload) == {"space", "p", "value_p", "value", "abs_err_est",
                            "converged", "divergent"}
    assert payload["space"] == "Hardy"
    assert payload["converged"] is True


def test_norm_divergent_exits_2(capsys):
    code = main(["norm", "--space", "hardy", "--expr", "1/(1-z)",
                 "--p", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert _field(out, "divergent") == "True"


_OVERFLOWING = "1e300/(1-z)^3"     # infinite in both spaces at p = 1


def test_norm_with_overflowing_inner_means_exits_2(capsys):
    code = main(["norm", "--space", "bergman", "--expr", _OVERFLOWING,
                 "--p", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert _field(out, "converged") == "False"
    assert _field(out, "divergent") == "True"


def test_verify_with_overflowing_inner_means_exits_2(capsys):
    code = main(["verify", "--case", "rotation-invariance", "--space",
                 "bergman", "--expr", _OVERFLOWING, "--p", "1"])
    assert code == 2
    assert _field(capsys.readouterr().out, "verdict") == "Inconclusive"


@pytest.mark.parametrize("text", [_OVERFLOWING, "1e300/(1-z)"])
def test_lemma_cv_blow_up_exits_2(capsys, text):
    # lemma-cv integrates outside the norm driver; a blow-up there (an
    # InnerIntegralError for 1e300/(1-z)) reads as an infinite weighted
    # integral, not converged, so the case is Inconclusive
    code = main(["verify", "--case", "lemma-cv", "--expr", text, "--p", "1"])
    assert code == 2
    assert _field(capsys.readouterr().out, "verdict") == "Inconclusive"


def test_means_monotone_blow_up_exits_2(capsys):
    code = main(["verify", "--case", "means-monotone", "--expr", "1e300*z",
                 "--p", "2"])
    assert code == 2
    assert _field(capsys.readouterr().out, "verdict") == "Inconclusive"


def test_means_monotone_huge_constant_has_a_finite_margin(capsys):
    # abs_err_est * value overflows for 1e150*z; the margin must not be inf
    code = main(["verify", "--case", "means-monotone", "--expr", "1e150*z",
                 "--p", "2"])
    margin = float(_field(capsys.readouterr().out, "margin"))
    assert code == 0
    assert math.isfinite(margin) and margin > 0.0


@pytest.mark.parametrize("alpha", ["45", "1000"])
def test_membership_with_overflowing_evidence_exits_0(alpha, capsys):
    # |1-z|^(-p*alpha) overflows; at alpha = 1000 every I(R) is inf
    code = main(["membership", "--alpha", alpha, "--p", "2", "--evidence"])
    out = capsys.readouterr().out
    assert code == 0
    assert _field(out, "diagnostic") == "Divergent-poly"
    assert "integral=inf" in out


@pytest.mark.parametrize("angle", ["nan", "inf"])
def test_non_finite_singular_angle_exits_3(angle, capsys):
    code = main(["norm", "--space", "hardy", "--expr", "1/(1-z)", "--p",
                 "0.5", "--singular", angle])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == (
        f"disknorms: error: singular angles must be finite, got {angle}\n")


@pytest.mark.parametrize("a,b,q", [("1e200", "1", "2"), ("1e-300", "2", "1e5")])
def test_elem_overflowing_power_exits_2(capsys, a, b, q):
    code = main(["verify", "--case", "lemma-elem", "--a", a, "--b", b,
                 "--q", q])
    assert code == 2
    assert _field(capsys.readouterr().out, "verdict") == "Inconclusive"


def test_norm_far_divergent_exits_2(capsys):
    code = main(["norm", "--space", "hardy", "--expr", "1/(1-z)^400",
                 "--p", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert _field(out, "divergent") == "True"


def test_overflowing_norm_prints_nothing_on_stderr():
    # inf, 0 and log 0 are the evaluator's results meant, not warnings; run
    # as a user runs it, so that a numpy RuntimeWarning would show
    proc = subprocess.run(
        [sys.executable, "-c", "from disknorms.cli import entry; entry()",
         "norm", "--space", "hardy", "--expr", "1e300/(1-z)^3", "--p", "1"],
        env=dict(os.environ, PYTHONPATH=str(_SRC)), capture_output=True,
        text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert _field(proc.stdout, "divergent") == "True"


@pytest.mark.parametrize("p, code", [("2", 3), ("0.5", 0)])
def test_python_m_cli_runs_the_command(p, code):
    proc = subprocess.run(
        [sys.executable, "-m", "disknorms.cli", "verify", "--case",
         "hp-counterexample", "--p", p],
        env=dict(os.environ, PYTHONPATH=str(_SRC)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == code
    if code == 3:
        assert proc.stderr == "disknorms: error: requires 0 < p < 1\n"
    else:
        assert _field(proc.stdout, "verdict") == "Confirmed"


def test_norm_param_binding(capsys):
    code = main(["norm", "--space", "hardy", "--expr", "(1+z)^(q)",
                 "--p", "2", "--param", "q=2"])
    out = capsys.readouterr().out
    assert code == 0
    assert float(_field(out, "value_p")) == pytest.approx(6.0, rel=1e-10)


def test_norm_unbound_exponent_parameter_exits_3(capsys):
    # a power whose exponent does not resolve has no boundary root, so the
    # error is the unbound parameter, not an unlocatable denominator
    code = main(["norm", "--space", "hardy", "--expr", "(2 - z - z^2)^(-q)",
                 "--p", "0.5"])
    assert code == 3
    assert capsys.readouterr().err == (
        "disknorms: error: unbound parameter 'q'\n")


def test_norm_parse_error_exits_3(capsys):
    code = main(["norm", "--space", "hardy", "--expr", "1+***", "--p", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "disknorms: error:" in err


@pytest.mark.parametrize("text", ["(1+z)^(0^(-1))", "(1+z)^(10^400)"])
def test_norm_exponent_power_error_exits_3(text, capsys):
    code = main(["norm", "--space", "hardy", "--expr", text, "--p", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("disknorms: error:")


@pytest.mark.parametrize("argv", [
    ["membership", "--alpha", "1", "--p", "nan"],
    ["membership", "--alpha", "nan", "--p", "1"],
    ["membership", "--alpha", "inf", "--p", "1"],
    ["membership", "--alpha", "1", "--p", "inf", "--evidence"],
    ["verify", "--case", "lemma-ap", "--alpha", "1", "--p", "nan"],
    ["verify", "--case", "lemma-ap", "--alpha", "inf", "--p", "1"],
    ["norm", "--space", "hardy", "--expr", "1/(1-z)", "--p", "nan"],
    ["norm", "--space", "hardy", "--expr", "1+z", "--p", "inf"],
    ["norm", "--space", "bergman", "--expr", "1/(1-z)", "--p", "nan"],
    ["norm", "--space", "bergman", "--expr", "1+z", "--p", "inf"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_p_or_alpha_exits_3(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("disknorms: error:")
    assert captured.err.count("\n") == 1


_SWEEP_RANGE = "need 0 < p_min < p_max < inf"


@pytest.mark.parametrize("argv,message", [
    ("verify --case hp-equality --p 0.5 --kappa -1", "kappa must be finite"),
    ("verify --case hp-equality --p 0.5 --kappa nan", "kappa must be finite"),
    ("verify --case hp-counterexample --p 0.5 --kappa inf",
     "kappa must be finite"),
    ("verify --case lemma-elem --a 2 --b 1 --q inf", "q must be finite"),
    ("verify --case lemma-elem --a inf --b 1", "a must be finite"),
    ("verify --case lemma-elem --a 2 --b nan", "b must be finite"),
    ("verify --case rotation-invariance --expr 1/(1-z) --p 0.5 --angle nan",
     "angle must be finite"),
    ("sweep --case hp-counterexample --p-min 0.5 --p-max inf --steps 3",
     _SWEEP_RANGE),
    ("sweep --case hp-counterexample --p-min nan --p-max 0.9 --steps 3",
     _SWEEP_RANGE),
    ("sweep --case hp-equality --p-min 0.3 --p-max 0.5 --steps 2 --kappa nan",
     "kappa must be finite"),
    ("sweep --case ap-small-p --p-min 0.2 --p-max 0.3 --steps 2 --kappa -1",
     "kappa must be finite"),
    ("sweep --case ap-large-p --p-min 0.6 --p-max 0.9 --steps 3 --eps-rule nan",
     "eps rule must be finite"),
    ("sweep --case ap-large-p --p-min 0.6 --p-max 0.9 --steps 3 --eps-rule inf",
     "eps rule must be finite"),
])
def test_bad_case_numbers_exit_3(argv, message, capsys):
    # a bad kappa or eps rule no longer fills a sweep with SKIPPED rows,
    # and p_max = inf no longer makes a grid of nan and inf
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(f"disknorms: error: {message}")
    assert captured.err.count("\n") == 1


def test_norm_out_file(tmp_path, capsys):
    target = tmp_path / "norm.txt"
    code = main(["norm", "--space", "hardy", "--expr", "z", "--p", "2",
                 "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert float(_field(target.read_text(), "value_p")) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# verify


def test_verify_equality_case(capsys):
    code = main(["verify", "--case", "hp-equality", "--p", "0.3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Confirmed" in out


def test_verify_elem_defaults(capsys):
    code = main(["verify", "--case", "lemma-elem", "--a", "2", "--b", "1"])
    assert code == 0
    assert "Confirmed" in capsys.readouterr().out


def test_verify_expr_case(capsys):
    code = main(["verify", "--case", "lemma-cvh", "--expr", "1+z",
                 "--p", "2"])
    assert code == 0


def test_verify_json_schema(capsys):
    code = main(["verify", "--case", "lemma-elem", "--a", "3", "--b", "1",
                 "--q", "1.5", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(payload) == {"case_id", "inputs", "lhs", "rhs", "defect",
                            "margin", "verdict", "sub_results"}
    assert payload["case_id"] == "lemma-elem"
    assert payload["verdict"] == "Confirmed"


def test_verify_missing_flag_exits_3(capsys):
    code = main(["verify", "--case", "hp-equality"])
    capsys.readouterr()
    assert code == 3


def test_verify_unknown_case_exits_3(capsys):
    code = main(["verify", "--case", "hp-miracle", "--p", "0.3"])
    capsys.readouterr()
    assert code == 3


def test_verify_window_violation_exits_3(capsys):
    code = main(["verify", "--case", "ap-large-p", "--p", "0.75",
                 "--eps", "0.9"])
    err = capsys.readouterr().err
    assert code == 3
    assert "disknorms: error:" in err


def test_verify_inconclusive_exits_2(capsys):
    code = main(["verify", "--case", "hp-counterexample", "--p", "0.5",
                 "--kappa", "1e12"])
    out = capsys.readouterr().out
    assert code == 2
    assert "Inconclusive" in out


def test_exit_code_map_covers_refuted():
    assert _EXIT_BY_VERDICT == {"Confirmed": 0, "Refuted": 1,
                                "Inconclusive": 2}


# ---------------------------------------------------------------------------
# membership


def test_membership_boundary(capsys):
    code = main(["membership", "--alpha", "2", "--p", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert _field(out, "classification") == "Boundary"
    assert float(_field(out, "product")) == pytest.approx(2.0)


def test_membership_evidence(capsys):
    code = main(["membership", "--alpha", "4", "--p", "0.5", "--evidence"])
    out = capsys.readouterr().out
    assert code == 0
    assert _field(out, "diagnostic").startswith("Divergent")
    assert "R=" in out


def test_membership_json_schema(capsys):
    code = main(["membership", "--alpha", "1", "--p", "1", "--evidence",
                 "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(payload) == {"alpha", "p", "product", "classification",
                            "evidence", "diagnostic"}
    assert payload["classification"] == "Member"
    assert payload["diagnostic"] == "Convergent"
    assert len(payload["evidence"]) >= 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_hp_counterexample(capsys):
    code = main(["sweep", "--case", "hp-counterexample", "--p-min", "0.1",
                 "--p-max", "0.9", "--steps", "5"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,norm_f_p,norm_g_p,norm_sum_p,defect,margin,verdict,reason"
    assert lines[-1] == "# Confirmed=5 Refuted=0 Inconclusive=0 SKIPPED=0"
    rows = read_sweep_csv(out)
    assert [r.verdict for r in rows] == ["Confirmed"] * 5


def test_sweep_csv_round_trip():
    rows = run_sweep("hp-counterexample", 0.2, 0.8, 4)
    assert read_sweep_csv(sweep_csv("hp-counterexample", rows)) == rows


def test_sweep_round_trip_with_skips_and_eps():
    rows = [SweepRow(p=0.4, eps=None, norm_f_p=None, norm_g_p=None,
                     norm_sum_p=None, defect=None, margin=None,
                     verdict="SKIPPED", reason="window is empty, p too low"),
            SweepRow(p=0.5, eps=1.0, norm_f_p=1.25, norm_g_p=1.25,
                     norm_sum_p=3.0, defect=0.5, margin=1e-9,
                     verdict="Confirmed")]
    text = sweep_csv("ap-large-p", rows)
    assert text.splitlines()[0].startswith("p,eps,")
    assert read_sweep_csv(text) == rows


def test_sweep_ap_large_p_skips_out_of_range(capsys):
    code = main(["sweep", "--case", "ap-large-p", "--p-min", "0.4",
                 "--p-max", "0.6", "--steps", "3"])
    out = capsys.readouterr().out
    assert code == 0  # SKIPPED rows do not affect the exit code
    rows = read_sweep_csv(out)
    assert rows[0].verdict == "SKIPPED" and rows[0].reason
    assert [r.verdict for r in rows[1:]] == ["Confirmed", "Confirmed"]
    assert rows[1].eps == pytest.approx(1.0)   # degenerate window at p=1/2
    assert "SKIPPED=1" in out.splitlines()[-1]


def test_sweep_emit_plot_data(tmp_path, capsys):
    plot = tmp_path / "defects.csv"
    code = main(["sweep", "--case", "hp-equality", "--p-min", "0.3",
                 "--p-max", "0.7", "--steps", "3",
                 "--emit-plot-data", str(plot)])
    capsys.readouterr()
    assert code == 0
    lines = plot.read_text().splitlines()
    assert lines[0] == "p,defect"
    assert len(lines) == 4


def test_sweep_json_payload(capsys):
    code = main(["sweep", "--case", "hp-equality", "--p-min", "0.3",
                 "--p-max", "0.5", "--steps", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(payload) == {"case", "rows", "summary"}
    assert payload["summary"]["Confirmed"] == 2


def test_run_sweep_validation():
    with pytest.raises(ValueError):
        run_sweep("lemma-cvh", 0.1, 0.9, 5)
    with pytest.raises(ValueError):
        run_sweep("hp-equality", 0.1, 0.9, 1)
    with pytest.raises(ValueError):
        run_sweep("hp-equality", 0.9, 0.1, 5)
    with pytest.raises(ValueError):
        run_sweep("ap-large-p", 0.5, 0.9, 3, eps_rule="sideways")


# ---------------------------------------------------------------------------
# top-level plumbing


def test_no_subcommand_exits_3(capsys):
    assert main([]) == 3
    capsys.readouterr()


def test_unknown_subcommand_exits_3(capsys):
    assert main(["frobnicate"]) == 3
    capsys.readouterr()


def test_cli_is_deterministic(capsys):
    argv = ["verify", "--case", "hp-counterexample", "--p", "0.5"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# one case table


_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _case_choices(command: str) -> tuple:
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return tuple(next(a.choices for a in sub.choices[command]._actions
                      if a.dest == "case"))


def test_readme_lists_exactly_the_table_cases():
    text = (_ROOT / "README.md").read_text()
    section = text.split("## Verification cases", 1)[1].split("\n## ", 1)[0]
    ids = [m.group(1) for m in re.finditer(r"^\| `([a-z-]+)`", section,
                                           re.MULTILINE)]
    assert ids == list(_CASES)


def test_case_choices_come_from_the_table():
    assert _case_choices("verify") == tuple(_CASES)
    assert _case_choices("sweep") == SWEEP_CASES
    assert SWEEP_CASES == tuple(k for k, c in _CASES.items() if c.subs)


def test_sweeps_script_writes_the_sweep_csv(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "run_counterexample_sweeps",
        _ROOT / "scripts" / "run_counterexample_sweeps.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    code = script.main(["--case", "hp-equality", "--steps", "2",
                        "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    rows = run_sweep("hp-equality", *script.RANGES["hp-equality"], 2)
    assert (tmp_path / "hp-equality.csv").read_text() == \
        sweep_csv("hp-equality", rows)
    assert (tmp_path / "hp-equality-defect.csv").read_text() == \
        plot_csv(rows)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["hp-equality-defect.csv", "hp-equality.csv"]
