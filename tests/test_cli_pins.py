"""Byte pins of the command line.

Each entry runs `disknorms` with fixed flags and compares exit code, stdout
and stderr (and the plot file of `--emit-plot-data`) with the bytes in
tests/data/cli_pins.json.  Those bytes were recorded before the verification
cases were collected into one table, so any change in a number, verdict,
message, choice list or CSV byte shows here.
"""
import json
import pathlib

import pytest

from disknorms.cli import main

_PINS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_pins.json").read_text())

FAST = ["--abs-tol", "1e-8", "--rel-tol", "1e-6"]

RUNS = {
    # verify --json, every case
    "verify-lemma-cvh": ["verify", "--case", "lemma-cvh", "--expr", "1/(1-z)",
                         "--p", "0.5", "--json"],
    "verify-lemma-cv": ["verify", "--case", "lemma-cv", "--expr", "1+z",
                        "--p", "1", "--json", *FAST],
    "verify-lemma-elem": ["verify", "--case", "lemma-elem", "--a", "2",
                          "--b", "1", "--q", "1.5", "--json"],
    "verify-lemma-ap": ["verify", "--case", "lemma-ap", "--alpha", "1",
                        "--p", "1", "--json"],
    "verify-hp-counterexample": ["verify", "--case", "hp-counterexample",
                                 "--p", "0.5", "--json"],
    "verify-hp-equality": ["verify", "--case", "hp-equality", "--p", "0.3",
                           "--json"],
    "verify-ap-large-p": ["verify", "--case", "ap-large-p", "--p", "0.5",
                          "--eps", "1", "--json", *FAST],
    "verify-ap-small-p": ["verify", "--case", "ap-small-p", "--p", "0.4",
                          "--json", *FAST],
    "verify-means-monotone": ["verify", "--case", "means-monotone",
                              "--expr", "1/(1-z)", "--p", "0.5", "--json"],
    "verify-rotation-invariance": ["verify", "--case", "rotation-invariance",
                                   "--expr", "(1+z)^2/(2-z)", "--p", "1",
                                   "--angle", "0.3", "--space", "bergman",
                                   "--json", *FAST],
    # plain-text verify output
    "verify-text-hp-counterexample": ["verify", "--case",
                                      "hp-counterexample", "--p", "0.25"],
    # sweeps, CSV
    "sweep-hp-counterexample": ["sweep", "--case", "hp-counterexample",
                                "--p-min", "0.2", "--p-max", "0.8",
                                "--steps", "3"],
    "sweep-hp-equality": ["sweep", "--case", "hp-equality", "--p-min", "0.3",
                          "--p-max", "0.5", "--steps", "2",
                          "--emit-plot-data", "PLOT"],
    "sweep-ap-large-p": ["sweep", "--case", "ap-large-p", "--p-min", "0.45",
                         "--p-max", "0.55", "--steps", "3", *FAST],
    "sweep-ap-small-p": ["sweep", "--case", "ap-small-p", "--p-min", "0.3",
                         "--p-max", "0.6", "--steps", "2", *FAST],
    # usage and input errors
    "error-missing-p": ["verify", "--case", "hp-equality"],
    "error-missing-p-before-eps": ["verify", "--case", "ap-large-p"],
    "error-missing-eps": ["verify", "--case", "ap-large-p", "--p", "0.6"],
    "error-missing-expr-and-p": ["verify", "--case", "lemma-cvh"],
    "error-missing-b": ["verify", "--case", "lemma-elem", "--a", "1"],
    "error-missing-alpha": ["verify", "--case", "lemma-ap", "--p", "1"],
    "error-unknown-case": ["verify", "--case", "hp-miracle", "--p", "0.3"],
    "error-not-sweepable": ["sweep", "--case", "lemma-cvh", "--p-min", "0.1",
                            "--p-max", "0.9", "--steps", "3"],
    "error-eps-window": ["verify", "--case", "ap-large-p", "--p", "0.75",
                         "--eps", "0.9"],
    "error-p-range": ["verify", "--case", "hp-counterexample", "--p", "1.5"],
    "error-parse": ["verify", "--case", "lemma-cvh", "--expr", "1+***",
                    "--p", "1"],
    "error-steps": ["sweep", "--case", "hp-equality", "--p-min", "0.1",
                    "--p-max", "0.9", "--steps", "1"],
    "error-eps-rule": ["sweep", "--case", "ap-large-p", "--p-min", "0.5",
                       "--p-max", "0.9", "--steps", "3",
                       "--eps-rule", "sideways"],
    # norms: divergent and declared singular angles
    "norm-hardy-divergent": ["norm", "--space", "hardy", "--expr", "1/(1-z)",
                             "--p", "1", "--json"],
    "norm-bergman-divergent": ["norm", "--space", "bergman",
                               "--expr", "1/(1-z)^2", "--p", "1", "--json"],
    "norm-hardy-declared": ["norm", "--space", "hardy", "--expr", "1/(1-z)",
                            "--p", "0.5", "--singular", "0"],
    "norm-bergman-declared": ["norm", "--space", "bergman",
                              "--expr", "1/(1-z)", "--p", "1",
                              "--singular", "0", *FAST],
}


def run(argv, tmp_path, capsys) -> dict:
    plot = tmp_path / "plot.csv"
    argv = [str(plot) if a == "PLOT" else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    record = {"code": code, "out": captured.out, "err": captured.err}
    if plot.exists():
        record["plot"] = plot.read_text()
    return record


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_bytes(name, tmp_path, capsys):
    assert run(RUNS[name], tmp_path, capsys) == _PINS[name]


def test_every_pin_runs():
    assert sorted(_PINS) == sorted(RUNS)
