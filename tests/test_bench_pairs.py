import importlib.util
import json
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs",
    pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_BETTER = {"wall_ref": "lower", "min_digits": "higher"}


def _stdout(wall_ref, digits, digest="ab12", correct=True, wall_s=1.5):
    """The last lines perfbench/run.py prints for one untraced run."""
    metrics = {"wall_ref": {"value": wall_ref, "unit": "ref"},
               "min_digits": {"value": digits, "unit": "digits"}}
    return "\n".join([
        f"w wall_s = {wall_s:.6g} s, cold start = 0.3 s (raw, not steady on "
        f"a shared machine; wall_ref and setup_s are)",
        f"w wall_ref = {wall_ref:.6g} ref",
        f"w min_digits = {digits:.6g} digits",
        "w ops_failed_frac = 0 (0 of 12)",
        f"w outputs_sha256 = {digest}",
        json.dumps({"correct": correct, "attempted": 12, "failed": 0,
                    "metrics": metrics}),
    ]) + "\n"


def _runs(parent, change):
    return {"parent": [bench_pairs.parse_run(_stdout(*a)) for a in parent],
            "change": [bench_pairs.parse_run(_stdout(*a)) for a in change]}


def test_parse_run_reads_the_json_line_and_the_digest():
    r = bench_pairs.parse_run(_stdout(101.5, 11.0, digest="f00d"))
    assert r["digest"] == "f00d"
    assert r["metrics"]["wall_ref"] == {"value": 101.5, "unit": "ref"}
    assert (r["correct"], r["attempted"], r["failed"]) == (True, 12, 0)


def test_summary_of_four_pairs():
    runs = _runs(parent=[(100, 11), (104, 11), (96, 12), (108, 11)],
                 change=[(90, 11), (105, 12), (80, 12), (70, 11)])
    block = bench_pairs.summarize(runs, _BETTER)
    wall = block["end_to_end"]["wall_ref"]
    assert wall["unit"] == "ref"
    assert (wall["parent_median"], wall["change_median"]) == (102, 85)
    assert wall["change_frac"] == pytest.approx(85 / 102 - 1.0)
    assert wall["parent_quartiles"] == [99, 105]    # linear interpolation
    assert wall["change_quartiles"] == [77.5, 93.75]
    assert wall["change_wins_of_4_pairs"] == 3      # lower wins
    assert wall["parent_runs"] == [100, 104, 96, 108]
    assert wall["change_runs"] == [90, 105, 80, 70]
    digits = block["end_to_end"]["min_digits"]
    assert digits["change_wins_of_4_pairs"] == 1    # higher wins, ties none
    assert block["outputs_sha256"] == {"parent": ["ab12"],
                                       "change": ["ab12"], "equal": True}
    assert block["all_runs_correct"] == {"parent": True, "change": True}


def test_summary_keeps_the_raw_wall_seconds_without_a_verdict():
    # wall_ref and the raw seconds can disagree in sign: the block keeps
    # both, and judges wall_ref only
    assert bench_pairs.parse_run(_stdout(101.5, 11.0, wall_s=1.34))[
        "wall_s"] == 1.34
    runs = _runs(parent=[(100, 11, "ab12", True, s) for s in (1.3, 1.4, 1.2)],
                 change=[(90, 11, "ab12", True, s) for s in (1.1, 1.5, 1.0)])
    block = bench_pairs.summarize(runs, _BETTER, _BOUNDS)
    assert block["wall_s"] == {
        "unit": "s", "parent_median": 1.3, "change_median": 1.1,
        "change_frac": pytest.approx(1.1 / 1.3 - 1.0),
        "parent_quartiles": pytest.approx([1.25, 1.35]),
        "change_quartiles": pytest.approx([1.05, 1.3]),
        "parent_runs": [1.3, 1.4, 1.2], "change_runs": [1.1, 1.5, 1.0]}
    assert block["end_to_end"]["wall_ref"]["verdict"] == "gain"
    # a run that printed no wall_s leaves the raw seconds out
    no_wall = {"parent": runs["parent"],
               "change": [{k: v for k, v in r.items() if k != "wall_s"}
                          for r in runs["change"]]}
    assert "wall_s" not in bench_pairs.summarize(no_wall, _BETTER)


def test_summary_flags_digests_and_failed_runs():
    runs = _runs(parent=[(100, 11, "ab12"), (100, 11, "ab12")],
                 change=[(90, 11, "ab12"), (90, 11, "cd34", False)])
    block = bench_pairs.summarize(runs, _BETTER)
    assert block["outputs_sha256"] == {"parent": ["ab12"],
                                       "change": ["ab12", "cd34"],
                                       "equal": False}
    assert block["all_runs_correct"] == {"parent": True, "change": False}


_BOUNDS = {"wall_ref": 0.15, "min_digits": 0.1}


def _verdicts(parent, change):
    block = bench_pairs.summarize(_runs(parent, change), _BETTER, _BOUNDS)
    return {name: m["verdict"] for name, m in block["end_to_end"].items()}


def test_gain_needs_nine_tenths_of_the_pairs_and_a_clear_median():
    parent = [(100 + i % 3, 11) for i in range(10)]     # quartiles 100, 102
    change = [(60 + i % 3, 11) for i in range(10)]
    assert _verdicts(parent, change) == {"wall_ref": "gain",
                                         "min_digits": "within bound"}
    # 8 of 10 pairs won is no gain, though the median moved as far
    lost = change[:8] + [(105, 11), (105, 11)]
    assert _verdicts(parent, lost)["wall_ref"] == "within bound"


def test_gain_needs_medians_apart_by_more_than_the_parents_spread():
    parent = [(95, 11), (105, 11)] * 5                  # quartiles 95, 105
    change = [(92, 11), (102, 11)] * 5                  # wins every pair
    assert _verdicts(parent, change)["wall_ref"] == "within bound"


def test_regression_is_worse_than_the_bound():
    parent = [(100, 12)] * 10
    assert _verdicts(parent, [(114, 12)] * 10)["wall_ref"] == "within bound"
    assert _verdicts(parent, [(116, 12)] * 10)["wall_ref"] == "regression"
    # higher is better for digits: 10.7 is within 10% of 12, 10.7 not
    assert _verdicts(parent, [(100, 10.9)] * 10)["min_digits"] == \
        "within bound"
    assert _verdicts(parent, [(100, 10.7)] * 10)["min_digits"] == \
        "regression"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [(60, 11), (140, 11)] * 5                  # quartiles 60, 140
    change = [(70, 11), (130, 11)] * 5
    assert _verdicts(parent, change)["wall_ref"] == "unresolved"
    # unless every change run beats every parent run
    assert _verdicts(parent, [(50, 11)] * 10)["wall_ref"] == "within bound"


def _checkouts(tmp_path):
    """A parent and a change checkout, with the change's BENCHMARK.json."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}, {"name": "bergman-pole"}],
        "end_to_end": [{"name": "wall_ref", "better": "lower", "bound": 0.15},
                       {"name": "min_digits", "better": "higher",
                        "bound": 0.1}]}))
    return [str(tmp_path / "parent"), str(tmp_path / "change")]


def test_main_adds_the_verdicts_from_the_benchmark_spec(tmp_path, monkeypatch):
    checkouts = _checkouts(tmp_path)
    walls = iter([100, 60, 60, 100])       # parent first, then change first

    def fake_run(checkout, workload, seed, seconds, trace):
        return bench_pairs.parse_run(_stdout(next(walls), 11.0))

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([*checkouts, "--workload", "w", "--pairs", "2",
                             "--seeds", "7", "--out", str(out)]) == 0
    block = json.loads(out.read_text())["workloads"]["w"]["end_to_end"]
    assert block["wall_ref"]["verdict"] == "gain"
    assert block["min_digits"]["verdict"] == "within bound"


def test_main_rejects_a_workload_the_spec_does_not_list(tmp_path, monkeypatch,
                                                        capsys):
    def no_run(*args):
        raise AssertionError("a run started for an unknown workload")

    monkeypatch.setattr(bench_pairs, "run", no_run)
    with pytest.raises(SystemExit) as info:
        bench_pairs.main([*_checkouts(tmp_path), "--workload", "bergman_pole",
                          "--pairs", "2", "--seeds", "7", "--trace-seed", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "'bergman_pole' is not in the change's BENCHMARK.json" in err
    assert err.rstrip().endswith("w, bergman-pole")


def _traced(values, digest="ab12"):
    """A traced run's result with per-layer metrics name: (value, unit)."""
    return {"correct": True, "attempted": 12, "failed": 0, "digest": digest,
            "metrics": {name: {"value": v, "unit": u}
                        for name, (v, u) in values.items()}}


def test_per_layer_lists_the_counts_that_differ():
    parent = {"quad.panel.calls": (120, "count"),
              "quad.panel.self_s": (0.5, "s"),
              "expr.near.points": (3000, "count"),
              "trace.spans": (900, "count"),
              "quad.integrate.converged_frac": (0.5, "frac")}
    change = {**parent, "quad.panel.self_s": (0.4, "s"),
              "trace.spans": (910, "count"),
              "quad.integrate.converged_frac": (0.75, "frac")}
    block = bench_pairs.per_layer({"parent": [_traced(parent)],
                                   "change": [_traced(change)]})
    # seconds and fractions may move; only counts are listed
    assert block["counts_differ"] == ["trace.spans"]
    assert block["per_layer"]["trace.spans"] == {
        "unit": "count", "parent": 900, "change": 910,
        "parent_runs": [900], "change_runs": [910]}
    assert block["counts_unrepeated"] == {"parent": [], "change": []}
    same = bench_pairs.per_layer({"parent": [_traced(parent)],
                                  "change": [_traced(parent)]})
    assert same["counts_differ"] == []


def test_traced_runs_alternate_by_seed_and_report_medians(tmp_path,
                                                          monkeypatch):
    calls = []
    # the change's second traced run counts one more span than its others
    spans = {("parent", 5): 900, ("change", 5): 900, ("parent", 6): 900,
             ("change", 6): 901, ("parent", 7): 900, ("change", 7): 900}
    self_s = {("parent", 5): 0.5, ("change", 5): 0.4, ("parent", 6): 0.9,
              ("change", 6): 0.2, ("parent", 7): 0.6, ("change", 7): 0.3}

    def fake_run(checkout, workload, seed, seconds, trace):
        side = pathlib.Path(checkout).name
        calls.append((side, seed, trace))
        if not trace:
            return bench_pairs.parse_run(_stdout(100, 11.0))
        return _traced({"quad.panel.self_s": (self_s[side, seed], "s"),
                        "trace.spans": (spans[side, seed], "count"),
                        "quad.panel.calls": (120, "count")},
                       digest=f"{side}-digest")

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([*_checkouts(tmp_path), "--workload", "w",
                             "--pairs", "1", "--seeds", "3",
                             "--trace-seed", "5", "6", "7",
                             "--out", str(out)]) == 0
    # one traced run per seed and side, the parent first on even seeds
    assert calls == [("parent", 3, 0), ("change", 3, 0),
                     ("parent", 5, 1), ("change", 5, 1),
                     ("change", 6, 1), ("parent", 6, 1),
                     ("parent", 7, 1), ("change", 7, 1)]
    block = json.loads(out.read_text())["workloads"]["w"]
    assert block["per_layer"]["quad.panel.self_s"] == {
        "unit": "s", "parent": 0.6, "change": 0.3,
        "parent_runs": [0.5, 0.9, 0.6], "change_runs": [0.4, 0.2, 0.3]}
    # medians equal, but the change's runs do not repeat their count
    assert block["counts_differ"] == []
    assert block["counts_unrepeated"] == {"parent": [],
                                          "change": ["trace.spans"]}
    assert block["traced_failed_of_attempted"] == {
        "parent": [[0, 12]] * 3, "change": [[0, 12]] * 3}
    assert block["traced_outputs_sha256"] == {"parent": ["parent-digest"],
                                              "change": ["change-digest"]}
    assert block["traced_runs_correct"] == {"parent": True, "change": True}
