import importlib
import importlib.util
import pathlib
import sys

import pytest

from disknorms import bergman, hardy
from disknorms.expr import parse

_SPEC = importlib.util.spec_from_file_location(
    "tracer",
    pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tracer    # its dataclasses look their module up
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("module,path", [spec[:2] for spec in tracer.SPECS],
                         ids=[spec[2] for spec in tracer.SPECS])
def test_traced_function_exists_in_its_defining_module(module, path):
    # the tracer skips a name it cannot find and reports zero spans for it,
    # so a renamed or moved function would blind its per-layer metrics
    owner = importlib.import_module(f"{tracer._PACKAGE}.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
    assert owner.__module__ == f"{tracer._PACKAGE}.{module}"


def _traced(run):
    """The tracer's snapshot of run(), with the tracer removed afterwards."""
    t = tracer.Tracer()
    t.install()
    try:
        run()
        return t.snapshot()
    finally:
        t.uninstall()


def _sampled_points(snap):
    return snap["expr.near.points"] + snap["expr.value.points"]


# The count hooks read result slots by position (_circle_counts reads
# result[2], _radial_counts result[3]); a slot that moved would give counts
# that no longer add up to the points the evaluator sampled


def test_circle_mean_evaluations_equal_sampled_points():
    snap = _traced(lambda: hardy.hardy_norm(parse("1/(1-z)"), 0.5))
    assert snap["hardy.circle_mean.calls"] == 1
    assert snap["hardy.circle_mean.evaluations"] == _sampled_points(snap) > 0


def test_radial_inner_evaluations_equal_sampled_points():
    snap = _traced(lambda: bergman.bergman_norm(parse("1/(1-z)"), 1.0))
    outer = snap["bergman.radial.outer_nodes"]
    per_node = snap["bergman.radial.inner_evals_per_outer_node"]
    assert outer > 0
    assert round(per_node * outer) == _sampled_points(snap)
