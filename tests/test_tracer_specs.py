import importlib
import importlib.util
import pathlib
import sys

import pytest

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
