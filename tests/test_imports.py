import ast
import importlib
import pathlib

import pytest

import disknorms

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src" / "disknorms"


def _unused_imports(tree: ast.Module) -> list:
    """The names tree imports that it neither uses nor lists in __all__;
    a name only a docstring or comment mentions counts as unused."""
    imported = [a.asname or a.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = {c.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [name for name in imported if name not in used | exported]


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")) + sorted(
    _ROOT.glob("tests/*.py")) + sorted(_ROOT.glob("scripts/*.py")),
    ids=lambda p: p.name if p.parent == _SRC else str(p.relative_to(_ROOT)))
def test_every_import_is_used_or_exported(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


_MODULES = sorted(f"disknorms.{p.stem}" for p in _SRC.glob("*.py")
                  if p.stem != "__init__")


@pytest.mark.parametrize("name", ["disknorms"] + _MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_come_from_module_exports():
    exported = {n for m in _MODULES for n in importlib.import_module(m).__all__}
    assert [n for n in disknorms.__all__
            if n != "__version__" and n not in exported] == []


def _unreferenced_private_definitions(trees: list) -> list:
    """The private (_-prefixed, non-dunder) functions and classes defined in
    trees that no name or attribute in trees refers to outside their own
    definition."""
    refs = [node for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.endswith("__")):
                inside = set(map(id, ast.walk(node)))
                if not any(getattr(r, "id", getattr(r, "attr", None))
                           == node.name and id(r) not in inside for r in refs):
                    unused.append(node.name)
    return unused


def test_every_private_definition_is_referenced():
    trees = [ast.parse(p.read_text()) for p in sorted(_SRC.glob("*.py"))]
    assert _unreferenced_private_definitions(trees) == []


def _unread_private_constants(trees: list) -> list:
    """The private (_-prefixed, non-dunder) names that trees assign at
    module level and that no name or attribute in trees reads."""
    read = {getattr(n, "id", getattr(n, "attr", None))
            for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))}
    assigned = [t.id for tree in trees for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [name for name in assigned if name.startswith("_")
            and not name.endswith("__") and name not in read]


def test_unread_private_constants_are_found():
    tree = ast.parse("_STALE = 4\n_A, _B = 1, 2\n_C: int = 3\nx = _B + f._C\n")
    assert _unread_private_constants([tree]) == ["_STALE", "_A"]


def test_every_private_constant_is_read():
    trees = [ast.parse(p.read_text()) for p in sorted(_SRC.glob("*.py"))]
    assert _unread_private_constants(trees) == []
