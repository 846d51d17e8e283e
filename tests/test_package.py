"""Package hygiene: every module imports, every exported name exists, and
the runtime imports nothing outside NumPy and the standard library."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import attnmask

SRC = Path(attnmask.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(attnmask.__path__))


def test_modules_are_the_source_files():
    assert MODULES == sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_exported_names_resolve(name):
    module = attnmask if name == "__init__" else importlib.import_module(f"attnmask.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"attnmask.{name}.__all__ names undefined {missing}"
    assert len(set(exported)) == len(exported), f"attnmask.{name}.__all__ repeats a name"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_are_numpy_or_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    outside = sorted(r for r in roots if r != "numpy" and r not in sys.stdlib_module_names)
    assert not outside, f"{path.name} imports {outside}"


# losses binds boxes.iou without reading it: bench/layers.py wraps boxes.iou
# in every module that binds it, so the binding keeps the benchmark's iou
# span and call count unchanged
UNREAD_IMPORTS = {("losses.py", "iou")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    unused = sorted(n for n in imported - read - exported if (path.name, n) not in UNREAD_IMPORTS)
    assert not unused, f"{path.name} imports {unused} and never reads them"


def test_hypothesis_failure_reporter_imports_under_the_warning_filters(monkeypatch):
    # hypothesis imports its reporter, and with it libcst, only once an example
    # fails; a warning raised there under filterwarnings = error would end the
    # whole run with an INTERNALERROR instead of reporting the failure
    for name in [m for m in sys.modules if m.split(".")[0] == "libcst" or m == "hypothesis.extra._patching"]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("hypothesis.extra._patching")
