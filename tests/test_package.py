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
