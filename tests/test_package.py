"""Package hygiene: every module imports, every exported name exists, the
runtime imports nothing outside NumPy and the standard library, and the
README's box example runs as written."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import attnmask

SRC = Path(attnmask.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"
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


# losses and metrics bind boxes.iou without reading it: bench/layers.py wraps
# boxes.iou in every module that binds it, and bench/test_bench.py checks
# both bindings
UNREAD_IMPORTS = {("losses.py", "iou"), ("metrics.py", "iou")}


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


# the corner Box record is made only where boxes leave the package: infer's
# detections and the row records a GTTable yields to readers outside the
# evaluator; everything else, the COCO reader included, passes (N, 4) rows
BOX_MAKERS = {("model.py", "infer"), ("metrics.py", "__iter__")}


def _box_calls(node, where):
    """(file, innermost enclosing function) of every Box(...) call under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = (where[0], node.name)
    found = set()
    if isinstance(node, ast.Call) and "Box" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
        found.add(where)
    for child in ast.iter_child_nodes(node):
        found |= _box_calls(child, where)
    return found


def test_box_records_are_made_only_at_the_boundaries():
    makers = set()
    for path in SRC.glob("*.py"):
        makers |= _box_calls(ast.parse(path.read_text(), filename=str(path)), (path.name, None))
    assert makers == BOX_MAKERS


def test_hypothesis_failure_reporter_imports_under_the_warning_filters(monkeypatch):
    # hypothesis imports its reporter, and with it libcst, only once an example
    # fails; a warning raised there under filterwarnings = error would end the
    # whole run with an INTERNALERROR instead of reporting the failure
    for name in [m for m in sys.modules if m.split(".")[0] == "libcst" or m == "hypothesis.extra._patching"]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("hypothesis.extra._patching")


def test_readme_box_example_runs_and_states_its_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    (example,) = [b for b in blocks if "from attnmask.boxes import" in b]
    scope = {}
    exec(compile(example, "README.md", "exec"), scope)
    assert scope["overlap"].shape == (2, 2)
    assert scope["overlap"][0, 1] == pytest.approx(0.45, abs=0.005)
    assert scope["kept"] == [0] and scope["apart"] == [0, 1]
    assert np.array_equal(scope["same"], scope["rows"])
    assert scope["pooled"].shape == (2, 8, 7, 7)
    assert scope["masks"].shape == (2, 64, 64) and scope["masks"].dtype == bool
