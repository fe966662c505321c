"""numpy is the only runtime dependency: every import in the package
resolves to the standard library, numpy or gradpath itself; and the
experiment harness does not reach the property suite."""

import ast
import re
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradpath"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _imports(path):
    """(module, line) of every import in ``path``; gradpath.<module> for relative ones."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module, node.lineno
                continue
            # a relative import names a package module, either as the
            # module part (from .errors import X) or as the names (from . import bounds)
            targets = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
            for target in targets:
                assert target in MODULES, f"{path.name}:{node.lineno}: no module gradpath.{target}"
                yield f"gradpath.{target}", node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_gradpath(path):
    allowed = set(sys.stdlib_module_names) | {"numpy", "gradpath"}
    foreign = [(name, line) for name, line in _imports(path) if name.split(".")[0] not in allowed]
    assert foreign == [], f"{path.name} imports outside stdlib/numpy/gradpath: {foreign}"


def test_pyproject_declares_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]



def test_harness_does_not_import_properties():
    # the suite runs as `gradpath suite` only; the harness makes rows and nothing else
    modules = {name for name, _ in _imports(PACKAGE / "harness.py")}
    assert "gradpath.properties" not in modules
    assert "gradpath.bounds" in modules  # the walk sees the package imports
