"""numpy is the only runtime dependency: every import in the package
resolves to the standard library, numpy or gradpath itself; the
experiment harness does not reach the property suite; the bound
formulas import no objective types; and only the two number converters
catch TypeError."""

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


def test_bounds_imports_only_stdlib_and_errors():
    # every bound is a formula of numbers; none needs an objective type or numpy
    modules = {name for name, _ in _imports(PACKAGE / "bounds.py")}
    assert {m for m in modules if m.split(".")[0] not in sys.stdlib_module_names} == {"gradpath.errors"}


def _type_error_handlers(path):
    """``module.function`` of each except handler in ``path`` that names
    TypeError, with the innermost function around it."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(c, ast.Name) and c.id == "TypeError" for c in caught):
                found.append(f"{path.stem}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_only_the_number_converters_catch_type_error():
    # they turn malformed numbers into InputError; anywhere else a caught
    # TypeError would hide a bug in the package as bad input
    handlers = sorted(h for path in sorted(PACKAGE.glob("*.py")) for h in _type_error_handlers(path))
    assert handlers == ["errors.finite_number", "objectives.finite_vector"]
