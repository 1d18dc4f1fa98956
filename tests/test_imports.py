from __future__ import annotations

import ast
import pkgutil
from pathlib import Path

import pytest

import parityshield

PACKAGE = Path(parityshield.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(parityshield.__path__))


def _package_imports(module: str) -> list[tuple[str, list[str]]]:
    """(imported package module, names) for each import from the package."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.append((node.module or "",
                              [a.name for a in node.names]))
            elif (node.module or "").startswith("parityshield"):
                found.append((node.module, [a.name for a in node.names]))
        elif isinstance(node, ast.Import):
            found += [(a.name, []) for a in node.names
                      if a.name.startswith("parityshield")]
    return found


def test_oracle_imports_no_closed_form():
    # the oracle checks the closed forms, so it must not be built on them
    assert {module for module, _ in _package_imports("oracle")} == {
        "errors", "model"}


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_across_modules(module):
    private = [(source, name) for source, names in _package_imports(module)
               for name in names
               if name.startswith("_") and not name.startswith("__")]
    assert private == [], module


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    # an import outlives the deleted code that used it
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(bound - used) == [], module


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            yield node.target.id


def test_no_test_module_binds_a_name_twice():
    # pytest collects only the last of two same-named tests, and a second
    # constant of one name changes every test after it
    twice = []
    for path in sorted(TESTS.glob("*.py")):
        names = list(_top_level_names(ast.parse(path.read_text())))
        twice += sorted({f"{path.name}::{n}" for n in names
                         if names.count(n) > 1})
    assert twice == []
