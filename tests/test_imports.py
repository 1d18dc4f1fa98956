from __future__ import annotations

import ast
import pkgutil
from pathlib import Path

import pytest

import parityshield

PACKAGE = Path(parityshield.__file__).parent
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
