from __future__ import annotations

import ast
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import parityshield

PACKAGE = Path(parityshield.__file__).parent
TESTS = Path(__file__).parent
ROOT = TESTS.parent
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


def test_cli_import_leaves_out_unneeded_stdlib():
    # every run pays for what importing the CLI loads: configparser is
    # only for --config, and the SVG escapes its text without html
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, parityshield.cli; print(sorted("
         "{'configparser', 'html', 'html.entities'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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


def _type_refusals(tree: ast.AST) -> list[int]:
    """Lines of the ifs in tree that test not isinstance(...) and do nothing
    but raise."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.If) and not node.orelse
            and all(isinstance(s, ast.Raise) for s in node.body)
            and any(isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.Not)
                    and isinstance(n.operand, ast.Call)
                    and getattr(n.operand.func, "id", None) == "isinstance"
                    for n in ast.walk(node.test))]


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"errors"}))
def test_type_refusals_go_through_expect(module):
    # errors.expect is the one code that refuses an argument for its type,
    # so every such refusal names the type taken and the type given alike
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert _type_refusals(tree) == [], module


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


def _references(tree: ast.AST) -> Counter:
    """How often each name is read (an ast.Name not stored to) or taken as
    an attribute in tree."""
    return Counter(
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store))


def test_no_test_module_keeps_an_unread_private_name():
    # a private helper or constant of a test module that nothing in the
    # module reads outside its own definition outlived the tests it served
    unread = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _references(tree)
        unread += [f"{path.name}::{name}" for node in tree.body
                   for name in _top_level_names(ast.Module([node], []))
                   if name.startswith("_") and not name.startswith("__")
                   and read[name] == _references(node)[name]]
    assert unread == []


def test_every_package_name_is_used():
    # a top-level name of the package that nothing reads outside its own
    # definition, in src/ or tests/, and that neither the README nor the
    # benchmark names, is dead code
    trees = {path: ast.parse(path.read_text())
             for path in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]}
    read = sum(map(_references, trees.values()), Counter())
    named = set(re.findall(r"\w+", "\n".join(
        path.read_text() for path in [ROOT / "README.md",
                                      *(ROOT / "perfbench").glob("*.py")])))
    dead = [f"{path.stem}.{name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in trees[path].body
            for name in _top_level_names(ast.Module([node], []))
            if not (name.startswith("__") and name.endswith("__"))
            and read[name] == _references(node)[name] and name not in named]
    assert dead == []


def _text_io_without_encoding(tree: ast.AST) -> list[int]:
    """Lines of the open, read_text and write_text calls in tree that pass
    neither encoding= nor a binary mode."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
        if name not in ("open", "read_text", "write_text"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        # builtin open(file, mode); Path.open(mode)
        modes = [keywords.get("mode")] if name != "open" else [
            keywords.get("mode"),
            *(node.args[1:2] if isinstance(func, ast.Name) else node.args[:1])]
        binary = any(isinstance(m, ast.Constant) and "b" in str(m.value)
                     for m in modes)
        if "encoding" not in keywords and not binary:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", MODULES)
def test_text_files_name_their_encoding(module):
    # a file opened in the locale's encoding makes the output bytes (or a
    # UnicodeError) depend on the machine; every text file is UTF-8
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert _text_io_without_encoding(tree) == [], module
