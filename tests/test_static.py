"""Static guards over the package source: stdlib only, no floats, and a
lean import path.

The package promises exact arithmetic with no dependencies.  Most tests
read ``src/plucker/*.py`` with ``ast`` (nothing is imported), so a stray
third-party import or float literal fails here even on a path that no
other test runs.  The import guard imports the package in a fresh
interpreter, since every command is a fresh process that pays for it.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plucker"
SOURCES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert "exact.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            assert top in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {module}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_literals(path):
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), (
                f"{path.name}:{node.lineno} has the literal {node.value!r}"
            )


def _float_names(tree):
    """(enclosing function names, line) for every use of the name ``float``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Name) and node.id == "float":
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_float_named_nowhere():
    # every scalar rule admits what it takes (int, Fraction), so no rule
    # needs the name float to refuse it
    uses = {
        (path.name, scope): line
        for path in SOURCES
        for scope, line in _float_names(parse(path))
    }
    assert not uses, uses


# Standard-library modules the package does not need at import time; each
# costs milliseconds per command (dataclasses alone pulls in inspect).
LAZY_MODULES = ("dataclasses", "inspect", "typing", "configparser")


def test_import_path_stays_lean():
    # -S: no site module, which may preload some of these on its own
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import plucker, plucker.cli, plucker.verify;"
        f"print(sorted(set({LAZY_MODULES!r}) & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
