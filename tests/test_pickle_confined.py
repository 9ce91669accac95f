"""No untyped deserialization: nothing under ``src/repro`` imports pickle.

Every frame a serve client, a campaign host or a debugger frontend
sends is decoded by the typed codec of :mod:`repro.core.framing`, which
runs no code; campaign payloads and cache keys are plain data.  This
test keeps ``pickle`` out of the package, and ``pytest`` too: the test
fixtures live under ``tests/``, so the product never imports its test
runner.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _imports(tree: ast.AST, module: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == module for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == module:
                return True
    return False


def _importers(module: str) -> "set[str]":
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if _imports(ast.parse(path.read_text(), filename=str(path)), module)
    }


def test_no_module_imports_pickle():
    assert _importers("pickle") == set()


def test_no_module_imports_pytest():
    assert _importers("pytest") == set()
