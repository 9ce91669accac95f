"""No untyped deserialization: nothing under ``src/repro`` imports pickle.

Every frame a serve client, a campaign host or a debugger frontend
sends is decoded by the typed codec of :mod:`repro.core.framing`, which
runs no code; campaign payloads and cache keys are plain data.  This
test keeps ``pickle`` out of the package.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _imports_pickle(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "pickle" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "pickle":
                return True
    return False


def test_no_module_imports_pickle():
    importers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if _imports_pickle(ast.parse(path.read_text(), filename=str(path)))
    }
    assert importers == set()
