"""Untyped deserialization is confined to one module.

Every frame a serve client or a campaign host sends is unpickled in
:mod:`repro.core.framing` and nowhere else; campaign payloads and cache
keys are plain data.  This test keeps it that way until the wire moves
to a typed codec and the allowed set becomes empty.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ALLOWED = {"core/framing.py"}


def _imports_pickle(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "pickle" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "pickle":
                return True
    return False


def test_pickle_is_imported_only_by_the_framing_module():
    importers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if _imports_pickle(ast.parse(path.read_text(), filename=str(path)))
    }
    assert importers == ALLOWED
