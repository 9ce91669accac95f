"""One engine for every replay analysis: unfused code is named in two places.

Every VM fuses; the profiler, coverage, the race detector and slim
recording see the canonical ops behind superinstructions through their
hooks.  The replay debugger (``debugger/session.py``) is the one tool
that runs unfused code, because a breakpoint can sit inside a
superinstruction, and ``api.ENGINE_PRESETS`` is the ablation table the
fused-vs-unfused tests and benchmarks build from.  This test keeps it
so: outside ``vm/engineconfig.py``, nothing else under ``src/repro``
names the unfused engine, and the old per-tool fork is gone for good.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _names_unfused(node: ast.AST) -> bool:
    """``EngineConfig.baseline`` / ``.all_combinations``, ``fusion=False``,
    or a ``"baseline"`` key of ``ENGINE_PRESETS``."""
    if isinstance(node, ast.Attribute):
        return (
            node.attr in ("baseline", "all_combinations")
            and isinstance(node.value, ast.Name)
            and node.value.id == "EngineConfig"
        )
    if isinstance(node, ast.keyword):
        return (
            node.arg == "fusion"
            and isinstance(node.value, ast.Constant)
            and node.value.value is False
        )
    if isinstance(node, ast.Subscript):
        return (
            isinstance(node.value, ast.Name)
            and node.value.id == "ENGINE_PRESETS"
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == "baseline"
        )
    return False


def _presets_lines(tree: ast.Module) -> "set[int]":
    """The lines of the ``ENGINE_PRESETS = {...}`` assignment."""
    lines: set[int] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENGINE_PRESETS" for t in node.targets
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _namers() -> "dict[str, list[int]]":
    """module -> lines naming the unfused engine, engineconfig.py excluded."""
    found: dict[str, list[int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "vm/engineconfig.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if _names_unfused(node) and hasattr(node, "lineno")
        ]
        if rel == "api.py":
            presets = _presets_lines(tree)
            lines = [n for n in lines if n not in presets]
        if lines:
            found[rel] = lines
    return found


def test_only_the_debugger_names_the_unfused_engine():
    assert set(_namers()) == {"debugger/session.py"}


def test_the_ablation_table_keeps_its_baseline():
    tree = ast.parse((SRC / "api.py").read_text())
    presets = _presets_lines(tree)
    assert presets and any(
        _names_unfused(node) and node.lineno in presets
        for node in ast.walk(tree)
        if hasattr(node, "lineno")
    )


def test_no_per_tool_engine_fork():
    assert [
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "hooked_config" in path.read_text()
    ] == []
