"""numpy and the ``REPRO_PURE_PYTHON`` switch stay confined to the batch engine.

The batched SoA engine (``src/repro/cpu/batch.py``) is the only
numpy-backed path in the library; every other layer has exactly one
pure-Python implementation.  This test parses ``src/`` with the stdlib
``ast`` module and fails when a second module imports numpy or reads
the ``REPRO_PURE_PYTHON`` environment variable, so a duplicate numpy
twin of an existing path cannot come back unnoticed.
"""

from __future__ import annotations

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
BATCH_ENGINE = "src/repro/cpu/batch.py"
SWITCH = "REPRO_PURE_PYTHON"


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(REPO).as_posix(), ast.parse(path.read_text())


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(
            alias.name == "numpy" or alias.name.startswith("numpy.")
            for alias in node.names
        )
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module == "numpy" or module.startswith("numpy.")
    return False


def test_numpy_imported_only_by_batch_engine():
    importers = {
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if _imports_numpy(node) and name != BATCH_ENGINE
    }
    assert not importers, (
        f"numpy is imported outside {BATCH_ENGINE}: {sorted(importers)}"
    )


def test_pure_python_switch_read_only_by_batch_engine():
    readers = set()
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value == SWITCH:
                readers.add(name)
    assert readers == {BATCH_ENGINE}
