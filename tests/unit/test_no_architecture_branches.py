"""Drivers never branch on the architecture.

What differs between the three architectures lives in their store
classes: the store protocols, the ``pump`` / ``wal_backlog`` hooks, and
the ``has_provenance_domain`` declaration of what A1 lacks, and the
``stored_provenance()`` oracle. Everything that drives a store — the
simulation, the fleet, the CLI, the matrix runner, the engines, the
Table 1 property checks — calls those hooks or reads that attribute.
This guard walks every module of ``repro`` outside ``core/`` (where the
architectures themselves live) and ``analysis/`` (cost tables keyed by
row label, no store involved) and fails on any comparison or set
arithmetic against an architecture name (``==``, ``in``, ``- {"s3"}``)
or any ``isinstance`` / ``issubclass`` test on a store class.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from repro.core import ARCHITECTURES, ProvenanceCloudStore

ROOT = Path(repro.__file__).parent
EXEMPT = ("core", "analysis")
NAMES = frozenset(ARCHITECTURES)
STORE_CLASSES = frozenset(
    [ProvenanceCloudStore.__name__] + [cls.__name__ for cls in ARCHITECTURES.values()]
)


def _constants(node: ast.AST) -> list[object]:
    """Constants an operand spells (a container literal's too)."""
    if isinstance(node, ast.Constant):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [value for element in node.elts for value in _constants(element)]
    return []


def _class_names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Tuple):
        return [name for element in node.elts for name in _class_names(element)]
    return []


def architecture_branches(root: Path = ROOT) -> list[str]:
    """``path:line`` of every architecture test outside the exempt packages."""
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative.parts[0] in EXEMPT:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Compare, ast.BinOp)):
                operands = (
                    [node.left, *node.comparators]
                    if isinstance(node, ast.Compare)
                    else [node.left, node.right]
                )
                hit = any(
                    value in NAMES for operand in operands for value in _constants(operand)
                )
            elif isinstance(node, ast.MatchValue):
                hit = any(value in NAMES for value in _constants(node.value))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass")
                and len(node.args) == 2
            ):
                hit = bool(STORE_CLASSES.intersection(_class_names(node.args[1])))
            else:
                continue
            if hit:
                found.append((str(relative), node.lineno))
    return [f"{path}:{line}" for path, line in sorted(found)]


def test_no_driver_branches_on_the_architecture():
    assert architecture_branches() == []


def test_the_guard_sees_both_kinds_of_branch(tmp_path):
    (tmp_path / "driver.py").write_text(
        "if sim.architecture != 's3':\n    pass\n"
        "if arch in ('x', 's3+simpledb+sqs'):\n    pass\n"
        "if isinstance(store, (int, S3SimpleDBSQS)):\n    pass\n"
        "if isinstance(store, repro.core.S3Standalone):\n    pass\n"
        "if store.name == 'unrelated':\n    pass\n"
        "supported = set(ARCHITECTURES) - {'s3'}\n"
    )
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "store.py").write_text("if name == 's3':\n    pass\n")
    assert architecture_branches(tmp_path) == [
        "driver.py:1", "driver.py:3", "driver.py:5", "driver.py:7", "driver.py:11",
    ]
