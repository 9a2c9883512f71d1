"""The library is stdlib-only, as ``requirements-ci.txt`` says.

``pyproject.toml`` declares no dependencies and CI installs only test
tooling, so a third-party import anywhere under ``src/repro`` breaks
every module that reaches it. This guard walks every absolute import of
the package: its top-level module must be ``repro``, ``__future__`` or
part of the standard library. Tests and examples may add only the test
tooling ``requirements-ci.txt`` installs.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
REPO = ROOT.parents[1]
ALLOWED = frozenset({"repro", "__future__"}) | frozenset(sys.stdlib_module_names)


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, top-level module)`` of every level-0 import in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, name.split(".")[0]) for name in names)
    return found


def test_the_library_imports_only_the_standard_library():
    foreign = [
        f"{path.relative_to(REPO)}:{line}: {module}"
        for path in sorted(ROOT.rglob("*.py"))
        for line, module in absolute_imports(path)
        if module not in ALLOWED
    ]
    assert foreign == []


def test_tests_and_examples_import_only_what_ci_installs():
    """Beyond the library's own allowance: the test tooling CI installs,
    and the test tree's own modules."""
    local = {"tests"} | {path.stem for path in (REPO / "tests").rglob("*.py")}
    allowed = ALLOWED | {"pytest", "hypothesis"} | local
    foreign = [
        f"{path.relative_to(REPO)}:{line}: {module}"
        for directory in ("tests", "examples")
        for path in sorted((REPO / directory).rglob("*.py"))
        for line, module in absolute_imports(path)
        if module not in allowed
    ]
    assert foreign == []
