"""No driver reads the provenance domain by name.

``PROV_DOMAIN`` is the paper's one SimpleDB domain. Under a sharded
layout, a DynamoDB placement or a mixed one it does not exist, and A1
never has it: code that needs the provenance a cloud holds reads
``store.stored_bundles()`` (or routes through ``store.routing``), which
answers on every layout. PL005 covers router construction and
``.router`` writes, not a domain named outright, so this guard walks
every module of ``repro`` except ``core/base.py`` (which defines the
name) and fails on any mention of it: an import, a name or an
attribute.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
DEFINED_IN = Path("core", "base.py")
NAME = "PROV_DOMAIN"


def domain_reads(root: Path = ROOT) -> list[str]:
    """``path:line`` of every mention of :data:`NAME` outside its home."""
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative == DEFINED_IN:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                (isinstance(node, ast.Name) and node.id == NAME)
                or (isinstance(node, ast.Attribute) and node.attr == NAME)
                or (isinstance(node, ast.alias) and node.name == NAME)
            ):
                found.append(f"{relative}:{node.lineno}")
    return found


def test_no_module_reads_the_provenance_domain_by_name():
    assert domain_reads() == []


def test_the_guard_sees_every_kind_of_mention(tmp_path):
    (tmp_path / "advisor.py").write_text(
        "from repro.core.base import PROV_DOMAIN\n"
        "import repro.core.base as base\n"
        "items = backend.enumerate_items(base.PROV_DOMAIN)\n"
        "def hydrate(domain=PROV_DOMAIN):\n    pass\n"
        "label = 'PROV_DOMAIN'\n"
    )
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "base.py").write_text("PROV_DOMAIN = 'pass-prov'\n")
    assert domain_reads(tmp_path) == ["advisor.py:1", "advisor.py:3", "advisor.py:4"]
