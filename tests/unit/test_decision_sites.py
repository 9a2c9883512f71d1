"""Each DynamoDB-side decision is counted at one site.

The DynamoDB adapter decides, per request, whether an index serves a
read, whether a stale index forces a fallback, whether a query falls
back to a Scan, and how to ride out a throttle. Each decision has one
counter, and each counter is moved at exactly one place in
``aws/backend.py``: the site that makes the decision. A second site is
a second copy of the decision. This guard parses the module and counts
the statements outside ``__init__`` that store to each counter.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

BACKEND = Path(repro.__file__).parent / "aws" / "backend.py"
COUNTERS = ("stale_index_fallbacks", "scan_fallbacks", "throttled_requests", "gsi_queries")


def increment_sites(path: Path = BACKEND) -> dict[str, list[int]]:
    """Counter name → line of every store to it outside ``__init__``."""
    sites: dict[str, list[int]] = {name: [] for name in COUNTERS}
    for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(function, ast.FunctionDef) or function.name == "__init__":
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr in sites:
                    sites[target.attr].append(node.lineno)
    return sites


def test_each_decision_counter_has_one_increment_site():
    sites = increment_sites()
    assert {name: len(lines) for name, lines in sites.items()} == dict.fromkeys(
        COUNTERS, 1
    ), sites
