"""Every operation a simulated service offers has a caller in the library.

A service method no architecture, engine, migration or daemon calls is
surface the simulation carries without using: it needs a price row, a
latency row and tests of its own, and it is never exercised by a run.
This guard walks every ``*Service`` class in ``repro.aws`` and fails on
a public method whose name no attribute access anywhere under
``src/repro`` reads — unless it is on ``ORACLES``, the unmetered
helpers tests judge the services against, each with its reason.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import repro
import repro.aws

ROOT = Path(repro.__file__).parent

#: ``Class.method`` → why it may have no caller in the library.
ORACLES = {
    "DynamoDBService.authoritative_index_entries": (
        "unmetered oracle: each index's entries as its base items imply them"
    ),
    "DynamoDBService.size_audit": (
        "unmetered oracle: every kept size and aggregate against a re-measure"
    ),
    "SimpleDBService.size_audit": (
        "unmetered oracle: every kept size and aggregate against a re-measure"
    ),
}


def services() -> dict[str, type]:
    found = {}
    for module in pkgutil.iter_modules(repro.aws.__path__):
        namespace = importlib.import_module(f"repro.aws.{module.name}")
        for name, cls in vars(namespace).items():
            if (
                inspect.isclass(cls)
                and name.endswith("Service")
                and cls.__module__ == namespace.__name__
            ):
                found[name] = cls
    return found


def public_methods() -> list[str]:
    return sorted(
        f"{name}.{method}"
        for name, cls in services().items()
        for method in vars(cls)
        if not method.startswith("_")
    )


def attributes_read() -> set[str]:
    """Every attribute name an attribute access under ``src/repro`` reads."""
    return {
        node.attr
        for path in ROOT.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }


def test_the_walk_sees_every_service():
    assert {"S3Service", "SimpleDBService", "SQSService", "DynamoDBService"} <= set(
        services()
    )


def test_every_service_method_has_a_library_caller_or_is_an_oracle():
    read = attributes_read()
    uncalled = [
        qualified
        for qualified in public_methods()
        if qualified.split(".")[1] not in read and qualified not in ORACLES
    ]
    assert uncalled == [], "service methods nothing in src/repro calls"


def test_every_oracle_entry_names_a_method_with_a_reason():
    methods = set(public_methods())
    assert [name for name in ORACLES if name not in methods] == []
    assert all(reason.strip() for reason in ORACLES.values())
