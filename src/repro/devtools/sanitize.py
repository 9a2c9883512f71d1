"""Opt-in runtime sanitizer: query spend attribution auditing.

Enabled by setting :data:`ACTIVE` to ``True`` before building the query
engines it should watch (the engine reads it once, at construction).

**Meter attribution.** The sharded query engine measures a query inside
one ``Meter.scoped`` block and attributes its spend to shards with one
nested scope per request stream (plus one per read-cache memo consult
or fill). A request the engine issued inside the query but outside any
stream or memo scope would be billed to the query yet silently missing
from its ``per_shard`` / ``per_shard_cache`` split. Under the sanitizer
the engine hands :func:`audit_spend` the query scope's usage and the
sum of its stream and memo scopes' at the end of every sharded query;
each ``(service, op)`` request count and per-service bytes-out on which
they differ is recorded as an ``unattributed-spend`` violation.

Violations are **recorded, not raised**: the suite runs to completion
and the test harness (``tests/conftest.py``) fails any test whose run
grew the registry, which localises the offending query. With
:data:`ACTIVE` off nothing here runs and the meter never learns the
sanitizer exists (``tests/unit/test_sanitize.py`` pins that it is
byte-identical either way).

This module deliberately imports nothing from the simulation, so the
sanitizer can never perturb the world it observes.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Whether query engines built from now on audit their spend. Off by
#: default; tests switch it on around the engines they check.
ACTIVE = False


@dataclass(frozen=True)
class Violation:
    """One recorded sanitizer finding."""

    kind: str        # "unattributed-spend"
    message: str

    def render(self) -> str:
        return f"[{self.kind}] {self.message}"


_violations: list[Violation] = []


def record(kind: str, message: str) -> None:
    """Record one violation (never raises — the suite must run on)."""
    _violations.append(Violation(kind=kind, message=message))


def violations() -> tuple[Violation, ...]:
    """Everything recorded since the last :func:`reset`."""
    return tuple(_violations)


def reset() -> None:
    """Clear the registry (test isolation)."""
    _violations.clear()


def audit_spend(spent, attributed) -> None:
    """Record every request and byte-out a query spent unattributed.

    ``spent`` is the query scope's :class:`~repro.aws.billing.Usage`,
    ``attributed`` the sum of its stream and memo scopes'; their
    difference (either sign) is spend the per-shard split lost or made
    up.
    """
    leak = spent - attributed
    for (service, op), count in leak.requests:
        record(
            "unattributed-spend",
            f"{count} request(s) {service}/{op} recorded outside any "
            "stream or memo scope — missing from per-shard accounting",
        )
    for service, nbytes in leak.bytes_out:
        record(
            "unattributed-spend",
            f"{nbytes} byte(s) out of {service} recorded outside any "
            "stream or memo scope — missing from per-shard accounting",
        )
