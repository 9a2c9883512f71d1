"""Integration: a writing client fleet rides through an online migration.

The hardest deployment shape the subsystem must survive: the A3
architecture, where every client logs flush events to its own SQS WAL
and per-client commit daemons apply them *later* — so a transaction can
be logged under the source layout during the copy phase and applied by
the daemon mid-double-write, mid-cutover, or after the migration
finished entirely. Because the daemons share the fleet's RouterHandle,
each apply lands on whatever layout is authoritative at apply time, and
the final store must still match a control fleet that ran natively on
the target layout.
"""

from __future__ import annotations

import random

import pytest

from repro.fleet import ClientFleet
from repro.sharding import authoritative_snapshot
from repro.workloads import CombinedWorkload


def _traces(scale: float, seed: str):
    events = list(CombinedWorkload().iter_events(random.Random(seed), scale))
    return [events[i : i + 6] for i in range(0, len(events), 6)]


def _control(traces, seed, **layout):
    control = ClientFleet(
        n_clients=4, architecture="s3+simpledb+sqs", seed=seed, **layout
    )
    control.scatter(traces)
    control.run_round_robin()
    return control


@pytest.mark.parametrize(
    "source_layout,target_layout",
    [
        (dict(shards=2), dict(shards=4, placement="mixed")),  # grow + flip some
        (dict(shards=4, placement="mixed"), dict(shards=2)),  # shrink + unflip
        (dict(shards=2), dict(shards=2, placement="ddb")),    # pure backend flip
    ],
)
def test_a3_fleet_migrates_under_live_wal_traffic(source_layout, target_layout):
    traces = _traces(0.5, "fleet-live")
    fleet = ClientFleet(
        n_clients=4, architecture="s3+simpledb+sqs", seed=31, **source_layout
    )
    fleet.scatter(traces[: len(traces) // 2])
    fleet.run_round_robin()

    fleet.scatter(traces[len(traces) // 2 :])
    report = fleet.run_live_migration(batch=3, **target_layout)

    assert all(client.backlog == 0 for client in fleet.clients.values())
    assert report.phases_completed[-1] == "drop"
    # One epoch per shard flip, plus the final collapse to the target.
    assert fleet.routing.epoch == report.cutover_epochs + 1

    control = _control(traces, 31, **target_layout)
    assert authoritative_snapshot(
        fleet.account, fleet.router
    ) == authoritative_snapshot(control.account, control.router)


def test_a3_fleet_migration_survives_client_crashes():
    """A client host dying mid-store *during* the migration: its fresh
    incarnation replays the backlog through the shared handle, and the
    WAL idempotency argument holds across the layout change."""
    traces = _traces(0.4, "fleet-crash")
    fleet = ClientFleet(n_clients=3, architecture="s3+simpledb+sqs", seed=32, shards=2)
    fleet.scatter(traces[: len(traces) // 2])
    fleet.run_round_robin()

    fleet.scatter(traces[len(traces) // 2 :])
    target = "shards=3,placement=mixed"
    fleet.apply(("cloud", "migrate", target))
    migration = fleet.routing.migration

    def host_dies_in_catch_up(steps):
        """client-1's host reboots before the first catch-up step."""
        for step in steps:
            if step.action == "migrate" and migration.phase == "catch_up":
                yield ("client-1", "reboot", None)
                yield step
                yield from steps
                return
            yield step

    fleet.replay(host_dies_in_catch_up(fleet.round_robin(batch=3, migrate=target)))
    fleet.settle()
    assert fleet.clients["client-1"].crashes == 1

    control = _control(traces, 32, shards=3, placement="mixed")
    assert authoritative_snapshot(
        fleet.account, fleet.router
    ) == authoritative_snapshot(control.account, control.router)


def test_queries_stay_correct_in_every_migration_window():
    """Scatter queries issued mid-copy, mid-double-write, and mid-cutover
    must return the same result set a settled deployment would — the
    union-of-sites gather plus source-until-cutover reads guarantee it."""
    traces = _traces(0.5, "fleet-query")
    fleet = ClientFleet(n_clients=3, architecture="s3+simpledb", seed=33, shards=2)
    fleet.scatter(traces)
    fleet.run_round_robin()
    expected = set(fleet.query_engine().q2_outputs_of("blast").refs)

    migration = fleet.start_migration(shards=4, placement="mixed")
    phases_probed = set()
    while migration.step():
        if migration.phase not in phases_probed:
            phases_probed.add(migration.phase)
            assert (
                set(fleet.query_engine().q2_outputs_of("blast").refs) == expected
            ), f"Q2 diverged during the {migration.phase} phase"
    assert {"copy", "catch_up", "cutover", "drop"} <= phases_probed
    assert set(fleet.query_engine().q2_outputs_of("blast").refs) == expected
