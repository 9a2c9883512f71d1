"""Unit tests: the LiveMigration state machine and its exact accounting.

The heavyweight correctness property (crash anywhere + re-run converges
with the exact item union, under interleaved fleet writes) lives in
``tests/properties/test_prop_migration.py``; these tests pin the state
machine's observable contract — phase order, counters, billing lines,
the Simulation/ClientFleet/CLI entry points, and the knobs.
"""

from __future__ import annotations

import random

import pytest

from repro.cli import main
from repro.migration import parse_migration_spec
from repro.migration.live import DONE, PHASES
from repro.sharding import ShardRouter, authoritative_snapshot
from repro.sim import Simulation
from repro.workloads import CombinedWorkload


def _events(scale: float = 0.4, seed: str = "live-mig"):
    return list(CombinedWorkload().iter_events(random.Random(seed), scale))


def _interleaved_migration(sim: Simulation, events, start_at: int, **knobs):
    """Start a migration and store ``events[start_at:]`` one per step."""
    migration = sim.start_migration(**knobs)
    index = start_at
    while True:
        if index < len(events):
            sim.store.store(events[index])
            index += 1
        if not migration.step():
            break
    while index < len(events):
        sim.store.store(events[index])
        index += 1
    sim.settle()
    return migration.report


def test_online_migration_report_counters():
    events = _events()
    sim = Simulation(architecture="s3+simpledb", seed=11, shards=2)
    sim.store_events(events[: len(events) // 2], collect=False)
    report = _interleaved_migration(
        sim, events, len(events) // 2, shards=4, placement="mixed"
    )
    assert report.phases_completed == list(PHASES[1:-1])
    assert report.items_scanned == report.items_moved + report.items_kept
    assert report.items_moved > 0
    assert report.cutover_epochs == 4
    # One epoch per shard flip, plus the final collapse to the target.
    assert sim.store.routing.epoch == 5
    assert report.double_writes > 0
    assert report.wal_records > 0
    assert report.replayed_records == report.wal_records
    assert report.verification_reads > 0
    assert report.cross_backend_moves > 0  # mixed placement flips some shards
    assert sum(report.writes_by_backend.values()) >= report.items_moved
    assert set(report.writes_by_backend) == {"sdb", "ddb"}
    # The layout settled: the store and its engines route to the target.
    assert sim.store.router.shards == 4
    measurement = sim.query_engine().q2_outputs_of("blast")
    assert {domain for domain, _, _ in measurement.per_shard} == set(
        sim.store.router.domains
    )


def test_online_migration_loses_and_duplicates_nothing():
    """The acceptance bar, in miniature: migrating under live writes
    produces exactly the item set a native target-layout deployment
    stores for the same events."""
    events = _events()
    sim = Simulation(architecture="s3+simpledb", seed=12, shards=1)
    sim.store_events(events[: len(events) // 2], collect=False)
    _interleaved_migration(sim, events, len(events) // 2, shards=3)
    control = Simulation(architecture="s3+simpledb", seed=12, shards=3)
    control.store_events(events, collect=False)
    migrated = authoritative_snapshot(sim.account, sim.store.router)
    oracle = authoritative_snapshot(control.account, control.store.router)
    assert migrated == oracle


def test_migration_billing_lines_are_itemised():
    events = _events(0.3)
    sim = Simulation(architecture="s3+simpledb", seed=13, shards=1)
    sim.store_events(events[: len(events) // 2], collect=False)
    report = _interleaved_migration(sim, events, len(events) // 2, shards=2)
    lines = dict(report.cost_lines(sim.account.prices))
    assert set(lines) == {
        "migration.copy",
        "migration.double_write",
        "migration.catch_up",
        "migration.verification",
        "migration.drop",
    }
    assert lines["migration.copy"] > 0
    assert lines["migration.double_write"] > 0
    assert report.overhead_cost(sim.account.prices) == pytest.approx(
        sum(lines.values())
    )
    overhead = report.overhead_usage()
    assert overhead.request_count() > 0
    assert (
        overhead.request_count()
        == report.copy_usage.request_count()
        + report.double_write_usage.request_count()
        + report.catch_up_usage.request_count()
        + report.verification_usage.request_count()
        + report.drop_usage.request_count()
    )


def test_backend_flip_backfills_target_indexes():
    events = _events(0.3)
    sim = Simulation(
        architecture="s3+simpledb", seed=14, shards=2, placement="sdb",
        ddb_indexes="name,input",
    )
    sim.store_events(events, collect=False)
    report = sim.migrate(placement="ddb", online=True)
    assert report.cross_backend_moves == report.items_moved > 0
    assert report.index_write_units > 0  # GSI backfill is migration overhead
    assert sorted(report.domains_deleted) == ["pass-prov-00", "pass-prov-01"]
    q2 = sim.query_engine().q2_outputs_of("blast")
    assert all(kind == "ddb" for kind, _, _ in q2.per_backend)


def test_offline_migrate_swaps_layout_atomically():
    events = _events(0.3)
    sim = Simulation(architecture="s3+simpledb", seed=15, shards=1)
    sim.store_events(events, collect=False)
    before = sim.query_engine().q2_outputs_of("blast")
    report = sim.migrate(shards=4, online=False)
    assert not hasattr(report, "double_writes")  # the plain offline report
    assert sim.store.routing.epoch == 1
    assert sim.store.router.shards == 4
    after = sim.query_engine().q2_outputs_of("blast")
    assert set(after.refs) == set(before.refs)


def test_replay_does_not_resurrect_deleted_orphans():
    """Regression: an item captured to the migration WAL during the
    copy phase and then deleted by orphan recovery (the client crashed
    before its data PUT) must NOT be re-created in the target by the
    catch-up replay — the stale record is skipped, not transported."""
    from repro.aws.faults import FaultPlan
    from repro.errors import ClientCrash
    from repro.migration.live import COPY

    sim = Simulation(architecture="s3+simpledb", seed=41, shards=1)
    sim.store_events(_events(0.1), collect=False)
    migration = sim.start_migration(shards=2)
    assert migration.phase == COPY

    # A second client on the SAME cloud and routing handle crashes
    # between the provenance put (WAL-captured: every item moves off
    # the N=1 layout) and the data put — an orphan.
    from repro.core.s3_simpledb import S3SimpleDB
    from repro.passlib.capture import PassSystem

    crashing = S3SimpleDB(
        sim.account,
        faults=FaultPlan().crash_at("a2.store.before_data_put"),
        router=sim.store.routing,
    )
    pas = PassSystem(workload="orphan")
    with pas.process("doomed", argv="--orphan") as proc:
        proc.write("orphan/only.dat", b"never reaches S3")
        proc.close("orphan/only.dat")
    victim = pas.drain_flushes()[0]
    with pytest.raises(ClientCrash):
        crashing.store(victim)
    assert migration.report.wal_records > 0

    removed = sim.store.recover_orphans()
    assert victim.subject.item_name in removed

    migration.run()
    sim.settle()
    assert migration.report.skipped_replays > 0
    migrated = authoritative_snapshot(sim.account, sim.store.router)
    assert victim.subject.item_name not in migrated


def test_failed_start_leaves_the_handle_clean():
    """Regression: if target provisioning fails, the half-started
    migration must not stay registered on the handle (client writes
    would route toward a never-provisioned target)."""
    from repro.migration.live import LiveMigration

    sim = Simulation(architecture="s3+simpledb", seed=42, shards=1)
    migration = LiveMigration(
        sim.account, sim.store.routing, ShardRouter(2)
    )
    original = migration.target.provision
    migration.target.provision = lambda cloud: (_ for _ in ()).throw(
        RuntimeError("provisioning exploded")
    )
    with pytest.raises(RuntimeError, match="exploded"):
        migration.start()
    assert sim.store.routing.migration is None
    # A clean retry succeeds once provisioning works again.
    migration.target.provision = original
    migration.start()
    migration.run()
    assert sim.store.router.shards == 2


def test_shards_only_migration_preserves_placement():
    """Regression: a shards-only migrate() must tile the deployment's
    current placement pattern across the new count — never reset to the
    all-SimpleDB default (which would turn a grow into a silent full
    backend flip)."""
    sim = Simulation(architecture="s3+simpledb", seed=19, shards=2, placement="ddb")
    sim.store_events(_events(0.1), collect=False)
    report = sim.migrate(shards=4, online=True)
    assert sim.store.router.placement == ("ddb", "ddb", "ddb", "ddb")
    assert report.cross_backend_moves == 0
    alternating = ShardRouter(2, placement="mixed")
    assert alternating.resized(4).placement == ("sdb", "ddb", "sdb", "ddb")
    assert alternating.resized(1).placement == ("sdb",)
    assert alternating.resized(3, placement="ddb").placement == ("ddb",) * 3
    # vnodes carry over too (they shape the ring, i.e. item ownership).
    assert ShardRouter(2, vnodes=16).resized(4).vnodes == 16


def test_migrate_rejects_s3_architecture_and_conflicting_knobs():
    sim = Simulation(architecture="s3", seed=16)
    with pytest.raises(ValueError):
        sim.migrate(shards=2)
    sim2 = Simulation(architecture="s3+simpledb", seed=16)
    with pytest.raises(ValueError):
        sim2.migrate(shards=2, router=ShardRouter(2))


def test_crashed_migration_rerun_converges():
    events = _events(0.3)
    sim = Simulation(architecture="s3+simpledb", seed=17, shards=2)
    sim.store_events(events[: len(events) // 2], collect=False)
    migration = sim.start_migration(shards=4)
    for _ in range(3):  # crash mid-copy
        migration.step()
    sim.store.routing.abort_migration()
    # Writes keep landing while no migration runs (source layout).
    for event in events[len(events) // 2 :]:
        sim.store.store(event)
    report = sim.migrate(shards=4, online=True)
    assert report.items_scanned > 0
    sim.settle()
    control = Simulation(architecture="s3+simpledb", seed=17, shards=4)
    control.store_events(events, collect=False)
    assert authoritative_snapshot(
        sim.account, sim.store.router
    ) == authoritative_snapshot(control.account, control.store.router)


def test_parse_migration_spec():
    assert parse_migration_spec("shards=8,placement=mixed") == {
        "shards": 8,
        "placement": "mixed",
    }
    assert parse_migration_spec("shards=2,online=false") == {
        "shards": 2,
        "online": False,
    }
    for bad in ("", "shards", "shards=", "bogus=1", "online=maybe"):
        with pytest.raises(ValueError):
            parse_migration_spec(bad)
    for bad in ("shards=0", "shards=abc", "shards=-4,placement=mixed"):
        with pytest.raises(ValueError, match="shard count.*>= 1") as excinfo:
            parse_migration_spec(bad)
        assert repr(bad) in str(excinfo.value)  # the spec text is named


def test_demo_cli_migrate_flag(capsys):
    code = main(
        ["demo", "--shards", "2", "--migrate", "shards=4,placement=mixed"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "online migration -> shards=4" in out
    assert "double-writes" in out
    assert "Q2 after migration" in out


def test_demo_cli_migrate_offline(capsys):
    code = main(["demo", "--migrate", "shards=3,online=false"])
    out = capsys.readouterr().out
    assert code == 0
    assert "offline migration -> shards=3" in out


def test_demo_cli_migrate_bad_spec(capsys):
    code = main(["demo", "--migrate", "bogus"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fleet_live_migration_scenario():
    from repro.fleet import ClientFleet

    fleet = ClientFleet(
        n_clients=3, architecture="s3+simpledb", seed=18, shards=2
    )
    events = _events(0.4, seed="fleet-mig")
    traces = [events[i : i + 8] for i in range(0, len(events), 8)]
    fleet.scatter(traces[: len(traces) // 2])
    fleet.run_round_robin()
    fleet.scatter(traces[len(traces) // 2 :])
    report = fleet.run_live_migration(shards=4, placement="mixed", batch=2)
    assert report.phases_completed[-1] == "drop"
    assert fleet.router.shards == 4
    assert all(client.backlog == 0 for client in fleet.clients.values())
    # Control: a fleet that stored the same traces natively on the target.
    control = ClientFleet(
        n_clients=3,
        architecture="s3+simpledb",
        seed=18,
        shards=4,
        placement="mixed",
    )
    control.scatter(traces)
    control.run_round_robin()
    assert authoritative_snapshot(
        fleet.account, fleet.router
    ) == authoritative_snapshot(control.account, control.router)


def test_migration_report_phase_names():
    assert PHASES == (
        "pending",
        "copy",
        "double_write",
        "catch_up",
        "cutover",
        "drop",
        "done",
    )
    assert DONE == "done"
