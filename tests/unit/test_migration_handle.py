"""Unit tests: the RouterHandle routing-epoch indirection.

Without a migration the handle must be transparent — every answer is
exactly what the wrapped router would say, so holding a handle instead
of a router cannot change a single request. With a migration registered
(driven phase by phase here), read/write/delete/query routing must
follow the copy → double-write → catch-up → cutover → drop protocol.
"""

from __future__ import annotations

import pytest

from repro.migration import RouterHandle, as_handle
from repro.migration.live import (
    CATCH_UP,
    COPY,
    CUTOVER,
    DONE,
    DOUBLE_WRITE,
    DROP,
    LiveMigration,
    MigrationError,
)
from repro.sharding import ShardRouter
from repro.sim import Simulation


def test_as_handle_wraps_and_passes_through():
    router = ShardRouter(2)
    handle = as_handle(router)
    assert handle.current is router
    assert as_handle(handle) is handle  # shared state, never re-wrapped
    with pytest.raises(TypeError):
        as_handle("pass-prov")


def test_handle_is_transparent_without_migration():
    router = ShardRouter(4)
    handle = RouterHandle(router)
    assert handle.epoch == 0
    for path in ("a/b.dat", "out/x/03.dat", "weird path'"):
        site = handle.read_site(path)
        assert site.domain == router.domain_for(path)
        assert site.kind == router.backend_for_path(path)
        plan = handle.write_plan(f"{path}_v0001")
        assert [s.domain for s in plan.sites] == [router.domain_for(path)]
        assert not plan.capture
        assert [s.domain for s in handle.delete_sites(f"{path}_v0001")] == [
            router.domain_for(path)
        ]
    assert [s.domain for s in handle.query_sites()] == list(router.domains)
    # The settled layout's answers are interned: one Site and one
    # WritePlan per domain, one query_sites() tuple.
    paths = [f"probe/{index:04d}.dat" for index in range(40)]
    first, second = [p for p in paths if router.domain_for(p) == router.domains[0]][:2]
    assert handle.read_site(first) is handle.read_site(second)
    assert handle.write_plan(f"{first}_v0001") is handle.write_plan(f"{second}_v0002")
    assert handle.query_sites() is handle.query_sites()


#: ``(read store, write stores, capture)`` per probe path at each step of
#: a 2 → 3 shard migration to the "mixed" placement (pass-prov-01 flips
#: from sdb to ddb), recorded before the handle interned its answers.
_STAY = ("pass-prov-00", "sdb", (("pass-prov-00", "sdb"),), False)
MID_MIGRATION = {
    "copy": [
        _STAY,
        ("pass-prov-01", "sdb", (("pass-prov-01", "sdb"),), True),
        ("pass-prov-01", "sdb", (("pass-prov-01", "sdb"),), True),
    ],
    "double-write": [
        _STAY,
        ("pass-prov-01", "sdb", (("pass-prov-01", "sdb"), ("pass-prov-02", "sdb")), False),
        ("pass-prov-01", "sdb", (("pass-prov-01", "sdb"), ("pass-prov-01", "ddb")), False),
    ],
    "two shards cut over": [
        _STAY,
        ("pass-prov-01", "sdb", (("pass-prov-01", "sdb"), ("pass-prov-02", "sdb")), False),
        ("pass-prov-01", "ddb", (("pass-prov-01", "ddb"),), False),
    ],
}
MID_QUERY_SITES = {
    "copy": [("pass-prov-00", "sdb"), ("pass-prov-01", "sdb")],
    "double-write": [("pass-prov-00", "sdb"), ("pass-prov-01", "sdb")],
    "two shards cut over": [
        ("pass-prov-00", "sdb"), ("pass-prov-01", "sdb"), ("pass-prov-01", "ddb"),
    ],
}


def test_routing_answers_across_a_backend_flip_migration():
    sim = Simulation(architecture="s3+simpledb", seed=2, shards=2)
    handle = sim.store.routing
    paths = ["probe/0000.dat", "probe/0003.dat", "probe/0005.dat"]

    def answers(step: str) -> None:
        rows = []
        for path in paths:
            plan = handle.write_plan(f"{path}_v0001")
            read = handle.read_site(path)
            rows.append((*read.key, tuple(s.key for s in plan.sites), plan.capture))
        assert rows == MID_MIGRATION[step], step
        assert [s.key for s in handle.query_sites()] == MID_QUERY_SITES[step], step

    migration = sim.start_migration(shards=3, placement="mixed")
    target = migration.target
    answers("copy")
    _until(migration, DOUBLE_WRITE)
    answers("double-write")
    _until(migration, CUTOVER)
    migration.step()
    migration.step()
    answers("two shards cut over")
    migration.run()
    # Settled on the target: every answer names the target router and
    # the target's kinds, and is interned again.
    for path in paths:
        site = handle.read_site(path)
        assert site.router is target and site is handle.read_site(path)
        assert site.kind == target.backend_for_path(path)
        plan = handle.write_plan(f"{path}_v0001")
        assert plan.sites == (site,) and not plan.capture
    sites = handle.query_sites()
    assert sites is handle.query_sites()
    assert all(s.router is target for s in sites)
    assert [s.kind for s in sites] == list(target.placement) == ["sdb", "ddb", "sdb"]


def test_single_migration_at_a_time():
    sim = Simulation(architecture="s3+simpledb", seed=1, shards=1)
    migration = sim.start_migration(shards=2)
    with pytest.raises(RuntimeError):
        sim.start_migration(shards=3)
    migration.run()
    assert sim.store.routing.migration is None


def _until(migration: LiveMigration, phase: str) -> None:
    while migration.phase != phase:
        assert migration.step() or migration.phase == phase


def _moving_item(source: ShardRouter, target: ShardRouter) -> str:
    """An item name whose source and target sites differ."""
    for index in range(1000):
        path = f"probe/{index:04d}.dat"
        if (source.domain_for(path), source.backend_for_path(path)) != (
            target.domain_for(path),
            target.backend_for_path(path),
        ):
            return f"{path}_v0001"
    raise AssertionError("no moving path found")


def _staying_item(source: ShardRouter, target: ShardRouter) -> str:
    for index in range(1000):
        path = f"probe/{index:04d}.dat"
        if (source.domain_for(path), source.backend_for_path(path)) == (
            target.domain_for(path),
            target.backend_for_path(path),
        ):
            return f"{path}_v0001"
    raise AssertionError("no staying path found")


def test_write_plans_follow_the_protocol_phases():
    sim = Simulation(architecture="s3+simpledb", seed=2, shards=2)
    handle = sim.store.routing
    source = handle.current
    migration = sim.start_migration(shards=4)
    target = migration.target
    moving = _moving_item(source, target)
    staying = _staying_item(source, target)

    assert migration.phase == COPY
    plan = handle.write_plan(moving)
    assert plan.capture and len(plan.sites) == 1
    assert plan.sites[0].domain == source.domain_for_item(moving)
    # An item that does not move never double-writes or captures.
    stay_plan = handle.write_plan(staying)
    assert not stay_plan.capture and len(stay_plan.sites) == 1

    _until(migration, DOUBLE_WRITE)
    plan = handle.write_plan(moving)
    assert not plan.capture
    assert [site.domain for site in plan.sites] == [
        source.domain_for_item(moving),
        target.domain_for_item(moving),
    ]
    # Reads still come from the source, and both copies are deletable.
    read = handle.read_site(moving.rsplit("_v", 1)[0])
    assert read.router is source
    assert len(handle.delete_sites(moving)) == 2

    _until(migration, CATCH_UP)
    _until(migration, CUTOVER)
    epochs_before = handle.epoch
    _until(migration, DROP)
    # Every target shard flipped: one epoch bump each, reads now target.
    assert handle.epoch - epochs_before == 0 or handle.epoch == len(target.domains)
    assert handle.epoch == len(target.domains)
    plan = handle.write_plan(moving)
    assert [site.domain for site in plan.sites] == [target.domain_for_item(moving)]
    assert handle.read_site(moving.rsplit("_v", 1)[0]).router is target

    _until(migration, DONE)
    assert handle.current is target
    assert handle.migration is None


def test_query_sites_cover_union_during_cutover():
    sim = Simulation(architecture="s3+simpledb", seed=3, shards=2)
    handle = sim.store.routing
    source_domains = set(handle.current.domains)
    migration = sim.start_migration(shards=4)
    _until(migration, CUTOVER)
    # No shard flipped yet: scatter covers exactly the source stores
    # (partially copied target stores must never serve reads).
    assert {site.domain for site in handle.query_sites()} == source_domains
    migration.step()  # flip the first target shard
    domains = {site.domain for site in handle.query_sites()}
    flipped = next(iter(migration._cut_over))
    assert source_domains <= domains
    assert flipped in domains
    migration.run()
    assert {site.domain for site in handle.query_sites()} == set(
        migration.target.domains
    )


def test_start_twice_is_an_error():
    sim = Simulation(architecture="s3+simpledb", seed=4, shards=1)
    migration = sim.start_migration(shards=2)
    with pytest.raises(MigrationError):
        migration.start()
    migration.run()
