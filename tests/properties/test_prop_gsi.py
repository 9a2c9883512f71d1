"""Differential properties: Scan-served, GSI-served, and SimpleDB-served
queries are the same queries.

The GSI subsystem must be a pure access-path change: for arbitrary
provenance workloads, Q1/Q2/Q3 result sets are identical whether shards
live on SimpleDB, on DynamoDB tables answered by Scan, or on DynamoDB
tables answered by GSI Query — only the metered cost may differ, and the
per-shard/per-backend spend split must still sum exactly to each query's
total. Migrating into (and out of) indexed DynamoDB layouts preserves
every item, recreates the indexes on destination tables, reports the
metered backfill, and keeps the dropped-source accounting exact.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.aws import billing
from repro.query.engine import SimpleDBEngine
from repro.sharding import ShardRouter, authoritative_snapshot
from repro.sim import Simulation
from tests.properties.test_prop_backend import random_workload

#: (name, placement, ddb_indexes) — the three DynamoDB access regimes
#: plus the SimpleDB baseline.
CONFIGS = (
    ("sdb", "sdb", ""),
    ("ddb-scan", "ddb", ""),
    ("ddb-gsi", "ddb", "name,input"),
    ("mixed-gsi", "mixed", "name,input"),
)


def loaded(events, shards, placement, ddb_indexes):
    sim = Simulation(
        architecture="s3+simpledb", seed=99, shards=shards,
        placement=placement, ddb_indexes=ddb_indexes,
    )
    sim.store_events(events, collect=False)
    return sim


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=1, max_value=8),
    shards=st.integers(min_value=1, max_value=5),
)
def test_results_identical_across_access_paths(seed, n_stages, shards):
    events = random_workload(random.Random(seed), n_stages)
    sims = {
        name: loaded(events, shards, placement, indexes)
        for name, placement, indexes in CONFIGS
    }
    engines = {name: sim.query_engine() for name, sim in sims.items()}
    subject = events[-1].subject

    baseline = engines["sdb"]
    expected = {
        "q1": set(baseline.q1(subject).refs),
        "q1_all": set(baseline.q1_all().refs),
        "q2": set(baseline.q2_outputs_of("blast").refs),
        "q3": set(baseline.q3_descendants_of("blast").refs),
    }
    for name, engine in engines.items():
        if name == "sdb":
            continue
        assert set(engine.q1(subject).refs) == expected["q1"], name
        assert set(engine.q1_all().refs) == expected["q1_all"], name
        assert set(engine.q2_outputs_of("blast").refs) == expected["q2"], name
        assert set(engine.q3_descendants_of("blast").refs) == expected["q3"], name

    # The GSI regime really is a different access path, not a mirage:
    # the ddb adapter of the indexed placement served index Queries.
    gsi_adapter = sims["ddb-gsi"].account.provenance_backends()["ddb"]
    assert gsi_adapter.gsi_queries > 0
    scan_adapter = sims["ddb-scan"].account.provenance_backends()["ddb"]
    assert scan_adapter.gsi_queries == 0


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=1, max_value=6),
    shards=st.integers(min_value=2, max_value=5),
    concurrency=st.sampled_from([1, 4]),
)
def test_gsi_spend_split_sums_exactly(seed, n_stages, shards, concurrency):
    """per_shard and per_backend must absorb GSI request/transfer spend
    exactly — in both dispatch modes — so the query total never leaks."""
    events = random_workload(random.Random(seed), n_stages)
    sim = loaded(events, shards, "mixed", "name,input")
    engine = SimpleDBEngine(
        sim.account, router=sim.store.router, concurrency=concurrency
    )
    for measurement in (
        engine.q2_outputs_of("blast"),
        engine.q3_descendants_of("blast"),
        engine.q1_all(),
    ):
        assert (
            sum(ops for _, ops, _ in measurement.per_shard)
            == measurement.operations
        )
        assert (
            sum(ops for _, ops, _ in measurement.per_backend)
            == measurement.operations
        )
        assert (
            sum(nbytes for _, _, nbytes in measurement.per_shard)
            == measurement.bytes_out
        )
        assert (
            sum(nbytes for _, _, nbytes in measurement.per_backend)
            == measurement.bytes_out
        )


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=1, max_value=6),
    n_before=st.integers(min_value=1, max_value=4),
    n_after=st.integers(min_value=1, max_value=4),
)
def test_rebalance_preserves_items_and_recreates_indexes(
    seed, n_stages, n_before, n_after
):
    """Grow/shrink between indexed DynamoDB layouts: every item lands,
    every destination table carries the declared indexes (converged to
    the base data), emptied sources are dropped, and the index storage
    ledger never leaks."""
    events = random_workload(random.Random(seed), n_stages)
    sim = loaded(events, n_before, "ddb", "name,input")
    account = sim.account
    source = sim.store.router
    target = ShardRouter(n_after, placement="ddb")

    before = authoritative_snapshot(account, source)
    account.quiesce()
    report = sim.migrate(router=target)
    assert authoritative_snapshot(account, target) == before
    assert report.items_scanned == len(before)

    # Destinations carry the indexes, and each index agrees with its
    # base table item for item.
    assert set(account.dynamodb.list_tables()) == set(target.domains)
    for domain in target.domains:
        specs = {spec.name for spec in account.dynamodb.list_indexes(domain)}
        assert specs == {"gsi-name", "gsi-input"}
        entries = account.dynamodb.authoritative_index_entries(
            domain, "gsi-input"
        )
        expected = {}
        for item_name in account.dynamodb.authoritative_item_names(domain):
            state = account.dynamodb.authoritative_item(domain, item_name)
            for value in state.get("input", ()):
                expected[(value, item_name)] = {
                    a: v for a, v in state.items() if a in ("input", "type")
                }
        assert entries == expected

    if report.items_moved:
        # Moving items into indexed tables costs metered index writes.
        assert report.index_write_units > 0

    # Queries through the migrated layout are GSI-served and correct.
    assert sim.store.router is target
    migrated = sim.query_engine()
    control = loaded(events, 1, "sdb", "").query_engine()
    assert set(migrated.q2_outputs_of("blast").refs) == set(
        control.q2_outputs_of("blast").refs
    )


def test_full_flip_round_trip_with_indexes_zeroes_the_ledger():
    """sdb→ddb(+GSIs)→sdb: every item crosses twice, destination tables
    get indexes (reported as backfill cost), and after the return trip
    both the DDB and the GSI storage ledgers read exactly zero."""
    events = random_workload(random.Random(21), 6)
    sim = loaded(events, 3, "sdb", "name,input")
    account = sim.account
    source = sim.store.router
    onto_ddb = ShardRouter(3, placement="ddb")
    before = authoritative_snapshot(account, source)
    account.quiesce()

    outbound = sim.migrate(router=onto_ddb)
    assert outbound.cross_backend_moves == len(before)
    assert outbound.index_write_units > 0
    assert account.simpledb.list_domains() == []
    for domain in onto_ddb.domains:
        assert {s.name for s in account.dynamodb.list_indexes(domain)} == {
            "gsi-name", "gsi-input",
        }

    back = sim.migrate(router=ShardRouter(3, placement="sdb"))
    assert back.cross_backend_moves == len(before)
    assert authoritative_snapshot(
        account, ShardRouter(3, placement="sdb")
    ) == before
    # Dropping the indexed tables freed every stored byte — base and
    # index alike (the drop-emptied-source accounting invariant).
    assert account.dynamodb.list_tables() == []
    assert account.meter.stored_bytes(billing.DDB) == 0
    assert account.meter.stored_bytes(billing.DDB_GSI) == 0


def test_rebalance_backfills_preexisting_unindexed_tables():
    """Migrating a scan-only DynamoDB layout under an account that now
    declares indexes backfills the surviving tables at provision time —
    the metered path an operator takes to upgrade a live deployment."""
    events = random_workload(random.Random(34), 5)
    scan_sim = loaded(events, 2, "ddb", "")
    account = scan_sim.account
    # Same cloud, new adapter policy: replace the account's DynamoDB
    # adapter with one declaring indexes, then migrate the existing
    # layout onto itself grown by one shard.
    from repro.aws.backend import DynamoBackend

    backends = account.provenance_backends()
    backends["ddb"] = DynamoBackend(account.dynamodb, index_specs="name,input")
    source = scan_sim.store.router
    target = ShardRouter(3, placement="ddb")
    before = authoritative_snapshot(account, source)
    account.quiesce()
    report = scan_sim.migrate(router=target)
    # Backfill units were consumed by provisioning the indexes over the
    # surviving populated tables: the adapter records what provision()
    # spent, and the migration report measures it on the meter.
    assert backends["ddb"].index_backfill_units > 0
    assert report.index_write_units > 0
    assert report.items_scanned == len(before)
    assert authoritative_snapshot(account, target) == before
    for domain in target.domains:
        assert {s.name for s in account.dynamodb.list_indexes(domain)} == {
            "gsi-name", "gsi-input",
        }
