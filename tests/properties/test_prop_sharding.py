"""Property tests: sharding is invisible to query results.

Two invariants, hammered over randomly generated provenance workloads:

* **scatter-gather equivalence** — for any shard count N, Q1/Q2/Q3
  against the N-way sharded domain return exactly the result sets of the
  unsharded (N=1) baseline; only the operation counts differ;
* **migration round-trip** — re-sharding a populated deployment from N
  to N' (``Simulation.migrate``, the live protocol in a quiet window)
  moves items between domains but preserves every item (name and
  attribute values) exactly, and lands each item on the domain the new
  router routes it to.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.passlib.capture import PassSystem
from repro.sharding import ShardRouter, authoritative_snapshot
from repro.sim import Simulation


def all_store_names(account) -> set[str]:
    """Every provenance store name across both backends (the layout a
    shrink must leave behind, whatever the placement says)."""
    return set(account.simpledb.list_domains()) | set(account.dynamodb.list_tables())


def random_workload(rng: random.Random, n_stages: int):
    """A random multi-stage pipeline: stage i reads earlier outputs.

    Object paths draw from a small alphabet with nested directories so
    different names routinely collide onto (and split across) shards.
    """
    pas = PassSystem(workload="prop-shard")
    pas.stage_input("in/seed.dat", b"seed")
    outputs = ["in/seed.dat"]
    for stage in range(n_stages):
        program = rng.choice(["blast", "align", "merge"])
        with pas.process(program, argv=f"--stage {stage}") as proc:
            for source in rng.sample(outputs, k=min(len(outputs), 1 + rng.randrange(2))):
                proc.read(source)
            path = f"out/{rng.choice('abc')}/{stage:02d}.dat"
            proc.write(path, f"{program}:{stage}".encode())
            proc.close(path)
            outputs.append(path)
    return list(pas.drain_flushes())


def loaded_simulation(events, shards: int) -> Simulation:
    sim = Simulation(architecture="s3+simpledb", seed=99, shards=shards)
    sim.store_events(events, collect=False)
    return sim


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=1, max_value=8),
    shards=st.integers(min_value=2, max_value=6),
)
def test_sharded_queries_equal_unsharded_baseline(seed, n_stages, shards):
    events = random_workload(random.Random(seed), n_stages)
    baseline = loaded_simulation(events, shards=1)
    sharded = loaded_simulation(events, shards=shards)
    base_engine = baseline.query_engine()
    shard_engine = sharded.query_engine()

    for program in ("blast", "align", "merge"):
        assert set(shard_engine.q2_outputs_of(program).refs) == set(
            base_engine.q2_outputs_of(program).refs
        )
        assert set(shard_engine.q3_descendants_of(program).refs) == set(
            base_engine.q3_descendants_of(program).refs
        )
    assert set(shard_engine.q1_all().refs) == set(base_engine.q1_all().refs)
    for event in events:
        base_q1 = base_engine.q1(event.subject)
        shard_q1 = shard_engine.q1(event.subject)
        assert set(shard_q1.refs) == set(base_q1.refs)
        # Q1 routes to one shard: its cost must not grow with N.
        assert shard_q1.operations == base_q1.operations


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=1, max_value=8),
    n_before=st.integers(min_value=1, max_value=6),
    n_after=st.integers(min_value=1, max_value=6),
)
def test_rebalance_round_trip_preserves_every_bundle(seed, n_stages, n_before, n_after):
    events = random_workload(random.Random(seed), n_stages)
    sim = loaded_simulation(events, shards=n_before)
    source = sim.store.router
    target = ShardRouter(n_after)

    before = authoritative_snapshot(sim.account, source)
    sim.account.quiesce()
    report = sim.migrate(router=target)
    after = authoritative_snapshot(sim.account, target)

    assert after == before  # every item survives, values verbatim
    assert report.items_scanned == len(before)
    assert report.items_moved + report.items_kept == report.items_scanned
    backends = sim.account.provenance_backends()
    for item_name in after:
        owner = target.domain_for_item(item_name)
        owning_backend = backends[target.backend_for(owner)]
        assert item_name in owning_backend.authoritative_item_names(owner)

    # The migrated layout answers queries identically to a fresh load.
    assert sim.store.router is target
    migrated_engine = sim.query_engine()
    control = loaded_simulation(events, shards=1).query_engine()
    assert set(migrated_engine.q3_descendants_of("blast").refs) == set(
        control.q3_descendants_of("blast").refs
    )


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=1, max_value=6),
    shards=st.integers(min_value=1, max_value=4),
    concurrency=st.sampled_from([1, 4]),
)
def test_per_shard_accounting_sums_exactly(seed, n_stages, shards, concurrency):
    """Scoped metering: per-shard spend sums to the query's global delta
    for every query, at every shard count, in both dispatch modes."""
    from repro.query.engine import SimpleDBEngine

    events = random_workload(random.Random(seed), n_stages)
    sim = loaded_simulation(events, shards=shards)
    engine = SimpleDBEngine(
        sim.account, router=sim.store.router, concurrency=concurrency
    )
    measurements = [
        engine.q2_outputs_of("blast"),
        engine.q3_descendants_of("blast"),
        engine.q1_all(),
        engine.q1(events[0].subject),
    ]
    for m in measurements:
        assert sum(ops for _, ops, _ in m.per_shard) == m.operations
        assert sum(nbytes for _, _, nbytes in m.per_shard) == m.bytes_out
        assert len(m.per_shard) <= shards


def test_rebalance_shrink_deletes_orphaned_source_domains():
    events = random_workload(random.Random(5), 6)
    sim = loaded_simulation(events, shards=4)
    source = sim.store.router
    target = ShardRouter(2)
    sim.account.quiesce()
    report = sim.migrate(router=target)
    orphans = set(source.domains) - set(target.domains)
    assert sorted(report.domains_deleted) == sorted(orphans)
    remaining = all_store_names(sim.account)
    assert not (orphans & remaining), "shrink left orphaned domains behind"
    assert set(target.domains) <= remaining
    # Skew reporting now sees only the surviving layout.
    assert set(target.item_counts(sim.account)) == set(target.domains)


def test_rebalance_shrink_to_single_domain_restores_paper_layout():
    events = random_workload(random.Random(9), 5)
    sim = loaded_simulation(events, shards=3)
    source = sim.store.router
    sim.account.quiesce()
    report = sim.migrate(router=ShardRouter(1))
    assert sorted(report.domains_deleted) == sorted(source.domains)
    assert all_store_names(sim.account) == {"pass-prov"}


def test_rebalance_grow_deletes_nothing_between_surviving_shards():
    events = random_workload(random.Random(11), 5)
    sim = loaded_simulation(events, shards=2)
    source = sim.store.router
    sim.account.quiesce()
    report = sim.migrate(router=ShardRouter(4))
    assert report.domains_deleted == []
    assert set(source.domains) <= all_store_names(sim.account)


@settings(max_examples=30, deadline=None)
@given(
    path=st.text(
        alphabet="abcdefgh/._-0123456789", min_size=1, max_size=40
    ).filter(lambda p: p.strip()),
    shards=st.integers(min_value=1, max_value=32),
)
def test_routing_is_deterministic_and_total(path, shards):
    router = ShardRouter(shards)
    again = ShardRouter(shards)
    domain = router.domain_for(path)
    assert domain in router.domains
    assert again.domain_for(path) == domain  # stable across instances
    assert router.shard_index(path) == router.domains.index(domain)


@settings(max_examples=20, deadline=None)
@given(
    n_before=st.integers(min_value=1, max_value=8),
    extra=st.integers(min_value=1, max_value=8),
)
def test_growing_the_ring_only_sheds_keys(n_before, extra):
    """Consistent hashing: going N → N+k never moves a key between two
    surviving shards — keys either stay put or move to a new shard."""
    small = ShardRouter(n_before)
    big = ShardRouter(n_before + extra)
    surviving = set(small.domains) & set(big.domains)
    for index in range(200):
        path = f"dir{index % 7}/file-{index:03d}.dat"
        before = small.domain_for(path)
        after = big.domain_for(path)
        if before in surviving and after in surviving:
            assert after == before
