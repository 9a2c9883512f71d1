"""Differential properties of the read-cache tier.

The cache must be invisible when off (byte-identical meter in every
disabled spelling, zero ``elasticache`` spend, no bill lines) and an
access-path change only when on: identical result sets, repeated Q2/Q3
collapsing to zero backend reads, per-tier spend splits that sum
exactly, and — the staleness contract — no served entry ever older than
the declared bound, even with a writer's invalidations interleaved
between the readers' queries.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.aws.account import ConsistencyConfig
from repro.aws.billing import ELASTICACHE
from repro.passlib.capture import PassSystem
from repro.sim import Simulation
from tests.properties.test_prop_backend import random_workload


def loaded(events, shards, read_cache, seed=99, **kwargs):
    sim = Simulation(
        architecture="s3+simpledb", seed=seed, shards=shards,
        read_cache=read_cache, **kwargs,
    )
    sim.store_events(events, collect=False)
    return sim


def run_queries(sim, subject):
    engine = sim.query_engine()
    return {
        "q1": set(engine.q1(subject).refs),
        "q2": set(engine.q2_outputs_of("blast").refs),
        "q3": set(engine.q3_descendants_of("blast").refs),
    }


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=1, max_value=6),
)
def test_cache_off_is_byte_identical_on_the_meter(seed, n_stages):
    """Every disabled spelling produces the same meter bytes and never
    touches the ``elasticache`` key — having the tier in the build costs
    nothing until the knob turns it on."""
    events = random_workload(random.Random(seed), n_stages)
    usages = []
    for spec in ("off", "", False):
        sim = loaded(events, 2, spec)
        run_queries(sim, events[-1].subject)
        usages.append(sim.account.meter.snapshot())
    assert usages[0] == usages[1] == usages[2]
    assert usages[0].request_count(ELASTICACHE) == 0
    assert usages[0].transfer_in(ELASTICACHE) == 0
    assert not any(
        label.startswith("elasticache.") and amount
        for label, amount in sim.account.prices.cost(usages[0]).lines
    )


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=1, max_value=6),
    shards=st.integers(min_value=1, max_value=4),
)
def test_cached_results_identical_and_repeats_collapse(seed, n_stages, shards):
    """Cache on is a pure access-path change: identical Q1/Q2/Q3 result
    sets, and a repeated Q2/Q3 answers from memoised closures with zero
    backend operations — including from a freshly built engine."""
    events = random_workload(random.Random(seed), n_stages)
    subject = events[-1].subject
    off = loaded(events, shards, "off")
    on = loaded(events, shards, "on")
    assert run_queries(on, subject) == run_queries(off, subject)

    engine = on.query_engine()  # fresh engine: memos belong to the account
    for measurement in (
        engine.q2_outputs_of("blast"),
        engine.q3_descendants_of("blast"),
    ):
        assert measurement.operations == 0
        assert measurement.cache_operations > 0
        assert measurement.per_shard == ()
        assert [d for d, _, _ in measurement.per_shard_cache] == ["elasticache"]
    cache = on.account.read_cache
    assert cache.hits > 0
    assert cache.max_served_age <= cache.staleness_bound

    # A provenance write invalidates: the next Q2 pays backend reads again.
    pas = PassSystem(workload="invalidator")
    pas.stage_input("in/fresh.dat", b"fresh")
    with pas.process("blast", argv="--again") as proc:
        proc.read("in/fresh.dat")
        proc.write("out/fresh-hit.dat", b"h")
        proc.close("out/fresh-hit.dat")
    on.store_events(pas.drain_flushes(), collect=False)
    assert cache.invalidations > 0
    rerun = on.query_engine().q2_outputs_of("blast")
    assert rerun.operations > 0  # memos were superseded, not reused
    assert rerun.refs == on.query_engine().q2_outputs_of("blast").refs


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=1, max_value=6),
    shards=st.integers(min_value=2, max_value=4),
    concurrency=st.sampled_from([1, 4]),
)
def test_per_tier_spend_split_sums_exactly(seed, n_stages, shards, concurrency):
    """Backend and cache tiers partition the global meter delta exactly:
    ``operations``/``per_shard`` count backend requests only, the
    ``cache_*`` fields count the rest, and their sum is the raw delta —
    in both dispatch modes, on first runs and repeats."""
    events = random_workload(random.Random(seed), n_stages)
    sim = loaded(events, shards, "on", concurrency=concurrency)
    subject = events[-1].subject
    engine = sim.query_engine()
    measurements = [
        engine.q1(subject),
        engine.q2_outputs_of("blast"),
        engine.q3_descendants_of("blast"),
        engine.q2_outputs_of("blast"),  # repeat: memo-served
        engine.q1(subject),             # repeat: item-cache-served
    ]
    for m in measurements:
        assert sum(ops for _, ops, _ in m.per_shard) == m.operations
        assert sum(n for _, _, n in m.per_shard) == m.bytes_out
        assert sum(ops for _, ops, _ in m.per_shard_cache) == m.cache_operations
        assert sum(n for _, _, n in m.per_shard_cache) == m.cache_bytes_out
        assert m.usage.request_count() == m.operations + m.cache_operations
        assert m.usage.request_count(ELASTICACHE) == m.cache_operations

    # Attribution lands on the right label: the repeated Q1's cache hit
    # is credited to the shard that owns the subject, the repeated Q2's
    # memo consult to the phase-level "elasticache" label.
    owning = engine.routing.read_site(subject.path).domain
    repeat_q1 = measurements[4]
    assert repeat_q1.operations == 0
    assert [domain for domain, _, _ in repeat_q1.per_shard_cache] == [owning]
    repeat_q2 = measurements[3]
    assert [d for d, _, _ in repeat_q2.per_shard_cache] == ["elasticache"]


def test_staleness_bound_honoured_across_ageing_and_writes():
    """Entries age out at the declared bound; served ages never exceed
    it; after writes land and replicas converge, cached queries agree
    with an uncached control run over the same event sequence."""
    events = random_workload(random.Random(17), 6)
    half = len(events) // 2
    consistency = ConsistencyConfig.eventual(window=2.0, immediate_fraction=0.4)

    def staged(read_cache):
        sim = Simulation(
            architecture="s3+simpledb", seed=5, shards=2,
            consistency=consistency, read_cache=read_cache,
        )
        sim.store_events(events[:half], collect=False)
        engine = sim.query_engine()
        engine.q2_outputs_of("blast")          # warm (or not) mid-stream
        sim.store_events(events[half:], collect=False)
        sim.account.quiesce()                  # replicas converge
        return sim, run_queries(sim, events[-1].subject)

    on, on_results = staged("on")
    _, off_results = staged("off")
    assert on_results == off_results
    cache = on.account.read_cache
    assert cache.max_served_age <= cache.staleness_bound

    # Ageing: park an entry, stride the clock past the bound, and the
    # authority drops it rather than serve beyond the contract.
    engine = on.query_engine()
    engine.q2_outputs_of("blast")
    misses_before = cache.misses
    on.account.clock.advance(cache.staleness_bound + 0.1)
    stale_run = on.query_engine().q2_outputs_of("blast")
    assert cache.misses > misses_before       # expired entries re-missed
    assert stale_run.operations > 0           # answered from the backend
    assert cache.max_served_age <= cache.staleness_bound


def writer_rounds():
    """Six small blast rounds — the events a concurrent writer stores."""
    for round_index in range(6):
        pas = PassSystem(workload=f"interleaved-{round_index}")
        pas.stage_input(f"in/t{round_index}.dat", b"x")
        with pas.process("blast", argv=f"-r {round_index}") as proc:
            proc.read(f"in/t{round_index}.dat")
            proc.write(f"out/t{round_index}.dat", b"y")
            proc.close(f"out/t{round_index}.dat")
        yield from pas.drain_flushes()


def test_interleaved_readers_never_outrun_writers_past_the_bound():
    """One writer and two readers on one account, their steps merged by
    a seeded schedule (each actor's own order kept): the authority
    totally orders fills against invalidations, so no reader is ever
    served an entry older than the staleness bound, and post-run
    queries agree with an uncached control."""
    base = random_workload(random.Random(23), 5)
    sim = loaded(base, 2, "on", concurrency=4)
    cache = sim.account.read_cache

    def writer():  # one step = one stored flush event
        for event in writer_rounds():
            sim.store_events([event], collect=False)
            yield

    def reader():  # one step = one query
        engine = sim.query_engine()
        for _ in range(6):
            engine.q2_outputs_of("blast")
            yield
            engine.q3_descendants_of("blast")
            yield

    actors = [writer(), reader(), reader()]
    schedule = random.Random(23)
    finished = object()
    while actors:
        actor = schedule.choice(actors)
        if next(actor, finished) is finished:
            actors.remove(actor)
    assert cache.invalidations > 0
    assert cache.hits > 0
    assert cache.max_served_age <= cache.staleness_bound

    control = loaded(base, 2, "off")
    control.store_events(list(writer_rounds()), collect=False)
    sim.account.quiesce()
    control.account.quiesce()
    subject = base[-1].subject
    assert run_queries(sim, subject) == run_queries(control, subject)
