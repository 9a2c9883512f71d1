"""Property tests: the backend protocol is free, and placement is sound.

Three invariants, hammered over randomly generated provenance workloads:

* **protocol extraction is byte-identical** — for any workload and any
  shard count, the engine under an all-SimpleDB placement meters
  exactly the operations and bytes of the *pre-refactor* engine. The
  reference implementations below re-issue the historical direct
  SimpleDB request sequences (frozen copies of the pre-protocol code
  paths), so any adapter overhead — an extra request, a changed
  projection, a different page walk — fails the comparison;
* **placement is invisible to results** — Q1/Q2/Q3 return identical
  result sets whether shards live on SimpleDB, the DynamoDB-style
  store, or a mix; only the metered cost differs;
* **cross-backend migration round-trips** — migrating a populated
  layout (``Simulation.migrate``) to different shard counts *and*
  different backends preserves every item verbatim and drops every
  source store that left the layout.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.aws.sdb_query import quote_literal
from repro.passlib.capture import PassSystem
from repro.passlib.records import Attr, ObjectRef
from repro.query.engine import REF_BATCH, SimpleDBEngine
from repro.sharding import ShardRouter, authoritative_snapshot
from repro.sim import Simulation
from tests.oracles import store_names


def random_workload(rng: random.Random, n_stages: int):
    """A random multi-stage pipeline (same shape as the sharding suite)."""
    pas = PassSystem(workload="prop-backend")
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


def loaded_simulation(events, shards: int, placement=None, **kwargs) -> Simulation:
    sim = Simulation(
        architecture="s3+simpledb", seed=99, shards=shards, placement=placement,
        **kwargs,
    )
    sim.store_events(events, collect=False)
    return sim


# -- frozen pre-refactor request sequences (the byte-identity oracle) -------


def legacy_q2_measure(sim, program: str):
    """Q2 exactly as the pre-protocol engine issued it: two scattered
    phases of QueryWithAttributes pages against the SimpleDB service
    directly. Returns (refs, ops, bytes_out) from a meter delta."""
    account, router = sim.account, sim.store.router
    before = account.meter.snapshot()

    def paged(domain, expression):
        token = None
        while True:
            page = account.simpledb.query_with_attributes(
                domain, expression, attribute_names=[Attr.TYPE], next_token=token
            )
            yield from page.items
            token = page.next_token
            if token is None:
                return

    literal = quote_literal(program)
    expression = f"['type' = 'process'] intersection ['name' = {literal}]"
    instances = {
        ObjectRef.from_item_name(name)
        for domain in router.domains
        for name, _ in paged(domain, expression)
    }
    refs = set()
    if instances:
        ordered = sorted(instances)
        for start in range(0, len(ordered), REF_BATCH):
            chunk = ordered[start : start + REF_BATCH]
            disjunction = " or ".join(
                f"'input' = {quote_literal(ref.encode())}" for ref in chunk
            )
            for domain in router.domains:
                for name, attrs in paged(domain, f"[{disjunction}]"):
                    kind = (attrs.get(Attr.TYPE) or ("file",))[0]
                    if kind == "file":
                        refs.add(ObjectRef.from_item_name(name))
    spent = account.meter.snapshot() - before
    return refs, spent.request_count(), spent.transfer_out()


def legacy_q1_all_measure(sim):
    """Q1-over-everything exactly as the pre-protocol engine issued it:
    per shard, page every item name with Query, then one GetAttributes
    per item (decoding skipped — it costs no metered requests unless a
    value spilled, and the workload above never spills)."""
    account, router = sim.account, sim.store.router
    before = account.meter.snapshot()
    refs = set()
    for domain in router.domains:
        token = None
        names = []
        while True:
            page = account.simpledb.query(domain, None, next_token=token)
            names.extend(page.item_names)
            token = page.next_token
            if token is None:
                break
        for item_name in names:
            attrs = account.simpledb.get_attributes(domain, item_name)
            if attrs:
                refs.add(ObjectRef.from_item_name(item_name))
    spent = account.meter.snapshot() - before
    return refs, spent.request_count(), spent.transfer_out()


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=1, max_value=8),
    shards=st.integers(min_value=1, max_value=6),
)
def test_all_sdb_placement_meters_identically_to_pre_refactor_engine(
    seed, n_stages, shards
):
    events = random_workload(random.Random(seed), n_stages)
    # The legacy oracle predates access-path planning; planned modes add
    # statistics consults, so the byte-identity comparison pins the knob
    # (the planner-off default is the byte-identical path).
    sim = loaded_simulation(events, shards=shards, placement="sdb", planner="off")
    engine = sim.query_engine()

    for program in ("blast", "align", "merge"):
        q2 = engine.q2_outputs_of(program)
        legacy_refs, legacy_ops, legacy_bytes = legacy_q2_measure(sim, program)
        assert set(q2.refs) == legacy_refs
        assert q2.operations == legacy_ops
        assert q2.bytes_out == legacy_bytes

    q1_all = engine.q1_all()
    legacy_refs, legacy_ops, legacy_bytes = legacy_q1_all_measure(sim)
    assert set(q1_all.refs) == legacy_refs
    assert q1_all.operations == legacy_ops
    assert q1_all.bytes_out == legacy_bytes


PLACEMENTS = ["sdb", "ddb", "mixed", {0: "ddb"}]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=1, max_value=8),
    shards=st.integers(min_value=1, max_value=5),
    placement=st.sampled_from(PLACEMENTS),
)
def test_placement_is_invisible_to_query_results(seed, n_stages, shards, placement):
    events = random_workload(random.Random(seed), n_stages)
    baseline = loaded_simulation(events, shards=1, placement="sdb")
    placed = loaded_simulation(events, shards=shards, placement=placement)
    base_engine = baseline.query_engine()
    placed_engine = placed.query_engine()

    for program in ("blast", "merge"):
        assert set(placed_engine.q2_outputs_of(program).refs) == set(
            base_engine.q2_outputs_of(program).refs
        )
        assert set(placed_engine.q3_descendants_of(program).refs) == set(
            base_engine.q3_descendants_of(program).refs
        )
    assert set(placed_engine.q1_all().refs) == set(base_engine.q1_all().refs)
    subject = events[0].subject
    assert set(placed_engine.q1(subject).refs) == set(base_engine.q1(subject).refs)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=1, max_value=8),
    n_before=st.integers(min_value=1, max_value=5),
    n_after=st.integers(min_value=1, max_value=5),
    placement_before=st.sampled_from(PLACEMENTS),
    placement_after=st.sampled_from(PLACEMENTS),
)
def test_cross_backend_rebalance_round_trip(
    seed, n_stages, n_before, n_after, placement_before, placement_after
):
    events = random_workload(random.Random(seed), n_stages)
    sim = loaded_simulation(events, shards=n_before, placement=placement_before)
    source = sim.store.router
    target = ShardRouter(n_after, placement=placement_after)

    before = authoritative_snapshot(sim.account, source)
    sim.account.quiesce()
    report = sim.migrate(router=target)
    after = authoritative_snapshot(sim.account, target)

    # Every item preserved verbatim, landed on its target (store, kind).
    assert after == before
    assert report.items_scanned == len(before)
    assert report.items_moved + report.items_kept == report.items_scanned
    backends = sim.account.provenance_backends()
    for item_name in after:
        owner = target.domain_for_item(item_name)
        owning = backends[target.backend_for(owner)]
        assert item_name in owning.authoritative_item_names(owner)

    # Source stores that left the layout (by name or by backend) were
    # emptied and dropped; surviving (store, kind) sites were not.
    target_sites = set(target.placement_by_domain().items())
    for domain in source.domains:
        kind = source.backend_for(domain)
        if (domain, kind) in target_sites:
            continue
        assert backends[kind].item_count(domain) == 0
        assert domain in report.domains_deleted or not before

    # A flip of every shard's backend forces every *moved* item across.
    if (
        source.domains == target.domains
        and all(k == "sdb" for k in source.placement)
        and all(k == "ddb" for k in target.placement)
    ):
        assert report.cross_backend_moves == report.items_moved == len(before)


def test_full_backend_flip_migrates_every_item():
    """sdb→ddb at the same shard count: same store names, different
    service — every item must cross, every old store must drop."""
    events = random_workload(random.Random(21), 6)
    sim = loaded_simulation(events, shards=3, placement="sdb")
    source = sim.store.router
    target = ShardRouter(3, placement="ddb")
    before = authoritative_snapshot(sim.account, source)
    sim.account.quiesce()
    report = sim.migrate(router=target)

    assert report.cross_backend_moves == report.items_moved == len(before)
    assert report.items_kept == 0
    assert authoritative_snapshot(sim.account, target) == before
    assert store_names(sim.account.simpledb) == []  # all dropped
    assert set(store_names(sim.account.dynamodb)) == set(target.domains)
    # And back again, through the other adapter's write path.
    back = sim.migrate(router=ShardRouter(3, placement="sdb"))
    assert back.cross_backend_moves == len(before)
    assert authoritative_snapshot(
        sim.account, ShardRouter(3, placement="sdb")
    ) == before
    assert store_names(sim.account.dynamodb) == []


def test_queries_work_after_cross_backend_migration():
    """The migrated layout answers Q2/Q3 identically to a fresh load."""
    events = random_workload(random.Random(33), 7)
    sim = loaded_simulation(events, shards=2, placement="sdb")
    sim.account.quiesce()
    target = ShardRouter(4, placement="mixed")
    sim.migrate(router=target)
    assert sim.store.router is target
    migrated = sim.query_engine()
    control = loaded_simulation(events, shards=1, placement="sdb").query_engine()
    for program in ("blast", "align"):
        assert set(migrated.q2_outputs_of(program).refs) == set(
            control.q2_outputs_of(program).refs
        )
        assert set(migrated.q3_descendants_of(program).refs) == set(
            control.q3_descendants_of(program).refs
        )


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_stages=st.integers(min_value=1, max_value=6),
    shards=st.integers(min_value=2, max_value=5),
    concurrency=st.sampled_from([1, 4]),
)
def test_per_backend_accounting_sums_exactly(seed, n_stages, shards, concurrency):
    """per_backend rolls up per_shard exactly — ops and bytes — under
    mixed placement, in both dispatch modes."""
    events = random_workload(random.Random(seed), n_stages)
    sim = loaded_simulation(events, shards=shards, placement="mixed")
    engine = SimpleDBEngine(
        sim.account, router=sim.store.router, concurrency=concurrency
    )
    for measurement in (
        engine.q2_outputs_of("blast"),
        engine.q3_descendants_of("blast"),
        engine.q1_all(),
    ):
        assert sum(ops for _, ops, _ in measurement.per_backend) == measurement.operations
        assert (
            sum(nbytes for _, _, nbytes in measurement.per_backend)
            == measurement.bytes_out
        )
        kinds = {kind for kind, _, _ in measurement.per_backend}
        assert kinds <= {"sdb", "ddb"}
        router = sim.store.router
        expected_kinds = {
            router.backend_for(domain) for domain, _, _ in measurement.per_shard
        }
        assert kinds == expected_kinds
