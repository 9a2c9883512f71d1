"""DynamoDB pages off the ordered keyspace ≡ sort everything, then filter.

``ReplicaSet`` keeps its keys sorted and the service bisects to a page
(``ordered_snapshot`` / ``OrderedSnapshot.between``). Every page must be
exactly what the pre-seek service served: a replica drawn, sorted whole,
filtered linearly past the start key and cut at the page budget. That
code lives on in ``tests/oracles.py`` (``reference_*``): it runs against
a *twin* service fed the same seed and calls, so results, the whole
meter and the RNG stream are compared request by request.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.aws import billing
from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.consistency import DelayModel, OrderedSnapshot, ReplicaSet
from repro.aws.dynamo import (
    INDEX_KEY_SEP,
    SCAN_MAX_PAGE,
    IndexSpec,
    ScanResult,
    index_entry_key,
)
from repro.clock import SimClock
from tests.oracles import (
    reference_entry_size,
    reference_item_size,
    reference_items_snapshot,
    reference_query_index,
    reference_scan,
    reference_scan_index,
    store_names,
)

TABLE = "t"
SIMPLE = IndexSpec("gsi-k", "k", include=("t",))
COMPOSITE = IndexSpec("gsi-k-r", "k", range_attribute="r", project_all=True)
EVENTUAL = ConsistencyConfig.eventual(window=2.0, immediate_fraction=0.4)


REFERENCE = {
    "scan": reference_scan,
    "query_index": reference_query_index,
    "scan_index": reference_scan_index,
}


# -- generators --------------------------------------------------------------

# Item names include the empty one (its simple-index entry key is exactly
# ``value + SEP``, the first key of a partition) and names never written.
_written = ["", "i0", "i1", "i10", "i2", "j"]
_item_names = st.sampled_from(_written)
_token_names = st.sampled_from([*_written, "h", "i1\x00", "zz"])
# Hash values that prefix one another, and one right at a partition's end.
_hash_values = st.sampled_from(["a", "a\x01", "a0", "ab", "b"])
_range_values = st.sampled_from(["0", "1", "10", "2"])
_fat = "x" * 7000  # three of these overrun a page's byte budget
_limits = st.one_of(st.integers(1, 4), st.just(SCAN_MAX_PAGE))

_adds = st.lists(
    st.one_of(
        st.tuples(st.just("k"), _hash_values),
        st.tuples(st.just("r"), _range_values),
        st.tuples(st.just("t"), st.sampled_from(["file", "proc", _fat])),
    ),
    min_size=1,
    max_size=3,
)
_mutations = st.one_of(
    st.tuples(st.just("put"), _item_names, _adds),
    st.tuples(st.just("put"), _item_names, _adds),
    st.tuples(st.just("delete"), _item_names),
    st.tuples(st.just("advance"), st.sampled_from([0.3, 1.0, 5.0])),
)

_range_conditions = st.one_of(
    st.none(),
    st.tuples(st.sampled_from([">=", "<=", ">", "<"]), _range_values),
    st.tuples(st.just("between"), _range_values, _range_values),
)


@st.composite
def _entry_tokens(draw, composite):
    """A start token for an index page: none, or the position of an entry
    that is live, was deleted, or never existed."""
    if draw(st.booleans()):
        return None
    range_value = draw(_range_values) if composite else None
    return index_entry_key(draw(_hash_values), draw(_token_names), range_value)


@st.composite
def _reads(draw):
    kind = draw(st.sampled_from(["scan", "query_index", "scan_index"]))
    if kind == "scan":
        return kind, {
            "exclusive_start_key": draw(st.one_of(st.none(), _token_names)),
            "limit": draw(_limits),
            "consistent": draw(st.booleans()),
        }
    spec = draw(st.sampled_from([SIMPLE, COMPOSITE]))
    composite = spec is COMPOSITE
    kwargs = {
        "index_name": spec.name,
        "exclusive_start_key": draw(_entry_tokens(composite)),
        "limit": draw(_limits),
    }
    if kind == "query_index":
        kwargs["key_values"] = draw(st.lists(_hash_values, min_size=1, max_size=4))
        if composite:
            kwargs["range_condition"] = draw(_range_conditions)
    return kind, kwargs


_steps = st.lists(
    st.one_of(_mutations, _reads().map(lambda read: ("read", *read))),
    min_size=1,
    max_size=24,
)


def new_account(consistency, seed=11) -> AWSAccount:
    account = AWSAccount(seed=seed, consistency=consistency)
    # Capacity far above anything a test spends: throttling is not under test.
    account.dynamodb.create_table(TABLE, read_capacity=10**9, write_capacity=10**9)
    account.dynamodb.create_index(TABLE, SIMPLE)
    account.dynamodb.create_index(TABLE, COMPOSITE)
    return account


def mutate(account, step, table=TABLE) -> None:
    if step[0] == "put":
        account.dynamodb.update_item(table, step[1], step[2])
    elif step[0] == "delete":
        account.dynamodb.delete_item(table, step[1])
    else:
        account.clock.advance(step[1])


def installs_pending(ddb) -> bool:
    table = ddb._table(TABLE)
    return bool(
        table.replicas.pending_installs
        or any(index.replicas.pending_installs for index in table.indexes.values())
    )


# -- pages ≡ the reference ---------------------------------------------------

@pytest.mark.parametrize(
    "consistency", [ConsistencyConfig.strong(), EVENTUAL], ids=["strong", "eventual"]
)
@settings(max_examples=200, deadline=None)
@given(steps=_steps)
def test_every_page_equals_the_reference(consistency, steps):
    """Same page, same ``last_evaluated_key``, same meter, same RNG state
    after every request — whether the snapshot was the live view (strong
    model, or an eventual one with nothing in flight) or was built from
    the replica the request drew."""
    account, twin = new_account(consistency), new_account(consistency)
    ddb, oracle = account.dynamodb, twin.dynamodb
    for step in steps:
        if step[0] != "read":
            mutate(account, step)
            mutate(twin, step)
            continue
        _, kind, kwargs = step
        event(f"{kind}: installs pending = {installs_pending(ddb)}")
        got = getattr(ddb, kind)(TABLE, **kwargs)
        assert got == REFERENCE[kind](oracle, TABLE, **kwargs)
        assert account.meter.snapshot() == twin.meter.snapshot()
        assert ddb._rng.getstate() == oracle._rng.getstate()


def walk(request, **kwargs):
    """Every row of a paged read, following ``last_evaluated_key``."""
    rows, token = [], None
    while True:
        page = request(exclusive_start_key=token, **kwargs)
        rows.extend(page.items if isinstance(page, ScanResult) else page.entries)
        token = page.last_evaluated_key
        if token is None:
            return rows


@settings(max_examples=100, deadline=None)
@given(
    mutations=st.lists(_mutations, min_size=1, max_size=20),
    limit=st.integers(1, 4),
    key_values=st.lists(_hash_values, min_size=1, max_size=3),
    range_condition=_range_conditions,
)
def test_paged_walk_equals_the_unpaged_read_after_quiesce(
    mutations, limit, key_values, range_condition
):
    account = new_account(EVENTUAL)
    ddb = account.dynamodb
    for mutation in mutations:
        mutate(account, mutation)
    account.quiesce()
    # Thin the fat values out so the unpaged read really is one page.
    for name in ddb.authoritative_item_names(TABLE):
        if _fat in ddb.authoritative_item(TABLE, name).get("t", ()):
            ddb.delete_item(TABLE, name)
    account.quiesce()

    def same(request, **kwargs):
        whole = request(**kwargs)
        assert whole.last_evaluated_key is None
        rows = whole.items if isinstance(whole, ScanResult) else whole.entries
        assert walk(request, limit=limit, **kwargs) == list(rows)
        return rows

    def on(method, *args):
        return lambda **kwargs: method(TABLE, *args, **kwargs)

    items = same(on(ddb.scan))
    assert items == same(on(ddb.scan), consistent=True)
    assert [name for name, _ in items] == ddb.authoritative_item_names(TABLE)
    for spec in (SIMPLE, COMPOSITE):
        entries = same(on(ddb.scan_index, spec.name))
        assert len(entries) == len(ddb.authoritative_index_entries(TABLE, spec.name))
        same(on(ddb.query_index, spec.name, key_values))
    same(on(ddb.query_index, COMPOSITE.name, key_values), range_condition=range_condition)


def test_reads_hand_out_states_no_caller_can_edit():
    """Table, replicas and index entries share one state object per item,
    and every read hands that object (or its stored projection) out: an
    edit of anything a read returned raises, and nothing stored moves."""
    ddb = new_account(ConsistencyConfig.strong()).dynamodb
    ddb.update_item(TABLE, "i0", [("k", "a"), ("r", "1"), ("t", "file")])
    before = dict(ddb.authoritative_item(TABLE, "i0"))
    assert ddb.get_item(TABLE, "i0", consistent=True) is ddb.authoritative_item(
        TABLE, "i0"
    )
    handed_out = [
        ddb.get_item(TABLE, "i0"),
        ddb.get_item(TABLE, "i0", consistent=True),
        ddb.scan(TABLE).items[0][1],
        ddb.scan(TABLE, consistent=True).items[0][1],
        ddb.query_index(TABLE, SIMPLE.name, ["a"]).entries[0][1],
        ddb.scan_index(TABLE, COMPOSITE.name).entries[0][1],
        ddb.authoritative_item(TABLE, "i0"),
    ]
    for state in handed_out:
        with pytest.raises(TypeError):
            state["k"] = ("clobbered",)
        with pytest.raises(TypeError):
            state.pop("t", None)
    assert ddb.authoritative_item(TABLE, "i0") == before
    assert ddb.scan(TABLE).items == (("i0", before),)
    assert ddb.scan_index(TABLE, COMPOSITE.name).entries == (("i0", before),)
    assert ddb.query_index(TABLE, SIMPLE.name, ["a"]).entries == (
        ("i0", {"k": ("a",), "t": ("file",)}),
    )


# -- the ordered keyspace itself --------------------------------------------

_keys = st.sampled_from(["", "a", "a\x00", "a\x01", "ab", "b", "c"])


@settings(max_examples=200, deadline=None)
@given(
    keys=st.sets(_keys),
    after=st.one_of(st.none(), _keys),
    before=st.one_of(st.none(), _keys),
)
def test_between_is_the_open_interval(keys, after, before):
    snapshot = OrderedSnapshot(sorted(keys), {key: key.upper() for key in keys})
    assert list(snapshot.between(after, before)) == [
        (key, key.upper())
        for key in sorted(keys)
        if (after is None or key > after) and (before is None or key < before)
    ]


_replica_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _keys, st.integers(0, 9)),
        st.tuples(st.just("delete"), _keys, st.none()),
        st.tuples(st.just("advance"), st.sampled_from([0.2, 1.0]), st.none()),
        st.tuples(st.just("read"), st.none(), st.none()),
    ),
    min_size=1,
    max_size=30,
)


def new_replicas(delays) -> tuple[SimClock, ReplicaSet]:
    clock = SimClock()
    return clock, ReplicaSet("r", clock, random.Random(5), 3, delays)


@pytest.mark.parametrize(
    "delays", [DelayModel(), DelayModel(0.1, 1.5, 0.3)], ids=["strong", "eventual"]
)
@settings(max_examples=200, deadline=None)
@given(ops=_replica_ops)
def test_ordered_keys_track_the_authority(delays, ops):
    """The sorted key list equals ``sorted(authority)`` after every
    mutation; a snapshot is the drawn replica, sorted, tombstones gone
    (the twin makes the same draw through the reference); and deleting
    everything leaves no key behind."""
    (clock, replicas), (twin_clock, twin) = new_replicas(delays), new_replicas(delays)
    for op, key, value in ops:
        for c, r in ((clock, replicas), (twin_clock, twin)):
            if op == "write":
                r.write(key, value)
            elif op == "delete":
                r.delete(key)
            elif op == "advance":
                c.advance(key)
        if op == "read":
            event(f"installs pending = {replicas.pending_installs > 0}")
            snapshot = replicas.ordered_snapshot()
            expected = list(reference_items_snapshot(twin))
            assert list(snapshot.between()) == expected
            assert list(snapshot.keys) == [key for key, _ in expected]
        assert replicas._ordered_keys == sorted(replicas._authority)
        assert replicas.authoritative_keys() == sorted(replicas._authority)
        assert dict(replicas.authoritative_items()) == replicas._authority
    for key in replicas.authoritative_keys():
        replicas.delete(key)
    assert replicas._ordered_keys == [] and len(replicas) == 0
    assert list(replicas.ordered_snapshot(authoritative=True).between()) == []


def test_in_window_snapshot_is_the_replica_not_the_authority():
    """A write still in flight to every replica is invisible to a
    snapshot and visible to an authoritative one."""
    clock, replicas = new_replicas(DelayModel(1.0, 1.0))
    replicas.write("a", 1)
    clock.advance(2.0)
    replicas.write("b", 2)
    replicas.delete("a")
    assert replicas.pending_installs
    for _ in range(6):  # whichever replica is drawn
        assert list(replicas.ordered_snapshot().between()) == [("a", 1)]
    assert list(replicas.ordered_snapshot(authoritative=True).between()) == [("b", 2)]
    clock.advance(2.0)
    assert list(replicas.ordered_snapshot().between()) == [("b", 2)]


# -- RNG discipline ----------------------------------------------------------

def test_one_replica_draw_per_eventual_request_none_per_consistent_scan():
    """Three services, same seed, same writes. The first pages (start
    keys, tiny limits, several hash values per Query, consistent Scans
    in between); the second makes the same number of unpaged eventual
    requests and no consistent one; the third makes point reads — one
    replica draw each, by definition. Their RNG streams must stay in
    step inside a window and after it, so the writes that follow draw
    the same delays and all three observe one stale/fresh pattern."""

    def paging(ddb):
        ddb.scan(TABLE, exclusive_start_key="i3", limit=1)
        ddb.scan(TABLE, limit=2, consistent=True)
        ddb.query_index(TABLE, SIMPLE.name, ["a", "b", "ab"], limit=1)
        ddb.query_index(
            TABLE, COMPOSITE.name, ["b", "a"], limit=2,
            exclusive_start_key=index_entry_key("a", "i4", "1"),
            range_condition=(">=", "1"),
        )
        ddb.scan(TABLE, consistent=True)
        ddb.scan_index(
            TABLE, SIMPLE.name, exclusive_start_key=index_entry_key("a", "i2"), limit=1
        )

    def unpaged(ddb):
        ddb.scan(TABLE)
        ddb.query_index(TABLE, SIMPLE.name, ["a"])
        ddb.query_index(TABLE, COMPOSITE.name, ["zz"])
        ddb.scan_index(TABLE, COMPOSITE.name)

    def point_reads(ddb):
        for _ in range(4):
            ddb.get_item(TABLE, "i0")

    observed, states = [], []
    for requests in (paging, unpaged, point_reads):
        account = new_account(EVENTUAL, seed=9)
        ddb = account.dynamodb
        for i in range(12):
            ddb.update_item(TABLE, f"i{i}", [("k", "ab"[i % 2]), ("r", f"{i % 3}")])
        requests(ddb)  # in-window: a snapshot built from the drawn replica
        account.quiesce()
        for _ in range(5):
            requests(ddb)  # converged: the live view
        states.append(ddb._rng.getstate())
        for i in range(12):
            ddb.update_item(TABLE, f"j{i}", [("k", "a")])
        observed.append([bool(ddb.get_item(TABLE, f"j{i % 12}")) for i in range(60)])
    assert states[0] == states[1] == states[2]
    assert observed[0] == observed[1] == observed[2]
    assert len(set(observed[0])) == 2  # the pattern does discriminate


# -- maintained totals -------------------------------------------------------

def recount(ddb, table_name) -> dict:
    """``describe_table`` from scratch, off the authoritative state."""
    table = ddb._table(table_name)
    described = {
        "item_count": len(table.authority),
        "table_bytes": sum(reference_item_size(k, v) for k, v in table.authority.items()),
        "indexes": {},
    }
    for name, index in table.indexes.items():
        entries = [
            (key.split(INDEX_KEY_SEP), reference_entry_size(key, projected))
            for key, projected in index.replicas._authority.items()
        ]
        composite = index.spec.range_attribute is not None

        def histogram(part, weigh, entries=entries):
            totals: dict[str, int] = {}
            for parts, size in entries:
                totals[parts[part]] = totals.get(parts[part], 0) + weigh(size)
            return totals

        described["indexes"][name] = {
            "range_attribute": index.spec.range_attribute,
            "entry_count": len(entries),
            "entry_bytes": sum(size for _, size in entries),
            "distinct_keys": len({parts[0] for parts, _ in entries}),
            "key_counts": histogram(0, lambda size: 1),
            "key_bytes": histogram(0, lambda size: size),
            "range_counts": histogram(1, lambda size: 1) if composite else {},
            "range_bytes": histogram(1, lambda size: size) if composite else {},
            "lag_seconds": 0.0,
        }
    return described


def stored(account) -> dict[str, int]:
    levels = dict(account.meter.snapshot().stored_bytes)
    return {key: levels.get(key, 0) for key in (billing.DDB, billing.DDB_GSI)}


def recounted_storage(ddb) -> dict[str, int]:
    counts = [recount(ddb, name) for name in store_names(ddb)]
    return {
        billing.DDB: sum(c["table_bytes"] for c in counts),
        billing.DDB_GSI: sum(
            index["entry_bytes"] for c in counts for index in c["indexes"].values()
        ),
    }


@settings(max_examples=100, deadline=None)
@given(
    mutations=st.lists(_mutations, min_size=1, max_size=16),
    others=st.lists(_mutations, max_size=6),
)
def test_totals_equal_a_recount_and_deletes_free_exactly_them(mutations, others):
    """``describe_table`` is a recount after every mutation, and
    ``delete_table`` — which frees the maintained totals instead of
    re-walking the data — leaves the stored meters where a recount of
    what remains says (a second table keeps the levels from trivially
    reading zero)."""
    account = new_account(ConsistencyConfig.strong())
    ddb = account.dynamodb
    ddb.create_table("other")
    ddb.create_index("other", SIMPLE)
    for step in others:
        mutate(account, step, table="other")
    for mutation in mutations:
        mutate(account, mutation)
        assert ddb.describe_table(TABLE) == recount(ddb, TABLE)
        assert stored(account) == recounted_storage(ddb)
    ddb.delete_table(TABLE)
    assert store_names(ddb) == ["other"]
    assert stored(account) == recounted_storage(ddb)
    ddb.delete_table("other")
    assert stored(account) == {billing.DDB: 0, billing.DDB_GSI: 0}
