"""Sized once at commit ≡ measured from scratch, after every write.

Stored item states and GSI entry projections carry their billed byte
size (``ItemState.nbytes``); the write paths set it — incrementally in
``dynamo._merged`` / ``SimpleDBService._merged_state`` — and every
aggregate (``_Table.total_bytes``, ``_Index.entry_bytes``, SimpleDB's
``_stat_bytes``, the meter's stored levels) is built from those
integers. ``size_audit()`` on each service recomputes all of it by
walking the authority, every replica (lagging ones included) and every
index entry. Here random interleavings of every write path — inside an
eventual-consistency window, with throttled partial batch admission —
must leave the audit empty after every single step.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro import errors
from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.dynamo import IndexSpec
from repro.aws.simpledb import Attribute

T = "t"
EVENTUAL = ConsistencyConfig.eventual(window=2.0, immediate_fraction=0.3)
SPECS = {
    "simple": IndexSpec("simple", "k", include=("t",)),
    "composite": IndexSpec("composite", "k", range_attribute="r", wcu=40),
    "all": IndexSpec("all", "t", project_all=True, wcu=40),
}

_items = st.sampled_from(["", "a", "b", "ü", "item-3"])
_pairs = st.one_of(
    st.tuples(st.just("k"), st.sampled_from(["x", "y", "é"])),
    st.tuples(st.just("r"), st.sampled_from(["0", "1", "10"])),
    st.tuples(st.just("t"), st.sampled_from(["file", "proc", "w" * 700])),
    st.tuples(st.sampled_from(["naïve", "in"]), st.text("abcé", max_size=3)),
)
_adds = st.lists(_pairs, min_size=1, max_size=4)
_advance = st.tuples(st.just("advance"), st.sampled_from([0.2, 1.0, 5.0]))

_ddb_ops = st.one_of(
    st.tuples(st.just("put"), _items, _adds),
    st.tuples(st.just("batch"), st.lists(st.tuples(_items, _adds), min_size=1, max_size=10)),
    st.tuples(st.just("delete"), _items),
    st.tuples(st.just("create_index"), st.sampled_from(sorted(SPECS))),
    st.tuples(st.just("delete_table")),
    _advance,
)


#: Write units a second on the table's window (which the ``simple``
#: index shares): any one write fits, a wide batch only in part.
CAPACITY = 8


def _written(account, send, request) -> None:
    """The adapter's throttle loop: ``send(request)`` until nothing is
    left unprocessed, backing off a second in between — and auditing
    after every partial step."""
    for _ in range(40):
        try:
            request = send(request)  # None / [] = everything was admitted
        except errors.ProvisionedThroughputExceeded:
            pass
        assert account.dynamodb.size_audit() == []
        if not request:
            return
        account.clock.advance(1.0)
    raise AssertionError(f"{request} never fit the provisioned window")


@given(st.lists(_ddb_ops, min_size=1, max_size=25))
def test_dynamo_sizes_survive_every_write_path(ops):
    account = AWSAccount(seed=4, consistency=EVENTUAL)
    ddb = account.dynamodb
    ddb.create_table(T, write_capacity=CAPACITY)
    for op, *args in ops:
        if op == "put":
            _written(account, lambda put: ddb.update_item(T, *put), args)
        elif op == "batch":
            _written(account, lambda puts: ddb.batch_write_item(T, puts), args[0])
        elif op == "delete":
            _written(account, lambda key: ddb.delete_item(T, *key), args)
        elif op == "create_index":
            ddb.create_index(T, SPECS[args[0]])
        elif op == "delete_table":
            ddb.delete_table(T)
            ddb.create_table(T, write_capacity=CAPACITY)
        else:
            account.clock.advance(args[0])
        assert ddb.size_audit() == []
    account.quiesce()
    assert ddb.size_audit() == []


_sdb_attrs = st.lists(
    st.one_of(
        _pairs,
        st.builds(lambda pair, replace: Attribute(*pair, replace), _pairs, st.booleans()),
    ),
    min_size=1,
    max_size=5,
)
_sdb_deletes = st.one_of(
    st.none(),  # the whole item
    st.lists(st.one_of(st.sampled_from(["k", "t", "in", "absent"]), _pairs), min_size=1, max_size=3),
)
_sdb_ops = st.one_of(
    st.tuples(st.just("put"), _items, _sdb_attrs),
    st.tuples(st.just("batch"), st.lists(st.tuples(_items, _sdb_attrs), min_size=1, max_size=6)),
    st.tuples(st.just("delete"), _items, _sdb_deletes),
    st.tuples(st.just("delete_domain")),
    _advance,
)


@given(st.lists(_sdb_ops, min_size=1, max_size=25))
def test_simpledb_sizes_survive_every_write_path(ops):
    account = AWSAccount(seed=4, consistency=EVENTUAL)
    sdb = account.simpledb
    sdb.create_domain(T)
    for op, *args in ops:
        if op == "put":
            sdb.put_attributes(T, *args)
        elif op == "batch":
            sdb.batch_put_attributes(T, *args)
        elif op == "delete":
            sdb.delete_attributes(T, *args)
        elif op == "delete_domain":
            sdb.delete_domain(T)
            sdb.create_domain(T)
        else:
            account.clock.advance(args[0])
        assert sdb.size_audit() == []
    account.quiesce()
    assert sdb.size_audit() == []
