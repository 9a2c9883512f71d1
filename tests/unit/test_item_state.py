"""Immutability pinned, not assumed: ``ItemState`` and what reads hand out.

A stored item state's byte size is fixed when its write commits, which is
only sound if nothing edits the state afterwards. Two halves:

* the type refuses: every in-place ``dict`` method of a committed
  :class:`~repro.aws.item.ItemState` raises ``TypeError`` — so "no code
  path assigns into a committed state" is enforced by the stored type
  itself (the size audit of ``tests/properties/test_prop_sizes.py`` is
  the second line of defence, not the first);
* reads hand out plain, caller-owned ``dict`` copies: mutating anything a
  read returned changes neither the stored state, nor a later read, nor
  later metering.
"""

from __future__ import annotations

import pytest

from repro.aws import billing
from repro.aws.item import ABSENT, ItemState, _attr_size
from test_sized_reads import DOMAIN, TABLE, ddb_account, sdb_account, spend


def test_item_state_is_a_sized_read_only_dict():
    attrs = {"naïve": ("é", "x"), "t": ("file",)}
    state = ItemState(attrs, _attr_size(attrs))
    assert state == attrs and state.nbytes == (6 + 2) + (6 + 1) + (1 + 4)
    assert (ABSENT, ABSENT.nbytes) == ({}, 0)
    for copy in (dict(state), {**state}, state.copy()):
        assert type(copy) is dict and copy == attrs
    for mutate in (
        lambda s: s.__setitem__("a", ("b",)),
        lambda s: s.__delitem__("t"),
        lambda s: s.pop("t"),
        lambda s: s.popitem(),
        lambda s: s.clear(),
        lambda s: s.update(a=("b",)),
        lambda s: s.setdefault("a", ("b",)),
        lambda s: s.__ior__({"a": ("b",)}),
    ):
        with pytest.raises(TypeError):
            mutate(state)
    assert state == attrs


def _ddb(read):
    return ddb_account, lambda account: read(account.dynamodb), billing.DDB


def _gsi(read):
    return ddb_account, lambda account: read(account.dynamodb), billing.DDB_GSI


def _sdb(read):
    return sdb_account, lambda account: read(account.simpledb), billing.SDB


#: name -> (account builder, read returning the dicts it hands out, billing key)
READS = {
    "scan": _ddb(lambda ddb: [attrs for _, attrs in ddb.scan(TABLE).items]),
    "scan strong": _ddb(
        lambda ddb: [attrs for _, attrs in ddb.scan(TABLE, consistent=True).items]
    ),
    "get_item": _ddb(lambda ddb: [ddb.get_item(TABLE, "ítem-011")]),
    "get_item strong": _ddb(
        lambda ddb: [ddb.get_item(TABLE, "ítem-011", consistent=True)]
    ),
    "query_index": _gsi(
        lambda ddb: [
            attrs for _, attrs in ddb.query_index(TABLE, "by-name", ["file-1"]).entries
        ]
    ),
    "scan_index project_all": _gsi(
        lambda ddb: [attrs for _, attrs in ddb.scan_index(TABLE, "all-by-type").entries]
    ),
    "ddb authoritative_item": _ddb(
        lambda ddb: [ddb.authoritative_item(TABLE, "ítem-011")]
    ),
    "authoritative_index_entries": _gsi(
        lambda ddb: list(ddb.authoritative_index_entries(TABLE, "all-by-type").values())
    ),
    "get_attributes": _sdb(lambda sdb: [sdb.get_attributes(DOMAIN, "ítem-011")]),
    "query_with_attributes": _sdb(
        lambda sdb: [attrs for _, attrs in sdb.query_with_attributes(DOMAIN).items]
    ),
    "select *": _sdb(
        lambda sdb: [attrs for _, attrs in sdb.select(f"select * from {DOMAIN}").items]
    ),
    "sdb authoritative_item": _sdb(
        lambda sdb: [sdb.authoritative_item(DOMAIN, "ítem-011")]
    ),
}


@pytest.mark.parametrize("name", READS)
def test_mutating_a_read_result_changes_nothing_stored(name):
    build, read, service = READS[name]
    account = build()
    handed_out = read(account)
    assert handed_out and all(type(attrs) is dict and attrs for attrs in handed_out)
    pristine = [dict(attrs) for attrs in handed_out]
    billed = spend(account, service, read, account)

    for attrs in handed_out:
        attrs["name"] = ("overwritten",)
        attrs["injected"] = ("x" * 50,)
        del attrs["type"]
    handed_out[0].clear()

    assert read(account) == pristine
    assert spend(account, service, read, account) == billed
    assert account.dynamodb.size_audit() == account.simpledb.size_audit() == []
