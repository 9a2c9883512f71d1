"""Immutability pinned, not assumed: ``ItemState`` and what reads hand out.

A stored item state's byte size is fixed when its write commits, which is
only sound if nothing edits the state afterwards. Two halves:

* the type refuses: every in-place ``dict`` method of a committed
  :class:`~repro.aws.item.ItemState` raises ``TypeError`` — so "no code
  path assigns into a committed state" is enforced by the stored type
  itself (the size audit of ``tests/properties/test_prop_sizes.py`` is
  the second line of defence, not the first);
* reads hand out immutable values — the stored state itself, or a
  projection built as a new ``ItemState`` — so every attempt to edit
  anything a read returned raises ``TypeError``, and changes neither the
  stored state, nor a later read, nor later metering.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.aws import billing
from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.item import ABSENT, ItemState, _attr_size, sized
from repro.passlib import serializer
from test_sized_reads import DOMAIN, TABLE, ddb_account, sdb_account, spend


def test_item_state_is_a_sized_read_only_dict():
    attrs = {"naïve": ("é", "x"), "t": ("file",)}
    state = sized(attrs, _attr_size(attrs))
    assert state == attrs and state.nbytes == (6 + 2) + (6 + 1) + (1 + 4)
    assert (ABSENT, ABSENT.nbytes) == ({}, 0)
    for plain in (dict(state), {**state}, state.copy()):
        assert type(plain) is dict and plain == attrs
    for rebuilt in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert type(rebuilt) is ItemState and rebuilt == attrs
        assert rebuilt.nbytes == state.nbytes
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
    "query_with_attributes postings": _sdb(
        lambda sdb: [
            attrs
            for _, attrs in sdb.query_with_attributes(DOMAIN, "['type' = 'file']").items
        ]
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
    assert handed_out and all(handed_out)
    pristine = [dict(attrs) for attrs in handed_out]
    billed = spend(account, service, read, account)

    for attrs in handed_out:
        for mutate in (
            lambda a: a.__setitem__("name", ("overwritten",)),
            lambda a: a.__setitem__("injected", ("x" * 50,)),
            lambda a: a.__delitem__("type"),
        ):
            with pytest.raises(TypeError):
                mutate(attrs)
    with pytest.raises(TypeError):
        handed_out[0].clear()

    assert read(account) == pristine
    assert spend(account, service, read, account) == billed
    assert account.dynamodb.size_audit() == account.simpledb.size_audit() == []


#: Item name -> attributes with 0, 1 and several ``@s3:`` pointers (one
#: attribute multi-valued, one name non-ASCII).
SPILLED = {
    "none": {"type": ("file",), "naïve": ("é",)},
    "one": {"type": ("file",), "argv": ("@s3:k/1",)},
    "several": {
        "ïnput": ("@s3:k/2", "@s3:k/3", "plain"),
        "argv": ("@s3:k/1",),
        "zz": ("@s3:k/0",),
    },
}


def test_overflow_keys_are_worked_out_once_per_stored_state():
    account = AWSAccount(seed=3, consistency=ConsistencyConfig.strong(), read_cache=True)
    sdb, ddb, cache = account.simpledb, account.dynamodb, account.read_cache
    sdb.create_domain(DOMAIN)
    ddb.create_table(TABLE)
    for name, attrs in SPILLED.items():
        adds = [(attribute, value) for attribute, vals in attrs.items() for value in vals]
        sdb.put_attributes(DOMAIN, name, adds)
        ddb.update_item(TABLE, name, adds)

    def cache_hit(name):
        hit, attrs = cache.get_item(name)
        assert hit
        return attrs

    for name in SPILLED:
        cache.put_item(name, sdb.get_attributes(DOMAIN, name), cache.fence())
    scanned = dict(ddb.scan(TABLE).items)
    for name, attrs in SPILLED.items():
        expected = serializer.overflow_keys(dict(attrs))
        assert len(expected) == {"none": 0, "one": 1, "several": 4}[name]
        for state in (sdb.get_attributes(DOMAIN, name), cache_hit(name), scanned[name]):
            keys = serializer.overflow_keys(state)
            assert keys == serializer.overflow_keys(dict(state)) == expected
            assert serializer.overflow_keys(state) is keys is state.derived

    # What a state keeps is what every later read of it is given — the
    # keys are not worked out again, whichever path reads the item.
    for name in SPILLED:
        sdb.get_attributes(DOMAIN, name).derived = ("kept", "sdb", name)
        ddb.get_item(TABLE, name).derived = ("kept", "ddb", name)
    scanned = dict(ddb.scan(TABLE).items)
    for name in SPILLED:
        assert serializer.overflow_keys(sdb.get_attributes(DOMAIN, name)) == (
            "kept", "sdb", name
        )
        assert serializer.overflow_keys(cache_hit(name)) == ("kept", "sdb", name)
        assert serializer.overflow_keys(scanned[name]) == ("kept", "ddb", name)
