"""What a read bills, pinned before stored values carried their size.

A stored value (SimpleDB item state, DynamoDB item, GSI entry
projection) carries its attribute byte size from the moment its write
commits (``repro.aws.item.ItemState``); every read serving a whole
stored value adds that integer instead of re-encoding the attributes.
This file holds the two checks that must read the same on either side
of that change (the ``test_one_write_path.py`` pattern — it passes
unchanged on the parent commit, where the literals were recorded):

* ``RECORDED`` — requests, bytes out and read units of one seeded page of
  every read shape (whole values and projections, hits and misses,
  non-ASCII names, a backfilled index and two write-maintained ones), and
  the ``Usage`` of one 4→8 online migration with the stored levels it
  leaves;
* staleness — inside a replication window a read served from a lagging
  replica bills the bytes of the *old* state it returns, not the
  authority's (literal byte counts, small enough to add up by hand).
"""

from __future__ import annotations

import pytest

from repro.aws import billing
from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.dynamo import IndexSpec
from repro.sim import Simulation
from repro.workloads import CombinedWorkload

TABLE = DOMAIN = "t"
#: Every replica install is delayed (nothing lands immediately), so a
#: read inside the window is served stale whichever replica is drawn.
LAGGING = ConsistencyConfig.eventual(window=2.0, immediate_fraction=0.0)


def _adds(i: int) -> list[tuple[str, str]]:
    """Item ``i``'s attributes: multi-valued, non-ASCII, a wide one."""
    adds = [
        ("name", f"file-{i % 5}"),
        ("nonce", f"{i % 9:04d}"),
        ("type", "process" if i % 3 else "file"),
        ("naïve", "é" * (i % 4 + 1)),
    ]
    adds += [("input", f"in-{j}/r{i}") for j in range(i % 6)]
    if i % 11 == 0:
        adds.append(("env", "x" * 900))
    return adds


def ddb_account() -> AWSAccount:
    account = AWSAccount(seed=11, consistency=ConsistencyConfig.strong())
    ddb = account.dynamodb
    ddb.create_table(TABLE)
    for i in range(24):
        ddb.update_item(TABLE, f"ítem-{i:03d}", _adds(i))
    # One index backfilled from the populated table, two kept by writes.
    ddb.create_index(TABLE, IndexSpec("by-name", "name", include=("type",)))
    ddb.create_index(
        TABLE, IndexSpec("by-name-nonce", "name", range_attribute="nonce")
    )
    ddb.create_index(TABLE, IndexSpec("all-by-type", "type", project_all=True))
    for i in range(24, 40):
        ddb.update_item(TABLE, f"ítem-{i:03d}", _adds(i))
    return account


def sdb_account() -> AWSAccount:
    account = AWSAccount(seed=11, consistency=ConsistencyConfig.strong())
    account.simpledb.create_domain(DOMAIN)
    for i in range(40):
        account.simpledb.put_attributes(DOMAIN, f"ítem-{i:03d}", _adds(i))
    return account


def spend(account: AWSAccount, service: str, call, *args, **kwargs):
    """``(requests, bytes out, read units)`` one call metered on ``service``."""
    with account.meter.scoped() as scope:
        call(*args, **kwargs)
    usage = account.meter.spent(scope)
    return (
        usage.request_count(service),
        usage.transfer_out(service),
        usage.read_units(service),
    )


def ddb_reads() -> dict[str, tuple]:
    account = ddb_account()
    ddb = account.dynamodb
    return {
        "scan": spend(account, billing.DDB, ddb.scan, TABLE, limit=17),
        "scan strong": spend(
            account, billing.DDB, ddb.scan, TABLE, "ítem-010", consistent=True
        ),
        "query_index": spend(
            account, billing.DDB_GSI, ddb.query_index, TABLE, "by-name",
            ["file-1", "file-3"],
        ),
        "query_index range": spend(
            account, billing.DDB_GSI_RANGE, ddb.query_index, TABLE,
            "by-name-nonce", ["file-2"], range_condition=("between", "0002", "0007"),
        ),
        "scan_index project_all": spend(
            account, billing.DDB_GSI, ddb.scan_index, TABLE, "all-by-type", limit=21
        ),
        "get_item hit": spend(account, billing.DDB, ddb.get_item, TABLE, "ítem-011"),
        "get_item strong hit": spend(
            account, billing.DDB, ddb.get_item, TABLE, "ítem-022", consistent=True
        ),
        "get_item miss": spend(account, billing.DDB, ddb.get_item, TABLE, "absent"),
    }


def sdb_reads() -> dict[str, tuple]:
    account = sdb_account()
    sdb = account.simpledb
    return {
        "get_attributes": spend(
            account, billing.SDB, sdb.get_attributes, DOMAIN, "ítem-011"
        ),
        "get_attributes projected": spend(
            account, billing.SDB, sdb.get_attributes, DOMAIN, "ítem-011",
            ["naïve", "input", "absent"],
        ),
        "get_attributes miss": spend(
            account, billing.SDB, sdb.get_attributes, DOMAIN, "absent"
        ),
        "query_with_attributes": spend(
            account, billing.SDB, sdb.query_with_attributes, DOMAIN,
            "['type' = 'file']",
        ),
        "query_with_attributes projected": spend(
            account, billing.SDB, sdb.query_with_attributes, DOMAIN,
            "['type' = 'process']", ["name", "naïve"], max_items=9,
        ),
        "select *": spend(
            account, billing.SDB, sdb.select,
            f"select * from {DOMAIN} where name = 'file-2'",
        ),
        "select itemName()": spend(
            account, billing.SDB, sdb.select,
            f"select itemName() from {DOMAIN} where type = 'file'",
        ),
        "select columns": spend(
            account, billing.SDB, sdb.select,
            f"select input, env from {DOMAIN} where type = 'process' limit 12",
        ),
    }


def migration_usage() -> dict:
    """The overhead ``Usage`` of one 4→8 online migration of a seeded
    mixed-placement store (DynamoDB shards scanned and re-put whole),
    and the stored levels it leaves behind."""
    sim = Simulation(
        "s3+simpledb", seed=5, consistency=ConsistencyConfig.strong(),
        shards=4, placement="mixed", concurrency=1, ddb_indexes="name,input",
        write_batch=1, read_cache="off", planner="off",
    )
    sim.store_events(CombinedWorkload().generate(seed=7, scale=0.2).events, collect=False)
    sim.settle()
    usage = sim.migrate(shards=8, online=True).overhead_usage()
    return {
        "requests": usage.requests,
        "bytes_in": usage.bytes_in,
        "bytes_out": usage.bytes_out,
        "stored_bytes": sim.usage().stored_bytes,
        "read_capacity_units": usage.read_capacity_units,
        "write_capacity_units": usage.write_capacity_units,
    }


RECORDED = {
    "ddb_reads": {
        "scan": (1, 3134, 0.5),
        "scan strong": (1, 5055, 2.0),
        "query_index": (1, 462, 0.5),
        "query_index range": (1, 140, 0.5),
        "scan_index project_all": (1, 3310, 1.0),
        "get_item hit": (1, 1012, 0.5),
        "get_item strong hit": (1, 997, 1.0),
        "get_item miss": (1, 0, 0.5),
    },
    "sdb_reads": {
        "get_attributes": (1, 1012, 0),
        "get_attributes projected": (1, 79, 0),
        "get_attributes miss": (1, 0, 0),
        "query_with_attributes": (1, 2731, 0),
        "query_with_attributes projected": (1, 269, 0),
        "select *": (1, 1528, 0),
        "select itemName()": (1, 126, 0),
        "select columns": (1, 1464, 0),
    },
    "migration_usage": {
        "requests": (
            (("dynamodb", "CreateIndex"), 8),
            (("dynamodb", "CreateTable"), 4),
            (("dynamodb", "DeleteItem"), 134),
            (("dynamodb", "GetItem"), 8),
            (("dynamodb", "Scan"), 6),
            (("dynamodb", "UpdateItem"), 145),
            (("simpledb", "CreateDomain"), 4),
            (("simpledb", "DeleteAttributes"), 122),
            (("simpledb", "GetAttributes"), 8),
            (("simpledb", "PutAttributes"), 111),
            (("simpledb", "QueryWithAttributes"), 2),
            (("sqs", "DeleteQueue"), 1),
        ),
        "bytes_in": (("dynamodb", 37084), ("simpledb", 35135)),
        "bytes_out": (("dynamodb", 73171), ("simpledb", 74391)),
        "stored_bytes": (
            ("dynamodb", 76879),
            ("dynamodb-gsi", 285101),
            ("s3", 8214247),
            ("simpledb", 65070),
            ("sqs", 0),
        ),
        "read_capacity_units": (("dynamodb", 15.5),),
        "write_capacity_units": (("dynamodb", 295.0), ("dynamodb-gsi", 1010.0)),
    },
}


@pytest.mark.parametrize("measure", [ddb_reads, sdb_reads, migration_usage])
def test_recorded_spend(measure):
    assert measure() == RECORDED[measure.__name__]


# -- staleness: a lagging replica's bytes, not the authority's ----------------

def test_dynamo_stale_reads_bill_the_old_state():
    account = AWSAccount(seed=3, consistency=LAGGING)
    ddb = account.dynamodb
    ddb.create_table(TABLE)
    ddb.create_index(TABLE, IndexSpec("all-by-a", "a", project_all=True))
    ddb.update_item(TABLE, "k", [("a", "xx")])  # 1 + 2 attribute bytes
    account.quiesce()
    ddb.update_item(TABLE, "k", [("b", "yyyy")])  # + 1 + 4, still in flight

    old, new = {"a": ("xx",)}, {"a": ("xx",), "b": ("yyyy",)}
    assert ddb.get_item(TABLE, "k") == old
    assert spend(account, billing.DDB, ddb.get_item, TABLE, "k") == (1, 3, 0.5)
    assert ddb.scan(TABLE).items == (("k", old),)
    assert spend(account, billing.DDB, ddb.scan, TABLE) == (1, 1 + 3, 0.5)
    assert ddb.query_index(TABLE, "all-by-a", ["xx"]).entries == (("k", old),)
    assert spend(
        account, billing.DDB_GSI, ddb.query_index, TABLE, "all-by-a", ["xx"]
    ) == (1, 1 + 3, 0.5)
    # The strongly consistent reads see (and bill) the authority meanwhile.
    assert ddb.get_item(TABLE, "k", consistent=True) == new
    assert spend(
        account, billing.DDB, ddb.get_item, TABLE, "k", consistent=True
    ) == (1, 8, 1.0)

    account.quiesce()
    assert spend(account, billing.DDB, ddb.get_item, TABLE, "k") == (1, 8, 0.5)
    assert spend(account, billing.DDB, ddb.scan, TABLE) == (1, 1 + 8, 0.5)
    assert spend(
        account, billing.DDB_GSI, ddb.scan_index, TABLE, "all-by-a"
    ) == (1, 1 + 8, 0.5)


def test_simpledb_stale_reads_bill_the_old_state():
    account = AWSAccount(seed=3, consistency=LAGGING)
    sdb = account.simpledb
    sdb.create_domain(DOMAIN)
    sdb.put_attributes(DOMAIN, "k", [("a", "xx")])
    account.quiesce()
    sdb.put_attributes(DOMAIN, "k", [("b", "yyyy")])

    old = {"a": ("xx",)}
    assert sdb.get_attributes(DOMAIN, "k") == old
    assert spend(account, billing.SDB, sdb.get_attributes, DOMAIN, "k") == (1, 3, 0)
    assert sdb.select(f"select * from {DOMAIN}").items == (("k", old),)
    assert spend(
        account, billing.SDB, sdb.select, f"select * from {DOMAIN}"
    ) == (1, 1 + 3, 0)
    assert spend(
        account, billing.SDB, sdb.query_with_attributes, DOMAIN
    ) == (1, 1 + 3, 0)
    assert sdb.authoritative_item(DOMAIN, "k") == {"a": ("xx",), "b": ("yyyy",)}

    account.quiesce()
    assert spend(account, billing.SDB, sdb.get_attributes, DOMAIN, "k") == (1, 8, 0)
    assert spend(
        account, billing.SDB, sdb.query_with_attributes, DOMAIN
    ) == (1, 1 + 8, 0)
