"""Unit tests: per-index provisioned capacity and GSI-streamed migration.

Two ROADMAP gaps closed here:

* index WCU used to charge the base table's admission window; an
  :class:`IndexSpec` may now carry its own ``wcu=``/``rcu=``, making
  index maintenance throttle independently — with ``None`` (the
  default) preserving the shared-window behaviour byte-for-byte;
* migration reads always Scanned the base table; a covering
  (ALL-projection) GSI can now stream full items instead, counted on
  ``MigrationReport.index_streamed_items``.
"""

from __future__ import annotations

import pytest

from repro.aws import billing
from repro.aws.backend import DynamoBackend, parse_index_specs
from repro.aws.dynamo import IndexSpec
from repro.errors import ProvisionedThroughputExceeded
from repro.sharding import ShardRouter, authoritative_snapshot
from repro.sim import Simulation


@pytest.fixture
def ddb(strong_account):
    return strong_account.dynamodb


def test_spec_parse_capacity_and_project_all():
    spec, = parse_index_specs("type+*@40:20")
    assert spec.project_all and spec.include == ()
    assert (spec.wcu, spec.rcu) == (40, 20)
    spec, = parse_index_specs("name@7")
    assert (spec.wcu, spec.rcu) == (7, None)
    assert spec.include == ("type",)  # default projection preserved
    with pytest.raises(ValueError):
        parse_index_specs("name@fast")
    # covers(): an ALL projection answers anything, others their set.
    assert parse_index_specs("type+*")[0].covers({"name", "input", "md5"})
    assert not parse_index_specs("name")[0].covers({"input"})


def test_default_index_charges_base_window(ddb):
    """wcu=None: maintenance units land on the base table's window —
    the historical shared-window behaviour, byte-for-byte."""
    ddb.create_table("t", read_capacity=1000, write_capacity=2)
    ddb.create_index("t", IndexSpec(name="gsi-a", key_attribute="a"))
    # 1 base write unit + 1 index write unit fill the 2-unit window...
    ddb.update_item("t", "item-1", [("a", "x")])
    # ...so the next write (again 1+1 units) must throttle on the BASE.
    with pytest.raises(ProvisionedThroughputExceeded) as excinfo:
        ddb.update_item("t", "item-2", [("a", "y")])
    assert "index" not in str(excinfo.value)


def test_own_wcu_throttles_index_independently(ddb):
    """With wcu= set, maintenance stops charging the base window and
    throttles against the index's own."""
    ddb.create_table("t", read_capacity=1000, write_capacity=2)
    ddb.create_index("t", IndexSpec(name="gsi-a", key_attribute="a", wcu=1))
    ddb.update_item("t", "item-1", [("a", "x")])  # 1 base + 1 index unit
    # The base window has 1 unit left; the index window has 0. A second
    # indexed write throttles on the *index*, naming it.
    with pytest.raises(ProvisionedThroughputExceeded) as excinfo:
        ddb.update_item("t", "item-2", [("a", "y")])
    assert "gsi-a" in str(excinfo.value)
    # A write that touches no indexed attribute sails through on the
    # base window the index no longer crowds.
    ddb.update_item("t", "item-3", [("b", "z")])


def test_throttled_request_consumes_no_window_anywhere(ddb):
    ddb.create_table("t", read_capacity=1000, write_capacity=1000)
    ddb.create_index("t", IndexSpec(name="gsi-a", key_attribute="a", wcu=1))
    ddb.update_item("t", "item-1", [("a", "x")])
    table = ddb._tables["t"]
    base_before = table.window_write_units
    with pytest.raises(ProvisionedThroughputExceeded):
        ddb.update_item("t", "item-2", [("a", "y")])
    # All-or-nothing admission: the rejected write charged neither the
    # base window nor the index window.
    assert table.window_write_units == base_before
    assert table.indexes["gsi-a"].window_write_units == 1.0
    ddb.clock.advance(1.5)  # a fresh window admits the retry
    ddb.update_item("t", "item-2", [("a", "y")])


def test_own_rcu_charges_index_window_for_queries(ddb):
    ddb.create_table("t", read_capacity=1000, write_capacity=1000)
    ddb.create_index("t", IndexSpec(name="gsi-a", key_attribute="a", rcu=1))
    ddb.update_item("t", "item-1", [("a", "x"), ("b", "big")])
    table = ddb._tables["t"]
    reads_before = table.window_read_units
    ddb.query_index("t", "gsi-a", ["x"])
    assert table.window_read_units == reads_before  # base untouched
    assert table.indexes["gsi-a"].window_read_units > 0


def test_scan_index_pages_and_deduplicates():
    sim = Simulation(
        architecture="s3+simpledb",
        seed=21,
        placement="ddb",
        ddb_indexes="type+*",
    )
    service = sim.account.dynamodb
    service.create_table("scan-idx")
    spec = IndexSpec(name="gsi-type", key_attribute="type", project_all=True)
    service.create_index("scan-idx", spec)
    for index in range(7):
        service.update_item(
            "scan-idx", f"item-{index:02d}", [("type", "file"), ("n", str(index))]
        )
    sim.account.quiesce()
    entries = []
    start = None
    while True:
        page = service.scan_index("scan-idx", "gsi-type", exclusive_start_key=start, limit=3)
        entries.extend(page.entries)
        start = page.last_evaluated_key
        if start is None:
            break
    assert [name for name, _ in entries] == [f"item-{i:02d}" for i in range(7)]
    # ALL projection: entries carry the full item, not a projection.
    assert entries[0][1]["n"] == ("0",)


def test_migration_streams_from_covering_index():
    sim = Simulation(
        architecture="s3+simpledb",
        seed=22,
        shards=2,
        placement="ddb",
        ddb_indexes="type+*,name,input",
    )
    from repro.workloads import CombinedWorkload
    import random

    events = list(CombinedWorkload().iter_events(random.Random("gsi-mig"), 0.3))
    sim.store_events(events, collect=False)
    before = sim.account.meter.snapshot()
    snapshot_before = authoritative_snapshot(sim.account, sim.store.router)
    target = ShardRouter(3, placement="ddb")
    report = sim.migrate(router=target)
    spent = sim.account.meter.snapshot() - before
    # Every scanned item came off the index: zero base-table Scans.
    assert report.index_streamed_items == report.items_scanned > 0
    assert spent.request_count(billing.DDB, "Scan") == 0
    assert spent.request_count(billing.DDB_GSI, "Scan") > 0
    assert authoritative_snapshot(sim.account, target) == snapshot_before
    ddb_backend = sim.account.provenance_backends()["ddb"]
    assert ddb_backend.migration_index_streams == 2  # one per source shard


def test_migration_falls_back_when_index_is_sparse(strong_account):
    """A sparse ALL-projection index (some item lacks the key
    attribute) cannot enumerate the table; the migration must detect
    the shortfall and Scan the base table instead."""
    backend = DynamoBackend(
        strong_account.dynamodb, index_specs=(
            IndexSpec(name="gsi-k", key_attribute="k", project_all=True),
        )
    )
    backend.provision("sparse")
    backend.put_provenance_item("sparse", "covered", [("k", "x"), ("v", "1")])
    backend.put_provenance_item("sparse", "bare", [("v", "2")])  # no "k"
    strong_account.quiesce()
    via_index, pages = backend.migration_pages("sparse")
    assert not via_index
    assert {name for name, _ in pages} == {"covered", "bare"}
    assert backend.migration_index_streams == 0


def test_migration_falls_back_without_project_all(strong_account):
    """The provenance defaults (key+type projections) are not covering
    — the migration read path must not regress to partial items."""
    backend = DynamoBackend(strong_account.dynamodb, index_specs="name,input")
    backend.provision("plain")
    backend.put_provenance_item("plain", "item", [("name", "x"), ("other", "y")])
    strong_account.quiesce()
    via_index, pages = backend.migration_pages("plain")
    assert not via_index
    assert dict(pages)["item"]["other"] == ("y",)
