"""Unit tests for the DynamoDB-style service and its backend adapter.

What must hold for heterogeneous placement to be sound:

* string-set merge semantics (idempotent replays, like SimpleDB);
* item-size-based capacity metering, strong vs eventual read pricing;
* provisioned-throughput throttling and the adapter's clock backoff;
* storage accounting that survives put/delete/delete_table round trips;
* the billing lines that make backend choice an auditable tradeoff.
"""

from __future__ import annotations

import pytest

from repro import errors
from repro.aws import billing
from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.backend import DynamoBackend
from repro.aws.sdb_query import parse_query
from repro.units import DDB_RCU_BYTES, DDB_WCU_BYTES
from tests.oracles import reference_rows


@pytest.fixture
def account():
    return AWSAccount(seed=3, consistency=ConsistencyConfig.strong())


@pytest.fixture
def ddb(account):
    account.dynamodb.create_table("t")
    return account.dynamodb


class TestUpdateItemSemantics:
    def test_values_merge_as_sets(self, ddb):
        ddb.update_item("t", "item", [("input", "a"), ("input", "b")])
        ddb.update_item("t", "item", [("input", "b"), ("type", "file")])
        assert ddb.get_item("t", "item", consistent=True) == {
            "input": ("a", "b"),
            "type": ("file",),
        }

    def test_replay_is_idempotent(self, ddb):
        adds = [("name", "out.dat"), ("type", "file")]
        ddb.update_item("t", "item", adds)
        before = ddb.authoritative_item("t", "item")
        ddb.update_item("t", "item", adds)
        assert ddb.authoritative_item("t", "item") == before

    def test_missing_table_raises(self, ddb):
        with pytest.raises(errors.NoSuchTable):
            ddb.update_item("absent", "item", [("a", "b")])

    def test_item_size_limit_enforced(self, ddb):
        big = "x" * (300 * 1024)
        ddb.update_item("t", "item", [("v1", big)])
        with pytest.raises(errors.ItemSizeLimitExceeded):
            ddb.update_item("t", "item", [("v2", big)])

    def test_delete_item_idempotent(self, ddb):
        ddb.update_item("t", "item", [("a", "b")])
        ddb.delete_item("t", "item")
        ddb.delete_item("t", "item")  # absent: succeeds silently
        assert ddb.authoritative_item("t", "item") is None


class TestCapacityMetering:
    def test_write_units_scale_with_item_size(self, account, ddb):
        ddb.update_item("t", "small", [("a", "b")])
        assert account.meter.snapshot().write_units(billing.DDB) == 1.0
        ddb.update_item("t", "large", [("v", "x" * (3 * DDB_WCU_BYTES))])
        # ~3 KB item rounds up to 4 write units (key + attr bytes).
        assert account.meter.snapshot().write_units(billing.DDB) == 5.0

    def test_strong_read_costs_double_eventual(self, account, ddb):
        ddb.update_item("t", "item", [("v", "x" * (6 * DDB_WCU_BYTES))])
        before = account.meter.snapshot()
        ddb.get_item("t", "item", consistent=False)
        eventual = account.meter.snapshot().read_units(billing.DDB) - before.read_units(
            billing.DDB
        )
        before = account.meter.snapshot()
        ddb.get_item("t", "item", consistent=True)
        strong = account.meter.snapshot().read_units(billing.DDB) - before.read_units(
            billing.DDB
        )
        assert strong == 2 * eventual
        # A ~6 KB item is 2 strong read units (4 KB steps).
        assert strong == 2.0

    def test_scan_charges_for_every_item_scanned(self, account, ddb):
        for index in range(8):
            ddb.update_item("t", f"i{index}", [("v", "x" * DDB_RCU_BYTES)])
        before = account.meter.snapshot()
        items, pages, start = [], 0, None
        while True:
            page = ddb.scan("t", exclusive_start_key=start, consistent=True)
            items.extend(page.items)
            pages += 1
            start = page.last_evaluated_key
            if start is None:
                break
        assert len(items) == 8
        # 8 items x ~4 KB each overflow the 16 KB page byte budget at
        # four items per page, so the walk pays two round trips (the
        # scan-pagination economics the GSI benchmark leans on).
        assert pages == 2
        spent = account.meter.snapshot() - before
        # ~32 KB scanned in total, aggregated per page then rounded.
        assert spent.read_units(billing.DDB) >= 8.0
        assert spent.request_count(billing.DDB, "Scan") == pages

    def test_scan_resumes_past_a_start_key_that_is_gone_or_never_was(self, ddb):
        for name in ("a", "c", "e"):
            ddb.update_item("t", name, [("v", name)])
        assert ddb.scan("t", exclusive_start_key="b").item_names == ("c", "e")
        first = ddb.scan("t", limit=2)
        assert (first.item_names, first.last_evaluated_key) == (("a", "c"), "c")
        ddb.delete_item("t", "c")  # the token now names a deleted item
        rest = ddb.scan("t", exclusive_start_key=first.last_evaluated_key, limit=2)
        assert (rest.item_names, rest.last_evaluated_key) == (("e",), None)
        assert ddb.scan("t", exclusive_start_key="e").items == ()

    def test_scan_transfers_out_exactly_what_it_scanned(self, account, ddb):
        ddb.update_item("t", "k1", [("v", "x" * 10), ("w", "yz")])
        ddb.update_item("t", "k2", [("v", "x")])
        before = account.meter.snapshot()
        ddb.scan("t", limit=1)
        ddb.scan("t")
        spent = account.meter.snapshot() - before
        one = len("k1") + len("v") + 10 + len("w") + 2
        assert spent.transfer_out(billing.DDB) == one + (one + len("k2") + 2)

    def test_storage_round_trip_returns_to_zero(self, account, ddb):
        ddb.update_item("t", "a", [("v", "payload")])
        ddb.update_item("t", "b", [("v", "payload")])
        assert account.meter.stored_bytes(billing.DDB) > 0
        ddb.delete_item("t", "a")
        ddb.delete_table("t")
        assert account.meter.stored_bytes(billing.DDB) == 0

    def test_billing_lines_present_and_priced(self, account, ddb):
        ddb.update_item("t", "item", [("v", "x" * 2048)])
        ddb.get_item("t", "item", consistent=True)
        cost = account.prices.cost(account.meter.snapshot())
        by_service = cost.by_service()
        assert by_service["dynamodb"] > 0
        labels = {label for label, _ in cost.lines}
        assert {"dynamodb.read_units", "dynamodb.write_units",
                "dynamodb.storage"} <= labels


class TestEventualConsistency:
    def test_eventual_read_can_miss_then_converges(self):
        account = AWSAccount(
            seed=11, consistency=ConsistencyConfig.eventual(window=5.0)
        )
        ddb = account.dynamodb
        ddb.create_table("t")
        ddb.update_item("t", "item", [("a", "b")])
        misses = 0
        for _ in range(30):
            if not ddb.get_item("t", "item", consistent=False):
                misses += 1
        assert misses > 0, "eventual reads never went stale"
        # Strong reads never miss, even before convergence.
        assert ddb.get_item("t", "item", consistent=True) == {"a": ("b",)}
        account.quiesce()
        assert ddb.get_item("t", "item", consistent=False) == {"a": ("b",)}


class TestProvisionedThroughput:
    def test_throttles_when_window_exhausted(self, account):
        account.dynamodb.create_table("tiny", read_capacity=5, write_capacity=2)
        account.dynamodb.update_item("tiny", "a", [("v", "x")])
        account.dynamodb.update_item("tiny", "b", [("v", "x")])
        with pytest.raises(errors.ProvisionedThroughputExceeded):
            account.dynamodb.update_item("tiny", "c", [("v", "x")])

    def test_fresh_second_opens_fresh_window(self, account):
        account.dynamodb.create_table("tiny", read_capacity=5, write_capacity=1)
        account.dynamodb.update_item("tiny", "a", [("v", "x")])
        account.clock.advance(1.0)
        account.dynamodb.update_item("tiny", "b", [("v", "x")])  # no throttle

    def test_throttled_attempts_are_not_metered(self, account):
        account.dynamodb.create_table("tiny", read_capacity=5, write_capacity=1)
        account.dynamodb.update_item("tiny", "a", [("v", "x")])
        before = account.meter.snapshot()
        with pytest.raises(errors.ProvisionedThroughputExceeded):
            account.dynamodb.update_item("tiny", "b", [("v", "x")])
        spent = account.meter.snapshot() - before
        assert spent.request_count(billing.DDB) == 0
        assert spent.write_units(billing.DDB) == 0

    def test_retried_503_does_not_double_charge_the_window(self, account):
        """Fault injection fires before admission control mutates the
        per-second window, so the adapter's 503 retry of one logical
        write charges provisioned capacity exactly once."""
        account.dynamodb.create_table("tiny", read_capacity=5, write_capacity=2)
        adapter = DynamoBackend(account.dynamodb)
        account.request_faults.fail_next(billing.DDB, "UpdateItem", times=1)
        adapter.put_provenance_item("tiny", "a", [("v", "x")])
        # Window has 1 of 2 units consumed — a second write must fit
        # without throttling (a double charge would have used both).
        account.dynamodb.update_item("tiny", "b", [("v", "x")])
        assert adapter.throttled_requests == 0
        assert account.meter.snapshot().write_units(billing.DDB) == 2.0

    def test_backend_adapter_backs_off_and_succeeds(self, account):
        account.dynamodb.create_table("tiny", read_capacity=50, write_capacity=1)
        adapter = DynamoBackend(account.dynamodb)
        for index in range(6):
            adapter.put_provenance_item("tiny", f"item-{index}", [("v", "x")])
        assert adapter.throttled_requests > 0
        assert account.clock.now > 0  # backoff advanced the simulated clock
        assert account.dynamodb.item_count("tiny") == 6


class TestBatchBackoffBudget:
    """``put_provenance_items`` rides out throttles through the same
    backoff as single requests: each 25-entry chunk gets its own budget
    of ``max_backoffs`` backoffs, each counted once."""

    @staticmethod
    def adapter(account, write_capacity, max_backoffs):
        account.dynamodb.create_table("tiny", read_capacity=50, write_capacity=write_capacity)
        adapter = DynamoBackend(account.dynamodb)
        adapter.max_backoffs = max_backoffs
        return adapter

    def test_a_chunk_never_admitted_surfaces_the_service_throttle(self, account):
        adapter = self.adapter(account, write_capacity=1, max_backoffs=3)
        with pytest.raises(errors.ProvisionedThroughputExceeded, match="every entry"):
            adapter.put_provenance_items("tiny", [("wide", [("v", "x" * 1500)])])
        assert adapter.throttled_requests == 3
        assert account.clock.now == 3 * adapter.backoff_seconds

    def test_a_chunk_left_unprocessed_on_its_last_try_says_so(self, account):
        adapter = self.adapter(account, write_capacity=2, max_backoffs=0)
        items = [("a", [("v", "x")]), ("wide", [("v", "x" * 2500)])]
        with pytest.raises(
            errors.ProvisionedThroughputExceeded,
            match="BatchWriteItem left 1 unprocessed entries after 0 backoffs",
        ):
            adapter.put_provenance_items("tiny", items)
        assert adapter.throttled_requests == 0
        assert account.dynamodb.item_count("tiny") == 1

    def test_every_chunk_has_its_own_budget(self, account):
        """Each chunk needs four backoffs (a quarter second each) to
        reach the next window: eight in all, four allowed per chunk."""
        adapter = self.adapter(account, write_capacity=25, max_backoffs=4)
        account.dynamodb.update_item("tiny", "first", [("v", "x")])
        items = [(f"item-{i:02d}", [("v", "x")]) for i in range(50)]
        adapter.put_provenance_items("tiny", items)
        assert adapter.throttled_requests == 8
        assert account.dynamodb.item_count("tiny") == 51


class TestBackendAdapterReads:
    def test_query_pages_filters_like_simpledb(self, account):
        """The same bracket predicate yields the same matches on either
        backend — DynamoDB evaluates it client-side over a Scan."""
        adapter = DynamoBackend(account.dynamodb)
        adapter.provision("t")
        adapter.put_provenance_item(
            "t", "proc/blast.1_v0001", [("type", "process"), ("name", "blast")]
        )
        adapter.put_provenance_item(
            "t", "out/a.dat_v0001", [("type", "file"), ("name", "a.dat")]
        )
        expression = "['type' = 'process'] intersection ['name' = 'blast']"
        matches = list(adapter.query_pages("t", expression, ["type"]))
        assert matches == [("proc/blast.1_v0001", {"type": ("process",)})]

    @pytest.mark.parametrize(
        "expression",
        ["['type' = 'file']", "not ['k' = '0']", "['k' >= '2' and 'k' <= '5']"],
    )
    def test_scan_path_streams(self, account, expression):
        """Scan hands rows out in name order, the order of every query
        result, so the scan path filters each page as it arrives: the
        first row costs one Scan page, not the table. The rows are the
        reference's."""
        adapter = DynamoBackend(account.dynamodb)
        adapter.provision("t")
        for i in range(600):
            kind = "process" if i % 10 == 0 else "file"
            adapter.put_provenance_item("t", f"i{i:04d}", [("type", kind), ("k", str(i % 7))])
        items = [
            (name, adapter.authoritative_item("t", name))
            for name in adapter.authoritative_item_names("t")
        ]
        before = account.meter.snapshot()
        rows = adapter.query_pages("t", expression, None)
        first = next(rows)
        first_scans = (account.meter.snapshot() - before).request_count(billing.DDB, "Scan")
        served = [first, *rows]
        scans = (account.meter.snapshot() - before).request_count(billing.DDB, "Scan")
        assert served == reference_rows(items, parse_query(expression))
        assert scans > 1
        assert first_scans == 1

    def test_enumerate_items_uses_scan_not_per_item_gets(self, account):
        adapter = DynamoBackend(account.dynamodb)
        adapter.provision("t")
        for index in range(5):
            adapter.put_provenance_item("t", f"i{index}", [("type", "file")])
        before = account.meter.snapshot()
        items = list(adapter.enumerate_items("t"))
        spent = account.meter.snapshot() - before
        assert len(items) == 5
        assert spent.request_count(billing.DDB, "Scan") == 1
        assert spent.request_count(billing.DDB, "GetItem") == 0
