"""Unit tests for the batch write APIs (group-commit PR).

Covers the three service-level batch calls — SimpleDB
``BatchPutAttributes``, SQS ``SendMessageBatch``/``DeleteMessageBatch``,
and the DynamoDB-style ``BatchWriteItem`` — plus the backend adapters'
``put_provenance_items`` built on them. The recurring themes:

* entry caps and empty-batch rejection, per the real 2009-era APIs;
* batch result == the result of the equivalent single-call sequence;
* one metered request per batch call (the whole point of batching);
* DynamoDB's honest partial success: throttled entries come back as
  ``UnprocessedItems`` and only admitted work is metered.
"""

import pytest

from repro import errors
from repro.aws import billing
from repro.aws.backend import DynamoBackend, SimpleDBBackend
from repro.units import KB


# ---------------------------------------------------------------------------
# SimpleDB BatchPutAttributes
# ---------------------------------------------------------------------------


class TestBatchPutAttributes:
    def test_matches_sequential_puts(self, strong_account):
        sdb = strong_account.simpledb
        sdb.create_domain("a")
        sdb.create_domain("b")
        items = [
            (f"item-{i}", [("type", "file"), ("seq", str(i))]) for i in range(7)
        ]
        for name, attrs in items:
            sdb.put_attributes("a", name, list(attrs))
        sdb.batch_put_attributes("b", items)
        for name, _ in items:
            assert sdb.authoritative_item("b", name) == sdb.authoritative_item(
                "a", name
            )

    def test_one_request_per_call(self, strong_account):
        sdb = strong_account.simpledb
        sdb.create_domain("d")
        before = strong_account.meter.snapshot()
        sdb.batch_put_attributes(
            "d", [(f"i{i}", [("k", "v")]) for i in range(25)]
        )
        delta = strong_account.meter.snapshot() - before
        assert delta.request_count(billing.SDB) == 1
        assert delta.request_count(billing.SDB, "BatchPutAttributes") == 1

    def test_box_usage_amortises(self, strong_account):
        """25 items in one batch must cost far less machine-time than 25
        PutAttributes calls (Amazon's published formula: flat base plus a
        negligible cubic term)."""
        sdb = strong_account.simpledb
        sdb.create_domain("one")
        sdb.create_domain("many")
        items = [(f"i{i}", [("k", "v")]) for i in range(25)]
        before = strong_account.meter.snapshot()
        sdb.batch_put_attributes("one", items)
        batched = strong_account.meter.snapshot() - before
        before = strong_account.meter.snapshot()
        for name, attrs in items:
            sdb.put_attributes("many", name, list(attrs))
        single = strong_account.meter.snapshot() - before
        assert batched.box_usage_hours < single.box_usage_hours / 5

    def test_entry_cap(self, strong_account):
        sdb = strong_account.simpledb
        sdb.create_domain("d")
        with pytest.raises(errors.NumberSubmittedItemsExceeded):
            sdb.batch_put_attributes(
                "d", [(f"i{i}", [("k", "v")]) for i in range(26)]
            )

    def test_empty_batch_rejected(self, strong_account):
        sdb = strong_account.simpledb
        sdb.create_domain("d")
        with pytest.raises(errors.EmptyBatchRequest):
            sdb.batch_put_attributes("d", [])

    def test_all_or_nothing_validation(self, strong_account):
        """A bad entry anywhere rejects the whole batch before any state
        or meter mutates — replaying a failed batch cannot half-apply."""
        sdb = strong_account.simpledb
        sdb.create_domain("d")
        before = strong_account.meter.snapshot()
        with pytest.raises(errors.AttributeValueTooLong):
            sdb.batch_put_attributes(
                "d",
                [
                    ("good", [("k", "v")]),
                    ("bad", [("k", "x" * (KB + 1))]),
                ],
            )
        assert sdb.authoritative_item("d", "good") is None
        delta = strong_account.meter.snapshot() - before
        # The request itself was made (and billed); no data transferred.
        assert delta.transfer_in(billing.SDB) == 0

    def test_repeated_item_entries_merge_in_order(self, strong_account):
        """Two entries for one item apply sequentially, like two calls —
        how the adapter splits >100-attribute items across entries."""
        sdb = strong_account.simpledb
        sdb.create_domain("d")
        sdb.batch_put_attributes(
            "d",
            [
                ("i", [("k", "first")]),
                ("i", [("k", "second")]),
            ],
        )
        assert sdb.authoritative_item("d", "i") == {"k": ("first", "second")}


# ---------------------------------------------------------------------------
# SQS SendMessageBatch / DeleteMessageBatch
# ---------------------------------------------------------------------------


@pytest.fixture
def queue(strong_account):
    url = strong_account.sqs.create_queue("q", visibility_timeout=30.0)
    return strong_account, url


class TestSendMessageBatch:
    def test_roundtrip_preserves_order(self, queue):
        account, url = queue
        bodies = [f"m{i}" for i in range(10)]
        ids = account.sqs.send_message_batch(url, bodies)
        assert len(ids) == 10
        received = account.sqs.receive_message(url, max_messages=10)
        assert sorted(m.body for m in received) == sorted(bodies)

    def test_one_request_per_call(self, queue):
        account, url = queue
        before = account.meter.snapshot()
        account.sqs.send_message_batch(url, ["a", "b", "c"])
        delta = account.meter.snapshot() - before
        assert delta.request_count(billing.SQS) == 1
        assert delta.request_count(billing.SQS, "SendMessageBatch") == 1

    def test_entry_cap(self, queue):
        account, url = queue
        with pytest.raises(errors.TooManyEntriesInBatchRequest):
            account.sqs.send_message_batch(url, [f"m{i}" for i in range(11)])

    def test_empty_batch_rejected(self, queue):
        account, url = queue
        with pytest.raises(errors.EmptyBatchRequest):
            account.sqs.send_message_batch(url, [])

    def test_all_or_nothing_validation(self, queue):
        account, url = queue
        with pytest.raises(errors.MessageTooLong):
            account.sqs.send_message_batch(url, ["ok", "x" * (8 * KB + 1)])
        assert account.sqs.exact_message_count(url) == 0


class TestDeleteMessageBatch:
    def test_deletes_all(self, queue):
        account, url = queue
        account.sqs.send_message_batch(url, [f"m{i}" for i in range(6)])
        received = account.sqs.receive_message(url, max_messages=10)
        failed = account.sqs.delete_message_batch(
            url, [m.receipt_handle for m in received]
        )
        assert failed == []
        account.clock.advance(60.0)
        assert account.sqs.exact_message_count(url) == 0

    def test_one_request_per_call(self, queue):
        account, url = queue
        account.sqs.send_message_batch(url, ["a", "b"])
        received = account.sqs.receive_message(url, max_messages=10)
        before = account.meter.snapshot()
        account.sqs.delete_message_batch(
            url, [m.receipt_handle for m in received]
        )
        delta = account.meter.snapshot() - before
        assert delta.request_count(billing.SQS) == 1

    def test_partial_success_reports_bad_handles(self, queue):
        """Per-entry failure, not all-or-nothing: the real API returns
        BatchResultErrorEntry per failed id, and the daemon treats a
        superseded handle exactly like the single call's
        ReceiptHandleInvalid — the rest of the batch still deletes."""
        account, url = queue
        account.sqs.send_message_batch(url, ["a", "b"])
        received = account.sqs.receive_message(url, max_messages=10)
        handles = [m.receipt_handle for m in received]
        failed = account.sqs.delete_message_batch(
            url, ["garbage-handle"] + handles
        )
        assert failed == ["garbage-handle"]
        account.clock.advance(60.0)
        assert account.sqs.exact_message_count(url) == 0

    def test_entry_cap(self, queue):
        account, url = queue
        with pytest.raises(errors.TooManyEntriesInBatchRequest):
            account.sqs.delete_message_batch(url, [f"h{i}#1" for i in range(11)])


# ---------------------------------------------------------------------------
# DynamoDB-style BatchWriteItem
# ---------------------------------------------------------------------------


class TestBatchWriteItem:
    def test_matches_sequential_updates(self, strong_account):
        ddb = strong_account.dynamodb
        ddb.create_table("a")
        ddb.create_table("b")
        puts = [(f"k{i}", [("type", "file"), ("seq", str(i))]) for i in range(9)]
        for key, adds in puts:
            ddb.update_item("a", key, list(adds))
        unprocessed = ddb.batch_write_item("b", puts)
        assert unprocessed == []
        for key, _ in puts:
            assert ddb.authoritative_item("b", key) == ddb.authoritative_item(
                "a", key
            )

    def test_one_request_same_write_units(self, strong_account):
        """The batch saves round trips, never write units: capacity cost
        equals the equivalent UpdateItem sequence, request count is 1."""
        ddb = strong_account.dynamodb
        ddb.create_table("one")
        ddb.create_table("many")
        puts = [(f"k{i}", [("v", "x" * 600)]) for i in range(10)]
        before = strong_account.meter.snapshot()
        assert ddb.batch_write_item("one", puts) == []
        batched = strong_account.meter.snapshot() - before
        before = strong_account.meter.snapshot()
        for key, adds in puts:
            ddb.update_item("many", key, list(adds))
        single = strong_account.meter.snapshot() - before
        assert batched.request_count(billing.DDB) == 1
        assert single.request_count(billing.DDB) == 10
        assert batched.write_units(billing.DDB) == pytest.approx(
            single.write_units(billing.DDB)
        )

    def test_per_request_price_line_amortises(self, strong_account):
        """The dynamodb.requests price line is what batching shrinks."""
        prices = strong_account.prices
        ddb = strong_account.dynamodb
        ddb.create_table("one")
        ddb.create_table("many")
        puts = [(f"k{i}", [("v", "x")]) for i in range(25)]
        before = strong_account.meter.snapshot()
        ddb.batch_write_item("one", puts)
        batched = strong_account.meter.snapshot() - before
        before = strong_account.meter.snapshot()
        for key, adds in puts:
            ddb.update_item("many", key, list(adds))
        single = strong_account.meter.snapshot() - before

        def request_usd(usage):
            return dict(prices.cost(usage).lines)["dynamodb.requests"]

        assert request_usd(batched) == pytest.approx(request_usd(single) / 25)

    def test_entry_cap(self, strong_account):
        ddb = strong_account.dynamodb
        ddb.create_table("t")
        with pytest.raises(errors.TooManyEntriesInBatchRequest):
            ddb.batch_write_item(
                "t", [(f"k{i}", [("a", "b")]) for i in range(26)]
            )

    def test_empty_batch_rejected(self, strong_account):
        ddb = strong_account.dynamodb
        ddb.create_table("t")
        with pytest.raises(errors.EmptyBatchRequest):
            ddb.batch_write_item("t", [])

    def test_unprocessed_items_partial_success(self, strong_account):
        """A tiny write window admits some entries and returns the rest
        as UnprocessedItems; only the admitted work is metered."""
        ddb = strong_account.dynamodb
        ddb.create_table("t", write_capacity=2)
        puts = [(f"k{i}", [("v", "x" * 600)]) for i in range(10)]  # 1 WCU each
        before = strong_account.meter.snapshot()
        unprocessed = ddb.batch_write_item("t", puts)
        delta = strong_account.meter.snapshot() - before
        assert 0 < len(unprocessed) < 10
        admitted = 10 - len(unprocessed)
        assert {k for k, _ in unprocessed} <= {k for k, _ in puts}
        assert delta.write_units(billing.DDB) == pytest.approx(admitted)
        for key, _ in unprocessed:
            assert ddb.authoritative_item("t", key) is None

    def test_repeated_key_merges_only_what_was_admitted(self, strong_account):
        """Entries repeating a key merge in call order — but an entry
        left unprocessed must not ride along with a later admitted one."""
        ddb = strong_account.dynamodb
        ddb.create_table("t", write_capacity=2)
        assert ddb.batch_write_item("t", [("k", [("a", "1")]), ("k", [("a", "2")])]) == []
        assert ddb.authoritative_item("t", "k") == {"a": ("1", "2")}
        strong_account.clock.advance(1.0)  # a fresh admission window
        big = ("j", [("v", "x" * 3000)])  # 3 WCU: more than the window holds
        assert ddb.batch_write_item("t", [big, ("j", [("w", "y")])]) == [big]
        assert ddb.authoritative_item("t", "j") == {"w": ("y",)}

    def test_every_entry_throttled_raises_unmetered(self, strong_account):
        ddb = strong_account.dynamodb
        ddb.create_table("t", write_capacity=2)
        # Exhaust the window first, then batch: nothing can be admitted.
        ddb.update_item("t", "warm", [("v", "x" * 1500)])
        before = strong_account.meter.snapshot()
        with pytest.raises(errors.ProvisionedThroughputExceeded):
            ddb.batch_write_item("t", [("k", [("v", "x")])])
        delta = strong_account.meter.snapshot() - before
        assert delta.request_count(billing.DDB) == 0
        assert delta.write_units(billing.DDB) == 0

    def test_validation_precedes_admission(self, strong_account):
        """An oversized item anywhere rejects the whole batch before any
        entry commits."""
        ddb = strong_account.dynamodb
        ddb.create_table("t")
        with pytest.raises(errors.ItemSizeLimitExceeded):
            ddb.batch_write_item(
                "t",
                [
                    ("good", [("v", "x")]),
                    ("big", [(f"a{i}", "x" * 60 * KB) for i in range(8)]),
                ],
            )
        assert ddb.authoritative_item("t", "good") is None


# ---------------------------------------------------------------------------
# Backend adapters: put_provenance_items
# ---------------------------------------------------------------------------


class TestBackendBatchPuts:
    def test_simpledb_adapter_packs_and_chunks(self, strong_account):
        backend = SimpleDBBackend(strong_account.simpledb)
        backend.provision("p")
        wide = [(f"wide-a{i}", "v") for i in range(130)]  # > 100 attrs
        items = [("wide", wide)] + [
            (f"item-{i}", [("k", str(i))]) for i in range(30)
        ]
        before = strong_account.meter.snapshot()
        backend.put_provenance_items("p", items)
        delta = strong_account.meter.snapshot() - before
        # 32 entries (wide split into two) -> two 25-capped batch calls.
        assert delta.request_count(billing.SDB, "BatchPutAttributes") == 2
        assert backend.authoritative_item("p", "wide") == {
            f"wide-a{i}": ("v",) for i in range(130)
        }
        assert backend.authoritative_item("p", "item-29") == {"k": ("29",)}

    def test_dynamo_adapter_retries_unprocessed(self, strong_account):
        """A tight write window forces UnprocessedItems; the adapter
        backs off (advancing the clock, counting throttles) until every
        entry lands."""
        ddb = strong_account.dynamodb
        ddb.create_table("p", write_capacity=3)
        backend = DynamoBackend(ddb)
        items = [(f"k{i}", [("v", "x" * 600)]) for i in range(12)]
        start = strong_account.clock.now
        backend.put_provenance_items("p", items)
        assert backend.throttled_requests > 0
        assert strong_account.clock.now > start
        for key, _ in items:
            assert ddb.authoritative_item("p", key) == {"v": ("x" * 600,)}
