"""Unit tests for the three architectures' store/read protocols."""

import pytest

from repro.aws.faults import FaultPlan
from repro.core.base import DATA_BUCKET, PROV_DOMAIN
from repro.core.s3_simpledb_sqs import S3SimpleDBSQS
from repro.errors import ClientCrash, ReadCorrectnessViolation
from repro.passlib.capture import PassSystem
from repro.passlib.records import Attr
from repro.sharding import ShardRouter
from tests.conftest import make_architecture, tiny_trace


def make_sdb_store(account, **kwargs):
    """An A2 store pinned to the paper's SimpleDB placement and
    single-request write path: this suite asserts §4.2 wire semantics
    (PutAttributes batching, items visible in the SimpleDB domain)."""
    kwargs.setdefault("write_batch", 1)
    return make_architecture(
        "s3+simpledb", account,
        router=ShardRouter(1, placement="sdb"), **kwargs,
    )


def big_env_trace(env_bytes=3000):
    pas = PassSystem(workload="big")
    with pas.process("fat", env={"HUGE": "x" * env_bytes}) as proc:
        proc.write("out/fat.dat", b"payload")
        proc.close("out/fat.dat")
    return pas.drain_flushes()


class TestCommonBehaviour:
    def test_store_then_read_roundtrip(self, any_architecture, trace):
        store = any_architecture
        store.store_trace(trace)
        if isinstance(store, S3SimpleDBSQS):
            store.pump()
        result = store.read("data/out.csv")
        assert result.consistent
        assert result.data.read() == b"sum\n3\n"
        assert result.subject.version == 1
        assert result.bundle.attribute_values(Attr.TYPE) == ["file"]

    def test_read_missing_object(self, any_architecture):
        with pytest.raises(ReadCorrectnessViolation):
            any_architecture.read("never/stored")

    def test_store_counts(self, any_architecture, trace):
        any_architecture.store_trace(trace)
        assert any_architecture.stores_completed == len(trace)

    def test_rewrite_supersedes(self, any_architecture):
        store = any_architecture
        pas = PassSystem()
        for round_number in (1, 2):
            with pas.process(f"writer{round_number}") as proc:
                proc.write("doc", f"round {round_number}".encode())
                proc.close("doc")
        store.store_trace(pas.drain_flushes())
        if isinstance(store, S3SimpleDBSQS):
            store.pump()
        result = store.read("doc")
        assert result.subject.version == 2
        assert result.data.read() == b"round 2"


class TestS3Standalone:
    @pytest.fixture
    def store(self, strong_account):
        return make_architecture("s3", strong_account)

    def test_single_put_carries_provenance(self, store, strong_account, trace):
        before = strong_account.meter.snapshot()
        store.store(trace[-1])
        delta = strong_account.meter.snapshot() - before
        # Exactly one PUT (no overflow in the tiny trace): data+prov together.
        assert delta.request_count("s3", "PUT") == 1

    def test_overflow_objects_written_before_main_put(self, store, strong_account):
        trace = big_env_trace()
        store.store_trace(trace)
        assert store.overflow_objects_written == 1
        keys = strong_account.s3.authoritative_keys(DATA_BUCKET)
        assert any(k.startswith(".pass/overflow/") for k in keys)

    def test_head_provenance_returns_bundle(self, store, trace):
        store.store_trace(trace)
        result = store.head_provenance("data/out.csv")
        assert result.data is None
        assert result.bundle.attribute_values(Attr.NAME) == ["out.csv"]

    def test_read_with_ancestors_recovers_process(self, store, trace):
        store.store_trace(trace)
        own, ancestors = store.read_with_ancestors("data/out.csv")
        assert [a.kind for a in ancestors] == ["process"]
        assert ancestors[0].attribute_values(Attr.NAME) == ["analyze"]

    def test_historical_version_unreachable(self, store):
        pas = PassSystem()
        for i in (1, 2):
            with pas.process(f"w{i}") as proc:
                proc.write("doc", f"v{i}".encode())
                proc.close("doc")
        store.store_trace(pas.drain_flushes())
        with pytest.raises(ReadCorrectnessViolation):
            store.read("doc", version=1)


class TestS3SimpleDB:
    @pytest.fixture
    def store(self, strong_account):
        return make_sdb_store(strong_account)

    def test_provenance_stored_before_data(self, store, strong_account, trace):
        plan = FaultPlan().crash_at("a2.store.before_data_put")
        crashing = make_sdb_store(strong_account, faults=plan)
        with pytest.raises(ClientCrash):
            crashing.store(trace[-1])
        # Provenance landed; data did not: the §4.2 atomicity hole.
        item = strong_account.simpledb.authoritative_item(
            PROV_DOMAIN, trace[-1].subject.item_name
        )
        assert item is not None
        assert not strong_account.s3.exists_authoritative(
            DATA_BUCKET, trace[-1].subject.name
        )

    def test_nonce_stamped_on_data(self, store, strong_account, trace):
        store.store_trace(trace)
        record = strong_account.s3.authoritative_record(DATA_BUCKET, "data/out.csv")
        assert record.metadata_dict["nonce"] == "v0001"

    def test_md5_attr_present(self, store, strong_account, trace):
        store.store_trace(trace)
        item = strong_account.simpledb.authoritative_item(
            PROV_DOMAIN, trace[-1].subject.item_name
        )
        assert Attr.MD5 in item and Attr.NONCE in item

    def test_historical_version_provenance_kept(self, store):
        pas = PassSystem()
        for i in (1, 2):
            with pas.process(f"w{i}") as proc:
                proc.write("doc", f"v{i}".encode())
                proc.close("doc")
        store.store_trace(pas.drain_flushes())
        result = store.read("doc", version=1)
        assert result.data is None  # bytes overwritten
        assert result.subject.version == 1
        assert result.bundle.records  # provenance survives

    def test_recover_orphans_removes_only_orphans(self, store, strong_account):
        trace_ok = tiny_trace()
        store.store_trace(trace_ok)
        # Crash a second client between provenance and data.
        orphan_trace = big_env_trace()
        plan = FaultPlan().crash_at("a2.store.before_data_put")
        crashing = make_sdb_store(strong_account, faults=plan)
        with pytest.raises(ClientCrash):
            crashing.store(orphan_trace[-1])
        removed = store.recover_orphans()
        assert orphan_trace[-1].subject.item_name in removed
        # The healthy object's provenance is untouched.
        assert store.read("data/out.csv").consistent

    def test_batched_put_attributes_for_wide_items(self, strong_account):
        store = make_sdb_store(strong_account)
        pas = PassSystem()
        for i in range(120):
            pas.stage_input(f"in{i}", b"x")
        pas.drain_flushes()
        with pas.process("wide") as proc:
            for i in range(120):
                proc.read(f"in{i}")
            proc.write("out", b"y")
            event = proc.close("out")
        before = strong_account.meter.snapshot()
        store.store(event)
        delta = strong_account.meter.snapshot() - before
        # >100 attributes on the process item forces 2+ PutAttributes.
        assert delta.request_count("simpledb", "PutAttributes") >= 3


class TestS3SimpleDBSQS:
    @pytest.fixture
    def store(self, strong_account):
        return make_architecture(
            "s3+simpledb+sqs", strong_account, commit_threshold=3
        )

    def test_data_travels_via_temp_and_copy(self, store, strong_account, trace):
        before = strong_account.meter.snapshot()
        store.store_trace(trace)
        store.pump()
        delta = strong_account.meter.snapshot() - before
        assert delta.request_count("s3", "COPY") == len(trace)
        assert delta.request_count("s3", "PUT") >= len(trace)

    def test_temp_objects_cleaned_after_commit(self, store, strong_account, trace):
        store.store_trace(trace)
        store.pump()
        keys = strong_account.s3.authoritative_keys(DATA_BUCKET)
        assert not any(k.startswith(".pass/tmp/") for k in keys)

    def test_wal_drained_after_commit(self, store, strong_account, trace):
        store.store_trace(trace)
        store.pump()
        assert strong_account.sqs.exact_message_count(store.queue_url) == 0

    def test_crash_mid_log_leaves_no_partial_state(
        self, strong_account, trace
    ):
        plan = FaultPlan().crash_at("a3.log.before_commit")
        store = make_architecture(
            "s3+simpledb+sqs", strong_account, faults=plan, commit_threshold=3
        )
        with pytest.raises(ClientCrash):
            store.store(trace[-1])
        plan.disarm()
        store.restart_commit_daemon().drain()
        # Uncommitted: neither data nor provenance became visible.
        assert not strong_account.s3.exists_authoritative(
            DATA_BUCKET, trace[-1].subject.name
        )
        assert (
            strong_account.simpledb.authoritative_item(
                PROV_DOMAIN, trace[-1].subject.item_name
            )
            is None
        )

    def test_commit_after_crash_recovers_committed_txn(
        self, strong_account, trace
    ):
        plan = FaultPlan().crash_at("a3.log.done")
        store = make_architecture(
            "s3+simpledb+sqs", strong_account, faults=plan, commit_threshold=3
        )
        with pytest.raises(ClientCrash):
            store.store(trace[-1])  # commit record did reach the queue
        plan.disarm()
        store.restart_commit_daemon().drain()
        assert strong_account.s3.exists_authoritative(
            DATA_BUCKET, trace[-1].subject.name
        )

    def test_multiple_clients_separate_queues(self, strong_account):
        a = make_architecture(
            "s3+simpledb+sqs", strong_account, client_id="alpha"
        )
        b = make_architecture(
            "s3+simpledb+sqs", strong_account, client_id="beta"
        )
        assert a.queue_url != b.queue_url
        # Clients write different objects concurrently (the usage model).
        pas_a, pas_b = PassSystem(), PassSystem()
        with pas_a.process("pa") as proc:
            proc.write("a.out", b"from a")
            proc.close("a.out")
        with pas_b.process("pb") as proc:
            proc.write("b.out", b"from b")
            proc.close("b.out")
        a.store_trace(pas_a.drain_flushes())
        b.store_trace(pas_b.drain_flushes())
        a.pump()
        b.pump()
        assert a.read("a.out").data.read() == b"from a"
        assert b.read("b.out").data.read() == b"from b"
