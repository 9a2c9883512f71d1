"""Unit tests: the write coalescer, daemon group commit, and the three
write-path bugfixes that ride along with the group-commit PR.

The bugfixes each get a regression test:

1. ``CommitDaemon`` parsed the data record's subject with a hand-rolled
   ``rsplit(":v", 1)`` instead of the serialiser's ``ObjectRef.decode``
   — silently mangling corrupted subjects into *other objects'* S3 keys.
2. ``CommitDaemon._applied_txns`` grew without bound — one entry per
   transaction for the daemon's lifetime.
3. ``CleanerDaemon.run_once`` snapshotted the clock once before its
   pagination loop, under-deleting objects that crossed the age
   threshold while a long scan was still running.
"""

import pytest

from repro.aws import billing
from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.core.base import DATA_BUCKET, TEMP_PREFIX
from repro.core.coalesce import WriteCoalescer, resolve_write_batch
from repro.core.daemons import CleanerDaemon, CommitDaemon
from repro.core.s3_simpledb import S3SimpleDB
from repro.core.s3_simpledb_sqs import S3SimpleDBSQS
from repro.core.wal import AssembledTransaction
from repro.migration.handle import RouterHandle
from repro.passlib.capture import PassSystem
from repro.sharding import ShardRouter
from repro.sim import Simulation
from repro.units import SQS_RETENTION_SECONDS


def make_events(n_files: int, prefix: str = "out"):
    pas = PassSystem(workload="gc")
    events = []
    for i in range(n_files):
        with pas.process(f"tool{i}", env={"E": "x"}) as proc:
            proc.write(f"{prefix}/f{i}.dat", f"payload {i}".encode())
            events.append(proc.close(f"{prefix}/f{i}.dat"))
    return events


# ---------------------------------------------------------------------------
# The coalescer
# ---------------------------------------------------------------------------


class TestResolveWriteBatch:
    def test_explicit_wins(self):
        assert resolve_write_batch(8) == 8
        assert resolve_write_batch(4.0) == 4

    def test_none_is_one(self):
        assert resolve_write_batch() == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_write_batch(0)

    @pytest.mark.parametrize("malformed", ["abc", 0, -2, 2.5, True, ""])
    def test_malformed_argument_names_the_knob(self, malformed):
        with pytest.raises(ValueError, match="write batch must be an integer >= 1"):
            resolve_write_batch(malformed)

    def test_fractional_width_is_rejected_not_truncated(self):
        with pytest.raises(ValueError, match=r"write batch.*2\.5"):
            Simulation("s3+simpledb", write_batch=2.5)


def sdb_router(shards=1, placement="sdb"):
    """A handle over an explicit layout (the mixed-placement test passes
    its placement)."""
    return RouterHandle(ShardRouter(shards, placement=placement))


def coalescer(account, batch, shards=1, placement="sdb"):
    routing = sdb_router(shards, placement)
    routing.provision(account.provenance_backends())
    return WriteCoalescer(account, routing, batch)


class TestWriteCoalescer:
    def test_batch_one_lands_each_put_before_returning(self, strong_account):
        """Width 1 is a batch of one: it fills and flushes inside every
        ``put``, as one PutAttributes. ``flushes``/``coalesced_items``
        count *batched* flushes, so they stay 0 (the perf harness
        derives ``coalesce.items_per_flush`` from them)."""
        c = coalescer(strong_account, 1)
        sdb = strong_account.simpledb
        before = strong_account.meter.snapshot()
        for i in range(3):
            c.put(f"item{i}_v0001", [("type", "file")])
            assert c.pending == 0
            assert sdb.authoritative_item("pass-prov", f"item{i}_v0001") is not None
        assert (c.flushes, c.coalesced_items) == (0, 0)
        assert c.flush() == 0  # nothing was ever left behind
        delta = strong_account.meter.snapshot() - before
        assert delta.request_count(billing.SDB, "PutAttributes") == 3
        assert delta.request_count(billing.SDB, "BatchPutAttributes") == 0

    def test_request_shape_follows_the_width_not_the_group(self, strong_account):
        """A trailing one-item flush at width 8 is a one-entry
        BatchPutAttributes, not a PutAttributes."""
        c = coalescer(strong_account, 8)
        before = strong_account.meter.snapshot()
        c.put("lonely_v0001", [("type", "file")])
        assert c.close() == 1
        delta = strong_account.meter.snapshot() - before
        assert delta.request_count(billing.SDB, "BatchPutAttributes") == 1
        assert delta.request_count(billing.SDB, "PutAttributes") == 0
        assert (c.flushes, c.coalesced_items) == (1, 1)

    def test_flush_on_size(self, strong_account):
        c = coalescer(strong_account, 3)
        sdb = strong_account.simpledb
        for i in range(2):
            c.put(f"i{i}_v0001", [("k", "v")])
        assert c.pending == 2  # buffered: nothing visible yet
        assert sdb.authoritative_item("pass-prov", "i0_v0001") is None
        c.put("i2_v0001", [("k", "v")])
        assert c.pending == 0
        assert c.flushes == 1
        for i in range(3):
            assert sdb.authoritative_item("pass-prov", f"i{i}_v0001") is not None

    def test_flush_on_close(self, strong_account):
        c = coalescer(strong_account, 10)
        c.put("i_v0001", [("k", "v")])
        assert c.close() == 1
        assert c.pending == 0
        assert (
            strong_account.simpledb.authoritative_item("pass-prov", "i_v0001")
            is not None
        )

    def test_flush_splits_per_shard_site(self, strong_account):
        """A flush spanning shards becomes one batch call per site, and
        every item lands on the shard the router owns it on."""
        c = coalescer(strong_account, 16, shards=4)
        router = c.routing.current
        before = strong_account.meter.snapshot()
        for i in range(16):
            c.put(f"obj{i}_v0001", [("k", str(i))])
        delta = strong_account.meter.snapshot() - before
        domains = {router.domain_for_item(f"obj{i}_v0001") for i in range(16)}
        assert len(domains) > 1  # the workload really did span shards
        assert delta.request_count(billing.SDB, "BatchPutAttributes") == len(
            domains
        )
        for i in range(16):
            domain = router.domain_for_item(f"obj{i}_v0001")
            item = strong_account.simpledb.authoritative_item(
                domain, f"obj{i}_v0001"
            )
            assert item == {"k": (str(i),)}

    def test_flush_splits_per_backend(self, strong_account):
        """A mixed placement batches per backend: sdb shards get
        BatchPutAttributes, ddb shards get BatchWriteItem."""
        c = coalescer(strong_account, 8, shards=2, placement="mixed")
        before = strong_account.meter.snapshot()
        for i in range(8):
            c.put(f"obj{i}_v0001", [("k", str(i))])
        delta = strong_account.meter.snapshot() - before
        assert delta.request_count(billing.SDB, "BatchPutAttributes") == 1
        assert delta.request_count(billing.DDB, "BatchWriteItem") == 1


class TestA2Coalescing:
    def test_batched_store_reads_back_identically(self, strong_account):
        events = make_events(6)
        store = S3SimpleDB(strong_account, write_batch=8)
        store.provision()
        for event in events:
            store.store(event)
        assert store.coalescer.pending == 0  # drained before each data PUT
        for event in events:
            result = store.read(event.subject.name)
            assert result.consistent
            assert result.data.md5() == event.data.md5()

    def test_batching_reduces_sdb_requests(self):
        def run(write_batch):
            account = AWSAccount(seed=11, consistency=ConsistencyConfig.strong())
            store = S3SimpleDB(account, write_batch=write_batch, router=sdb_router())
            store.provision()
            for event in make_events(6):
                store.store(event)
            return account.meter.snapshot().request_count(billing.SDB)

        assert run(8) < run(1)


# ---------------------------------------------------------------------------
# Daemon group commit
# ---------------------------------------------------------------------------


def run_a3(write_batch, n_files=8, seed=3):
    account = AWSAccount(seed=seed, consistency=ConsistencyConfig.strong())
    store = S3SimpleDBSQS(
        account, commit_threshold=1000, write_batch=write_batch,
        router=sdb_router(),
    )
    store.provision()
    for event in make_events(n_files):
        store.store(event)
    store.pump()
    account.quiesce()
    return account, store


class TestDaemonGroupCommit:
    def test_group_commit_state_matches_single(self):
        single_account, single_store = run_a3(1)
        group_account, group_store = run_a3(25)
        events = make_events(8)
        for event in events:
            a = single_account.s3.authoritative_record(
                DATA_BUCKET, event.subject.name
            )
            b = group_account.s3.authoritative_record(
                DATA_BUCKET, event.subject.name
            )
            assert a is not None and b is not None
            assert a.etag == b.etag
            assert a.metadata_dict == b.metadata_dict
            assert single_account.simpledb.authoritative_item(
                "pass-prov", event.subject.item_name
            ) == group_account.simpledb.authoritative_item(
                "pass-prov", event.subject.item_name
            )
        assert single_account.sqs.exact_message_count(single_store.queue_url) == 0
        assert group_account.sqs.exact_message_count(group_store.queue_url) == 0
        assert (
            group_store.commit_daemon.stats.transactions_applied
            == single_store.commit_daemon.stats.transactions_applied
        )

    def test_group_commit_saves_requests(self):
        def spend(write_batch):
            account, _ = run_a3(write_batch)
            usage = account.meter.snapshot()
            return (
                usage.request_count(billing.SDB),
                usage.request_count(billing.SQS),
            )

        sdb_single, sqs_single = spend(1)
        sdb_group, sqs_group = spend(25)
        assert sdb_group < sdb_single
        assert sqs_group < sqs_single

    def test_batched_deletes_drain_queue(self):
        account, store = run_a3(8, n_files=12)
        assert account.sqs.exact_message_count(store.queue_url) == 0
        assert store.commit_daemon.stats.transactions_applied == 12


# ---------------------------------------------------------------------------
# Bugfix 1: subject parsing in the commit daemon
# ---------------------------------------------------------------------------


class TestSubjectParsing:
    def test_pathological_paths_land_on_their_own_keys(self):
        """Names containing or ending in ':v<digits>' must COPY to
        exactly themselves (the serialiser encoding round-trips)."""
        names = ["run:v1/out.dat", "weird:v0002", "a:v"]
        account = AWSAccount(seed=5, consistency=ConsistencyConfig.strong())
        store = S3SimpleDBSQS(account, commit_threshold=1000, write_batch=1)
        store.provision()
        pas = PassSystem(workload="gc")
        events = []
        for name in names:
            with pas.process("tool", env={"E": "x"}) as proc:
                proc.write(name, b"payload")
                events.append(proc.close(name))
        for event in events:
            store.store(event)
        store.pump()
        account.quiesce()
        for name in names:
            assert account.s3.exists_authoritative(DATA_BUCKET, name)
            result = store.read(name)
            assert result.consistent

    def test_malformed_subject_raises_instead_of_mangling(self):
        """A corrupted subject must surface, not silently COPY over a
        *different* object's data: the old ``rsplit(":v", 1)`` turned
        'conf/apache:vhost' into 'conf/apache'."""
        txn = AssembledTransaction(
            txn_id="t", data={"subject": "conf/apache:vhost"}
        )
        with pytest.raises(ValueError):
            CommitDaemon._destination_key(txn)


# ---------------------------------------------------------------------------
# Bugfix 2: bounded applied-transaction memory
# ---------------------------------------------------------------------------


class TestAppliedTxnRetention:
    def daemon(self, strong_account):
        url = strong_account.sqs.create_queue("wal-x")
        return CommitDaemon(strong_account, url)

    def test_entries_prune_past_retention(self, strong_account):
        daemon = self.daemon(strong_account)
        daemon._mark_applied("old-1")
        daemon._mark_applied("old-2")
        strong_account.clock.advance(SQS_RETENTION_SECONDS + 1)
        daemon._mark_applied("new-1")
        assert set(daemon._applied_txns) == {"new-1"}

    def test_memory_stays_bounded_across_rounds(self, strong_account):
        """One transaction per simulated hour for 20 simulated days:
        memory holds only the retention window (~96 entries), not all
        480."""
        daemon = self.daemon(strong_account)
        for i in range(480):
            daemon._mark_applied(f"txn-{i:04d}")
            strong_account.clock.advance(3600.0)
        window_hours = SQS_RETENTION_SECONDS / 3600
        assert len(daemon._applied_txns) <= window_hours + 1

    def test_duplicates_detected_inside_window(self):
        """The cap must not break duplicate-replay detection: a daemon
        that crashes after applying but before deleting messages still
        counts the replay."""
        account = AWSAccount(seed=9, consistency=ConsistencyConfig.strong())
        store = S3SimpleDBSQS(account, commit_threshold=1000)
        store.provision()
        for event in make_events(2):
            store.store(event)
        daemon = store.commit_daemon
        daemon.drain()
        assert daemon.stats.duplicate_applies == 0
        # Simulate undeleted messages coming back: re-apply the same
        # transactions through the same daemon instance.
        account.clock.advance(200.0)
        assert set(daemon._applied_txns)  # remembered inside the window


# ---------------------------------------------------------------------------
# Bugfix 3: cleaner clock drift across pages
# ---------------------------------------------------------------------------


class TestCleanerClockPerPage:
    def test_objects_crossing_threshold_mid_scan_are_deleted(self):
        """With one key per LIST page and the clock advancing on every
        request (real scans take real time), keys whose age crosses the
        threshold while earlier pages are processed must still be
        deleted in the same run."""
        account = AWSAccount(seed=2, consistency=ConsistencyConfig.strong())
        account.s3.create_bucket(DATA_BUCKET)
        keys = [f"{TEMP_PREFIX}txn/{i:02d}.tmp" for i in range(6)]
        for key in keys:
            account.s3.put(DATA_BUCKET, key, b"x")
        max_age = 100.0
        # Old snapshot semantics: age(now) = 98 < 100 for every key, so
        # a frozen `now` deletes nothing. Each page costs requests that
        # advance the clock, so later pages cross the threshold.
        account.clock.advance(98.0)
        faults = account.request_faults
        original = faults.before_request

        def advancing(service, op):
            account.clock.advance(1.0)
            original(service, op)

        faults.before_request = advancing
        try:
            cleaner = CleanerDaemon(account, max_age_seconds=max_age, page_size=1)
            removed = cleaner.run_once()
        finally:
            faults.before_request = original
        # The first key is examined one request in (age 99) and
        # survives; by the second page the clock has crossed 100, so
        # every later key is reaped. The old frozen-`now` loop deleted
        # *nothing* here.
        assert removed == keys[1:]
        assert cleaner.stats.objects_removed == len(keys) - 1

    def test_boundary_is_inclusive(self):
        """An object exactly max_age old is reaped (>=, not >)."""
        account = AWSAccount(seed=2, consistency=ConsistencyConfig.strong())
        account.s3.create_bucket(DATA_BUCKET)
        account.s3.put(DATA_BUCKET, f"{TEMP_PREFIX}t/exact.tmp", b"x")
        account.clock.advance(50.0)
        cleaner = CleanerDaemon(account, max_age_seconds=50.0)
        assert cleaner.run_once() == [f"{TEMP_PREFIX}t/exact.tmp"]

    def test_young_objects_survive(self):
        account = AWSAccount(seed=2, consistency=ConsistencyConfig.strong())
        account.s3.create_bucket(DATA_BUCKET)
        account.s3.put(DATA_BUCKET, f"{TEMP_PREFIX}t/young.tmp", b"x")
        account.clock.advance(10.0)
        cleaner = CleanerDaemon(account, max_age_seconds=50.0)
        assert cleaner.run_once() == []
        assert account.s3.exists_authoritative(
            DATA_BUCKET, f"{TEMP_PREFIX}t/young.tmp"
        )
