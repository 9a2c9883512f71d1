"""Unit tests for the commit daemon and cleaner daemon."""

import pytest

from repro.aws.faults import FaultPlan
from repro.core.base import DATA_BUCKET, TEMP_PREFIX
from repro.core.daemons import CleanerDaemon
from repro.errors import ClientCrash, NoSuchKey
from repro.blob import BytesBlob
from repro.passlib.capture import PassSystem
from repro.units import SECONDS_PER_DAY
from tests.conftest import make_architecture, provenance_oracle_item, tiny_trace


@pytest.fixture
def a3(strong_account):
    return make_architecture(
        "s3+simpledb+sqs", strong_account, commit_threshold=100
    )


class TestCommitDaemonTrigger:
    def test_below_threshold_no_commit(self, a3, strong_account, trace):
        # threshold=100: the daemon's monitor tick should not fire.
        a3.store_trace(trace)
        assert not strong_account.s3.exists_authoritative(
            DATA_BUCKET, trace[-1].subject.name
        )

    def test_force_commits_regardless(self, a3, strong_account, trace):
        a3.store_trace(trace)
        applied = a3.commit_daemon.run_once(force=True)
        assert applied == len(trace)
        assert strong_account.s3.exists_authoritative(
            DATA_BUCKET, trace[-1].subject.name
        )

    def test_threshold_triggers(self, strong_account):
        store = make_architecture(
            "s3+simpledb+sqs", strong_account, commit_threshold=2
        )
        store.store_trace(tiny_trace())
        # With a tiny threshold the in-store monitor tick already ran.
        assert store.commit_daemon.stats.transactions_applied >= 1


class TestCommitDaemonIdempotency:
    def test_daemon_crash_mid_apply_then_replay(self, strong_account, trace):
        store = make_architecture(
            "s3+simpledb+sqs", strong_account, commit_threshold=100
        )
        store.commit_daemon.faults.crash_at("daemon.apply.after_copy")
        store.store_trace(trace)
        with pytest.raises(ClientCrash):
            store.commit_daemon.drain()
        # Visibility timeout expires; a fresh daemon replays idempotently.
        strong_account.clock.advance(200.0)
        store.restart()
        applied = store.commit_daemon.drain()
        assert applied >= 1
        result = store.read(trace[-1].subject.name)
        assert result.consistent
        assert strong_account.sqs.exact_message_count(store.queue_url) == 0

    def test_crash_between_prov_and_message_delete(self, strong_account, trace):
        store = make_architecture(
            "s3+simpledb+sqs", strong_account, commit_threshold=100
        )
        store.commit_daemon.faults.crash_at("daemon.apply.after_put_attributes")
        store.store_trace(trace)
        with pytest.raises(ClientCrash):
            store.commit_daemon.drain()
        strong_account.clock.advance(200.0)
        store.restart()
        store.pump()
        # Replay stored provenance again without error (idempotency §4.3).
        item = provenance_oracle_item(strong_account, trace[-1].subject.item_name)
        assert item is not None
        result = store.read(trace[-1].subject.name)
        assert result.consistent

    def test_restart_is_a_reboot_with_a_fresh_daemon(self, a3, trace):
        # The store-level reboot hook (a no-op on A1/A2): A3's daemon
        # comes back with no memory and replays the WAL.
        a3.store_trace(trace)
        before = a3.commit_daemon
        a3.restart()
        assert a3.commit_daemon is not before
        assert a3.pump() >= 1
        assert a3.wal_backlog() == 0
        assert a3.read(trace[-1].subject.name).consistent

    def test_double_drain_harmless(self, a3, strong_account, trace):
        a3.store_trace(trace)
        a3.commit_daemon.drain()
        before = strong_account.meter.snapshot()
        a3.commit_daemon.drain()
        delta = strong_account.meter.snapshot() - before
        assert delta.request_count("s3", "COPY") == 0  # nothing to redo


class TestDeferredCounting:
    @pytest.mark.parametrize("write_batch", [1, 8])
    def test_deferral_ends_the_phase_before_the_blocked_tail(
        self, strong_account, monkeypatch, write_batch
    ):
        """Five logged transactions: the first cannot COPY yet (replica
        lag), the fourth is committed but missing a record, the fifth is
        complete behind it. A transaction is counted as deferred when
        the apply loop reaches it; the deferral of the first ends the
        phase, so neither the second and third nor the blocked fifth is
        reached. Counting the blocked tail up front would report 2."""
        account = strong_account
        store = make_architecture(
            "s3+simpledb+sqs", account, commit_threshold=100,
            write_batch=write_batch,
        )
        pas = PassSystem(workload="deferral")
        for index in range(5):
            with pas.process(f"tool{index}") as proc:
                proc.write(f"out/f{index}.dat", BytesBlob(b"payload %d" % index))
                store.store(proc.close(f"out/f{index}.dat"))
        temps = account.s3.authoritative_keys(DATA_BUCKET)
        temps = sorted(key for key in temps if key.startswith(TEMP_PREFIX))
        lagging, fourth_txn = temps[0], temps[3][len(TEMP_PREFIX):].split("/")[0]

        # Lock the whole queue, then hand everything back except one
        # provenance record of the fourth transaction.
        received = []
        while batch := account.sqs.receive_message(store.queue_url, 10, 10_000.0):
            received.extend(batch)
        hidden = next(
            message for message in received
            if '"t":"prov"' in message.body and fourth_txn in message.body
        )
        for message in received:
            if message is not hidden:
                account.sqs.change_message_visibility(
                    store.queue_url, message.receipt_handle, 0.0
                )

        real_copy = account.s3.copy

        def lagging_copy(bucket, source, destination, metadata=None):
            if source == lagging:
                raise NoSuchKey(source)
            return real_copy(bucket, source, destination, metadata=metadata)

        monkeypatch.setattr(account.s3, "copy", lagging_copy)
        daemon = store.commit_daemon
        assert daemon.commit_phase() == 0
        assert daemon.stats.transactions_deferred == 1
        assert daemon.stats.transactions_applied == 0

        # Without the lag the phase reaches the blocked tail: three
        # apply, the fifth is counted.
        monkeypatch.setattr(account.s3, "copy", real_copy)
        assert daemon.commit_phase() == 3
        assert daemon.stats.transactions_deferred == 2


class TestCleanerDaemon:
    def test_removes_only_old_temp_objects(self, strong_account, trace):
        plan = FaultPlan().crash_at("a3.log.before_commit")
        store = make_architecture(
            "s3+simpledb+sqs",
            strong_account,
            faults=plan,
            commit_threshold=100,
        )
        with pytest.raises(ClientCrash):
            store.store(trace[-1])  # abandoned temp object
        plan.disarm()
        # A fresh temp object from a live transaction must survive.
        strong_account.clock.advance(4 * SECONDS_PER_DAY + 1)
        store.store(tiny_trace()[-1])
        removed = store.cleaner_daemon.run_once()
        assert len(removed) == 1
        assert removed[0].startswith(".pass/tmp/")
        keys = strong_account.s3.authoritative_keys(DATA_BUCKET)
        fresh_temps = [k for k in keys if k.startswith(".pass/tmp/")]
        assert len(fresh_temps) == 1  # the live transaction's temp object

    def test_noop_when_nothing_old(self, a3, strong_account, trace):
        a3.store_trace(trace)
        assert a3.cleaner_daemon.run_once() == []

    def test_stats(self, strong_account, trace):
        plan = FaultPlan().crash_at("a3.log.before_commit")
        store = make_architecture(
            "s3+simpledb+sqs", strong_account, faults=plan, commit_threshold=100
        )
        with pytest.raises(ClientCrash):
            store.store(trace[-1])
        strong_account.clock.advance(5 * SECONDS_PER_DAY)
        store.cleaner_daemon.run_once()
        assert store.cleaner_daemon.stats.objects_removed == 1

    def test_page_size_below_one_rejected_at_construction(self, strong_account):
        """A zero-key LIST page is truncated with no marker, so a cleaner
        paging by it would re-list from the start forever."""
        for bad in (0, -1):
            with pytest.raises(ValueError, match="cleaner page size"):
                CleanerDaemon(strong_account, page_size=bad)
        assert CleanerDaemon(strong_account, page_size=1).page_size == 1
