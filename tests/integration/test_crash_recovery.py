"""Integration: crash/recovery narratives from §3–§4, played end to end."""

import pytest

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.faults import FaultPlan
from repro.core.base import DATA_BUCKET, RetryPolicy
from repro.core.s3_simpledb import S3SimpleDB
from repro.core.s3_simpledb_sqs import S3SimpleDBSQS
from repro.errors import ClientCrash
from repro.passlib.capture import PassSystem
from repro.units import SECONDS_PER_DAY
from tests.conftest import provenance_oracle_item


def fresh_account(seed=0):
    return AWSAccount(seed=seed, consistency=ConsistencyConfig.strong())


def one_event(name="exp/result.dat", payload=b"results"):
    pas = PassSystem(workload="crash")
    with pas.process("analysis", env={"GRID": "x" * 1500}) as proc:
        proc.write(name, payload)
        return proc.close(name)


class TestPaperScenarioOrphanProvenance:
    """§3: 'a client records provenance and crashes before the data...'"""

    def test_orphan_created_then_scavenged(self):
        account = fresh_account(1)
        plan = FaultPlan().crash_at("a2.store.before_data_put")
        store = S3SimpleDB(account, faults=plan)
        event = one_event()
        with pytest.raises(ClientCrash):
            store.store(event)

        # The damage: provenance without data.
        assert provenance_oracle_item(account, event.subject.item_name)
        assert not account.s3.exists_authoritative(DATA_BUCKET, event.subject.name)

        # The paper's 'inelegant' recovery: a full-domain scan.
        recovering = S3SimpleDB(account)
        before = account.meter.snapshot()
        removed = recovering.recover_orphans()
        scan_cost = account.meter.snapshot() - before
        assert event.subject.item_name in removed
        # The scan really does touch the whole provenance store (its
        # inelegance) — on whichever service hosts it.
        from repro.sharding import ShardRouter

        placed = ShardRouter(1).backend_for("pass-prov")
        service = {"sdb": "simpledb", "ddb": "dynamodb"}[placed]
        assert scan_cost.request_count(service) >= 1
        assert provenance_oracle_item(account, event.subject.item_name) is None

    def test_old_version_items_survive_the_scan(self):
        account = fresh_account(2)
        store = S3SimpleDB(account)
        pas = PassSystem()
        for i in (1, 2):
            with pas.process(f"w{i}") as proc:
                proc.write("doc", f"v{i}".encode())
                proc.close("doc")
        store.store_trace(pas.drain_flushes())
        removed = store.recover_orphans()
        assert removed == []  # superseded versions are not orphans


class TestPaperScenarioStaleVersionMasquerade:
    """§3: 'an old version of data interpreted as being a new version'."""

    def test_md5_nonce_prevents_masquerade(self):
        account = AWSAccount(
            seed=3, consistency=ConsistencyConfig.eventual(window=3.0)
        )
        retry = RetryPolicy(attempts=15, wait=lambda: account.clock.advance(0.5))
        store = S3SimpleDB(account, retry=retry)
        pas = PassSystem()
        payloads = {}
        for i in (1, 2, 3):
            with pas.process(f"w{i}") as proc:
                blob = f"content {i}".encode()
                ref = proc.write("doc", blob)
                payloads[ref.version] = blob
                proc.close("doc")
        for event in pas.drain_flushes():
            store.store(event)
            result = store.read("doc")
            # Whatever version EC serves, data and provenance agree.
            assert result.data.read() == payloads[result.subject.version]


class TestWalRecoveryMatrix:
    """Crash the A3 client at every protocol step; recovery must leave
    an all-or-nothing outcome and clean garbage within the 4-day window."""

    CRASH_POINTS = [
        "a3.log.begin",
        "a3.log.after_begin_record",
        "a3.log.after_temp_put",
        "a3.log.after_record",
        "a3.log.before_commit",
        "a3.log.done",
    ]

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_point(self, point):
        account = fresh_account(4)
        plan = FaultPlan().crash_at(point)
        store = S3SimpleDBSQS(account, faults=plan, commit_threshold=100)
        event = one_event()
        with pytest.raises(ClientCrash):
            store.store(event)
        plan.disarm()
        store.restart()
        store.pump()

        data = account.s3.exists_authoritative(DATA_BUCKET, event.subject.name)
        prov = provenance_oracle_item(account, event.subject.item_name) is not None
        assert data == prov, f"non-atomic outcome after crash at {point}"
        committed = point == "a3.log.done"
        assert data == committed

        # Garbage collection: advance past retention, run the cleaner,
        # expire the WAL. No temp objects, no stray messages.
        account.clock.advance(4 * SECONDS_PER_DAY + 1)
        store.cleaner_daemon.run_once()
        account.sqs.receive_message(store.queue_url, max_messages=10)
        keys = account.s3.authoritative_keys(DATA_BUCKET)
        assert not any(k.startswith(".pass/tmp/") for k in keys)
        assert account.sqs.exact_message_count(store.queue_url) == 0

    def test_interrupted_client_resumes_with_new_transactions(self):
        account = fresh_account(5)
        plan = FaultPlan().crash_at("a3.log.before_commit")
        store = S3SimpleDBSQS(account, faults=plan, commit_threshold=100)
        with pytest.raises(ClientCrash):
            store.store(one_event("exp/lost.dat"))
        plan.disarm()
        # The same client host restarts and stores new work fine.
        store.store(one_event("exp/kept.dat", b"fresh"))
        store.pump()
        assert store.read("exp/kept.dat").consistent
        assert not account.s3.exists_authoritative(DATA_BUCKET, "exp/lost.dat")


class TestDaemonCrashEveryPoint:
    DAEMON_POINTS = [
        "daemon.apply.begin",
        "daemon.apply.after_copy",
        "daemon.apply.after_overflow",
        "daemon.apply.after_put_attributes",
        "daemon.apply.after_delete_messages",
        "daemon.apply.done",
    ]

    @pytest.mark.parametrize("point", DAEMON_POINTS)
    def test_daemon_crash_then_replay_converges(self, point):
        account = fresh_account(6)
        store = S3SimpleDBSQS(account, commit_threshold=100)
        store.commit_daemon.faults.crash_at(point)
        event = one_event()
        store.store(event)
        with pytest.raises(ClientCrash):
            store.commit_daemon.drain()
        account.clock.advance(300.0)  # visibility timeout expires
        store.restart()
        store.pump()
        result = store.read(event.subject.name)
        assert result.consistent
        assert result.data.md5() == event.data.md5()
        # At-least-once replay left no queue residue...
        assert account.sqs.exact_message_count(store.queue_url) == 0
        # ...and within the retention window the cleaner removes temps.
        account.clock.advance(4 * SECONDS_PER_DAY + 1)
        store.cleaner_daemon.run_once()
        keys = account.s3.authoritative_keys(DATA_BUCKET)
        assert not any(k.startswith(".pass/tmp/") for k in keys)
