"""Unit tests for engine extras: SELECT mode, version history, retries."""

import pytest

from repro.core.base import RetryPolicy, ReadResult
from repro.errors import NoSuchKey, ReadCorrectnessViolation
from repro.passlib.capture import PassSystem
from repro.passlib.records import Attr, ObjectRef
from repro.query.engine import SimpleDBEngine
from tests.conftest import make_architecture


def blast_trace(n=4):
    pas = PassSystem(workload="extras")
    pas.stage_input("db/ref", b"reference")
    for i in range(n):
        with pas.process("blast", argv=f"-q {i}") as proc:
            proc.read("db/ref")
            proc.write(f"out/{i}.hits", f"h{i}".encode())
            proc.close(f"out/{i}.hits")
    return pas.drain_flushes()


class TestSelectModeEngine:
    # SELECT is a SimpleDB wire language; the store and the engines stay
    # pinned to the sdb placement.
    @pytest.fixture
    def sdb_router(self):
        from repro.sharding import ShardRouter

        return ShardRouter(1, placement="sdb")

    @pytest.fixture
    def loaded(self, strong_account, sdb_router):
        store = make_architecture(
            "s3+simpledb", strong_account, router=sdb_router
        )
        store.store_trace(blast_trace())
        return strong_account

    def test_select_mode_matches_query_mode(self, loaded, sdb_router):
        bracket = SimpleDBEngine(loaded, router=sdb_router)
        select = SimpleDBEngine(loaded, select_mode=True, router=sdb_router)
        assert set(select.q2_outputs_of("blast").refs) == set(
            bracket.q2_outputs_of("blast").refs
        )
        assert set(select.q3_descendants_of("blast").refs) == set(
            bracket.q3_descendants_of("blast").refs
        )

    def test_select_mode_uses_select_requests(self, loaded, sdb_router):
        engine = SimpleDBEngine(loaded, select_mode=True, router=sdb_router)
        measurement = engine.q2_outputs_of("blast")
        assert measurement.usage.request_count("simpledb", "Select") >= 2
        assert measurement.usage.request_count("simpledb", "QueryWithAttributes") == 0


class TestVersionHistory:
    def test_all_versions_recovered(self, strong_account):
        store = make_architecture("s3+simpledb", strong_account)
        pas = PassSystem()
        for i in range(3):
            with pas.process(f"w{i}") as proc:
                proc.write("doc", f"v{i}".encode())
                proc.close("doc")
        store.store_trace(pas.drain_flushes())
        history = store.version_history("doc")
        assert [b.subject.version for b in history] == [1, 2, 3]
        # Version chain intact: v3 links to v2 links to v1.
        prev = [
            r.value for r in history[2].records if r.attribute == Attr.VERSION_OF
        ]
        assert prev == [ObjectRef("doc", 2)]

    def test_unknown_object_empty_history(self, strong_account):
        store = make_architecture("s3+simpledb", strong_account)
        assert store.version_history("ghost") == []


class TestRetryPolicy:
    def test_returns_result_without_retries(self):
        policy = RetryPolicy(attempts=3)
        sentinel = ReadResult(
            subject=ObjectRef("x", 1), data=None, bundle=_bundle(), consistent=True
        )
        assert policy.run(lambda: sentinel) is sentinel

    def test_counts_retries(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise NoSuchKey("not yet")
            return ReadResult(
                subject=ObjectRef("x", 1), data=None, bundle=_bundle(), consistent=True
            )

        result = RetryPolicy(attempts=5).run(flaky)
        assert result.retries == 2

    def test_wait_called_between_attempts(self):
        waits = []

        def failing():
            raise NoSuchKey("never")

        policy = RetryPolicy(attempts=3, wait=lambda: waits.append(1))
        with pytest.raises(ReadCorrectnessViolation):
            policy.run(failing)
        assert len(waits) == 3

    def test_exhaustion_message_mentions_attempts(self):
        with pytest.raises(ReadCorrectnessViolation, match="4 attempts"):
            RetryPolicy(attempts=4).run(_always_missing)


def _always_missing():
    raise NoSuchKey("gone")


def _bundle():
    from repro.passlib.records import ProvenanceBundle

    return ProvenanceBundle(subject=ObjectRef("x", 1), kind="file", records=())
