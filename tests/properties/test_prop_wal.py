"""Property tests: A3 atomicity under crashes anywhere, replay idempotency.

These are the paper's §4.3 arguments, machine-checked:

* whatever call index the client dies at, recovery leaves data and
  provenance either both visible or both absent;
* the commit daemon may crash and replay arbitrarily; the final state is
  the same because every apply step is idempotent.
"""

from hypothesis import given, settings, strategies as st

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.faults import FaultPlan
from repro.core.base import DATA_BUCKET, RetryPolicy
from repro.core.s3_simpledb_sqs import S3SimpleDBSQS
from repro.errors import ClientCrash
from repro.passlib.capture import PassSystem
from tests.conftest import provenance_oracle_item


def build_store(seed: int, faults=None, daemon_faults=None, window=0.0):
    account = AWSAccount(
        seed=seed,
        consistency=(
            ConsistencyConfig.strong()
            if window == 0
            else ConsistencyConfig.eventual(window=window, immediate_fraction=0.4)
        ),
    )
    store = S3SimpleDBSQS(
        account,
        faults=faults or FaultPlan(),
        daemon_faults=daemon_faults or FaultPlan(),
        retry=RetryPolicy(attempts=15, wait=lambda: account.clock.advance(0.5)),
        commit_threshold=1000,
    )
    store.provision()
    return account, store


def make_events(n_files: int, env_bytes: int):
    pas = PassSystem(workload="prop")
    events = []
    for i in range(n_files):
        with pas.process(f"tool{i}", env={"E": "x" * env_bytes}) as proc:
            proc.write(f"out/f{i}.dat", f"payload {i}".encode())
            events.append(proc.close(f"out/f{i}.dat"))
    return events


def settle(account, store):
    for _ in range(8):
        account.clock.advance(200.0)
        store.restart_commit_daemon().drain()
        account.quiesce()
        if account.sqs.exact_message_count(store.queue_url) == 0:
            return


@settings(max_examples=50, deadline=None)
@given(
    crash_call=st.integers(1, 40),
    env_bytes=st.sampled_from([0, 2000, 9000]),
    seed=st.integers(0, 500),
)
def test_crash_anywhere_is_atomic(crash_call, env_bytes, seed):
    """Kill the client at the crash_call-th fault point (if reached):
    after recovery, data visible ⇔ provenance visible."""
    events = make_events(2, env_bytes)
    plan = FaultPlan()
    account, store = build_store(seed, faults=plan)
    store.store(events[0])  # a healthy baseline transaction
    plan.crash_at_call(len(plan.log) + crash_call)
    victim = events[1]
    try:
        store.store(victim)
    except ClientCrash:
        pass
    plan.disarm()
    settle(account, store)

    data = account.s3.exists_authoritative(DATA_BUCKET, victim.subject.name)
    # Atomicity: data and provenance are both present or both absent.
    item = provenance_oracle_item(account, victim.subject.item_name)
    assert data == (item is not None)
    # The baseline transaction must have survived regardless.
    assert account.s3.exists_authoritative(DATA_BUCKET, events[0].subject.name)


@settings(max_examples=35, deadline=None)
@given(
    daemon_crash_call=st.integers(1, 12),
    seed=st.integers(0, 500),
)
def test_daemon_crash_replay_idempotent(daemon_crash_call, seed):
    """Crash the daemon at an arbitrary apply point; a restarted daemon
    converges to exactly the no-crash outcome."""
    events = make_events(2, 1500)

    # Reference world: no daemon crash.
    ref_account, ref_store = build_store(seed)
    for event in events:
        ref_store.store(event)
    settle(ref_account, ref_store)

    # Crashing world.
    daemon_plan = FaultPlan().crash_at_call(daemon_crash_call)
    account, store = build_store(seed, daemon_faults=daemon_plan)
    for event in events:
        store.store(event)
    try:
        store.commit_daemon.drain()
    except ClientCrash:
        pass
    settle(account, store)

    for event in events:
        ref_record = ref_account.s3.authoritative_record(
            DATA_BUCKET, event.subject.name
        )
        record = account.s3.authoritative_record(DATA_BUCKET, event.subject.name)
        assert (record is None) == (ref_record is None)
        if record is not None:
            assert record.etag == ref_record.etag
            assert record.metadata_dict == ref_record.metadata_dict
        assert provenance_oracle_item(
            account, event.subject.item_name
        ) == provenance_oracle_item(ref_account, event.subject.item_name)
    assert account.sqs.exact_message_count(store.queue_url) == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 500), window=st.floats(0.5, 4.0))
def test_eventual_consistency_never_breaks_reads(seed, window):
    """Under arbitrary consistency windows, committed work reads back
    consistently (possibly after retries) and versions never regress."""
    events = make_events(3, 800)
    account, store = build_store(seed, window=window)
    for event in events:
        store.store(event)
    settle(account, store)
    for event in events:
        result = store.read(event.subject.name)
        assert result.consistent
        assert result.subject.version == event.subject.version
        assert result.data.md5() == event.data.md5()
