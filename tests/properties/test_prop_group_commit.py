"""Property tests: group commit preserves the write path's guarantees.

Two invariants the batched path must not buy its savings with:

* **Meter identity at batch=1** — ``write_batch=1`` is a batch of one
  that issues the single-item requests (PutAttributes / UpdateItem /
  DeleteMessage), so a run is *byte-identical* on the meter to a run
  that never heard of batching. This is the knob's
  backward-compatibility contract.
* **Crash atomicity survives coalescing** — the client coalescer defers
  provenance puts, but always flushes before the authoritative data
  PUT (A2) or rides inside the WAL transaction (A3). A crash loses at
  most work that was never acknowledged; resubmission converges to the
  exact no-crash state.
"""

from hypothesis import given, settings, strategies as st

from repro.aws.faults import FaultPlan
from repro.core.base import DATA_BUCKET
from repro.errors import ClientCrash
from repro.sim import Simulation
from tests.conftest import provenance_oracle_item
from tests.properties.test_prop_wal import build_store, make_events, settle


@settings(max_examples=20, deadline=None)
@given(
    architecture=st.sampled_from(["s3+simpledb", "s3+simpledb+sqs"]),
    seed=st.integers(0, 300),
    n_files=st.integers(1, 6),
)
def test_batch_one_is_meter_identical(architecture, seed, n_files):
    """write_batch=1 spends exactly what the default path spends —
    request by request, byte by byte, on every service."""

    def run(**kwargs):
        sim = Simulation(architecture=architecture, seed=seed, **kwargs)
        sim.store_events(make_events(n_files, 500), collect=False)
        return sim.usage()

    default_usage = run()
    explicit_usage = run(write_batch=1)
    delta = default_usage - explicit_usage
    for service in ("s3", "simpledb", "sqs", "dynamodb"):
        assert delta.request_count(service) == 0
        assert delta.transfer_in(service) == 0
        assert delta.transfer_out(service) == 0
    assert default_usage.box_usage_hours == explicit_usage.box_usage_hours


@settings(max_examples=40, deadline=None)
@given(
    crash_call=st.integers(1, 40),
    write_batch=st.integers(2, 25),
    seed=st.integers(0, 400),
)
def test_coalesced_crash_loses_nothing_acknowledged(crash_call, write_batch, seed):
    """Crash a batching client anywhere mid-store: everything already
    acknowledged stays intact, and resubmitting the interrupted event
    through a new incarnation converges — at most the one unflushed
    buffer needed redoing, never silently lost work."""
    events = make_events(3, 400)  # small env: one WAL record per txn
    plan = FaultPlan()
    account, store = build_store(seed, faults=plan)
    store.coalescer.batch_size = write_batch
    store.store(events[0])  # acknowledged before the fault arms
    plan.crash_at_call(crash_call)
    victim = events[1]
    try:
        store.store(victim)
    except ClientCrash:
        pass
    plan.disarm()

    # The grid scheduler resubmits the interrupted job on a fresh
    # incarnation sharing the routing handle, then keeps going.
    store.store(victim)
    store.store(events[2])
    settle(account, store)

    for event in events:
        assert account.s3.exists_authoritative(DATA_BUCKET, event.subject.name)
        assert provenance_oracle_item(account, event.subject.item_name) is not None
        result = store.read(event.subject.name)
        assert result.consistent
        assert result.data.md5() == event.data.md5()
    # The crashed incarnation may leave an orphaned *partial*
    # transaction's records in the WAL (incomplete forever; SQS
    # retention reaps them) — but never more than one transaction's
    # worth, and every sealed transaction's records are gone. A minimal
    # transaction is begin + pointer + provenance chunk + md5 + commit;
    # a partial one is missing at least the commit record.
    max_partial_records = 4
    assert (
        account.sqs.exact_message_count(store.queue_url) <= max_partial_records
    )


@settings(max_examples=25, deadline=None)
@given(
    write_batch=st.integers(2, 25),
    daemon_crash_call=st.integers(1, 15),
    seed=st.integers(0, 300),
)
def test_group_commit_daemon_crash_replay_idempotent(
    write_batch, daemon_crash_call, seed
):
    """Crash the *batching* daemon at an arbitrary apply point; replay
    converges to exactly the single-item reference outcome."""
    events = make_events(3, 900)

    ref_account, ref_store = build_store(seed)
    for event in events:
        ref_store.store(event)
    settle(ref_account, ref_store)

    account, store = build_store(seed)
    store.commit_daemon.faults.crash_at_call(daemon_crash_call)
    store.coalescer.batch_size = write_batch
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
        assert record is not None and ref_record is not None
        assert record.etag == ref_record.etag
        assert record.metadata_dict == ref_record.metadata_dict
        assert provenance_oracle_item(
            account, event.subject.item_name
        ) == provenance_oracle_item(ref_account, event.subject.item_name)
    assert account.sqs.exact_message_count(store.queue_url) == 0
