#!/usr/bin/env python3
"""Crash a client mid-upload in each architecture and watch the aftermath.

This is Table 1's atomicity column as a narrative:

* **S3 standalone** — data and provenance travel in one PUT; the crash
  leaves either everything or nothing.
* **S3+SimpleDB** — provenance goes first (§4.2 protocol); a crash
  between the two calls leaves *orphan provenance*, fixable only by the
  paper's "inelegant" full-domain scavenger scan.
* **S3+SimpleDB+SQS** — the write-ahead log: an uncommitted transaction
  is simply ignored by the commit daemon, and the cleaner reaps the
  staged temp object after the 4-day window. Atomic, no scan.

    python examples/crash_recovery.py
"""

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.faults import FaultPlan
from repro.core.base import DATA_BUCKET
from repro.core.s3_simpledb import S3SimpleDB
from repro.core.s3_simpledb_sqs import S3SimpleDBSQS
from repro.core.s3_standalone import S3Standalone
from repro.errors import ClientCrash
from repro.passlib.capture import PassSystem
from repro.units import SECONDS_PER_DAY


def make_event():
    pas = PassSystem(workload="crashdemo")
    with pas.process("simulate", argv="--steps 1e9", env={"NODE": "c-3"}) as proc:
        proc.write("exp/run42/output.dat", b"irreplaceable results")
        return proc.close("exp/run42/output.dat")


def aftermath(store, subject) -> str:
    data = store.account.s3.exists_authoritative(DATA_BUCKET, subject.name)
    prov = subject in store.stored_provenance()
    return f"data stored: {data}; provenance stored: {prov}"


def crash_standalone() -> None:
    print("=== S3 standalone: crash right before the single PUT ===")
    account = AWSAccount(seed=1, consistency=ConsistencyConfig.strong())
    plan = FaultPlan().crash_at("a1.store.before_put")
    store = S3Standalone(account, faults=plan)
    event = make_event()
    try:
        store.store(event)
    except ClientCrash as crash:
        print(f"client crashed at {crash.point!r}")
    print(aftermath(store, event.subject))
    print("single-PUT atomicity: nothing half-written\n")


def crash_simpledb() -> None:
    print("=== S3+SimpleDB: crash between provenance and data (§4.2) ===")
    account = AWSAccount(seed=2, consistency=ConsistencyConfig.strong())
    plan = FaultPlan().crash_at("a2.store.before_data_put")
    store = S3SimpleDB(account, faults=plan)
    event = make_event()
    try:
        store.store(event)
    except ClientCrash as crash:
        print(f"client crashed at {crash.point!r}")
    print(aftermath(store, event.subject))
    print("-> ORPHAN PROVENANCE: the read-correctness hole of Table 1")

    scavenger = S3SimpleDB(account)
    before = account.meter.snapshot()
    removed = scavenger.recover_orphans()
    cost = account.meter.snapshot() - before
    print(
        f"scavenger scan removed {removed} using "
        f"{cost.request_count()} requests (a full-domain scan — "
        f'the paper calls this "an inelegant solution")\n'
    )


def crash_wal() -> None:
    print("=== S3+SimpleDB+SQS: crash mid-log; the WAL absorbs it ===")
    account = AWSAccount(seed=3, consistency=ConsistencyConfig.strong())
    plan = FaultPlan().crash_at("a3.log.before_commit")
    store = S3SimpleDBSQS(account, faults=plan, commit_threshold=100)
    event = make_event()
    try:
        store.store(event)
    except ClientCrash as crash:
        print(f"client crashed at {crash.point!r}")
    store.restart()
    store.pump()
    print(aftermath(store, event.subject))
    print("-> uncommitted transaction ignored: still atomic")

    temp_keys = [
        key
        for key in account.s3.authoritative_keys(DATA_BUCKET)
        if key.startswith(".pass/tmp/")
    ]
    print(f"staged temp objects awaiting cleanup: {len(temp_keys)}")
    account.clock.advance(4 * SECONDS_PER_DAY + 1)
    removed = store.cleaner_daemon.run_once()
    account.sqs.receive_message(store.queue_url, max_messages=10)
    print(
        f"after the 4-day window: cleaner removed {len(removed)} temp "
        f"object(s); WAL records expired "
        f"(queue now holds {account.sqs.exact_message_count(store.queue_url)})"
    )
    # And a healthy retry of the same upload goes straight through.
    retry_event = make_event()
    store.faults.disarm()
    store.store(retry_event)
    store.pump()
    result = store.read(retry_event.subject.name)
    print(f"re-upload after restart: consistent={result.consistent}")


def main() -> None:
    crash_standalone()
    crash_simpledb()
    crash_wal()


if __name__ == "__main__":
    main()
