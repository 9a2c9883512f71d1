"""Architecture A3 — S3 + SimpleDB + SQS (paper §4.3, Figure 3).

Identical to A2 at rest — data in S3, provenance items in SimpleDB,
MD5‖nonce consistency — but the *store path* goes through a per-client
SQS queue used as a write-ahead log, restoring the atomicity A2 lost
(the technique is inspired by Brantner et al.'s "Building a database on
S3", SIGMOD '08):

* **log phase** (the client, on file close): open a transaction; stage
  the data as a temporary S3 object (messages max out at 8 KB); log the
  begin record (with the transaction's record count), the data pointer
  record, the provenance records in ≤8 KB chunks (md5‖nonce included),
  and finally the commit record;
* **commit phase** (the :class:`~repro.core.daemons.CommitDaemon`):
  triggered by the queue's approximate length; reassembles transactions
  and pushes committed ones to S3/SimpleDB idempotently.

A client crash *anywhere* in the log phase leaves an uncommitted
transaction the daemon ignores and retention reaps — no orphan
provenance, no orphan data, hence the full row of check marks in
Table 1. The cost is the extra round trip through SQS: every byte of
provenance is stored once in SQS and read back once (the ``2 × S_SQS``
term in Table 2) and every object costs a temporary PUT plus a COPY.
"""

from __future__ import annotations

import itertools

#: Distinguishes client incarnations: a restarted client must not reuse
#: transaction ids, or its fresh records would merge with a dead
#: incarnation's leftovers on the queue.
_EPOCHS = itertools.count(1)

from repro.aws.account import AWSAccount
from repro.aws.faults import NO_FAULTS, FaultPlan, call_with_retries
from repro.core.base import (
    Component,
    DATA_BUCKET,
    Flow,
    RetryPolicy,
)
from repro.core.daemons import CleanerDaemon, CommitDaemon
from repro.core.s3_simpledb import S3SimpleDB
from repro.core.wal import build_wal_bundle
from repro.passlib.records import FlushEvent
from repro.units import SQS_MAX_BATCH_ENTRIES


class S3SimpleDBSQS(S3SimpleDB):
    """A2 plus an SQS write-ahead log, commit daemon, and cleaner."""

    name = "s3+simpledb+sqs"

    def __init__(
        self,
        account: AWSAccount,
        faults: FaultPlan = NO_FAULTS,
        retry: RetryPolicy | None = None,
        client_id: str = "client-0",
        commit_threshold: int = 10,
        daemon_faults: FaultPlan = NO_FAULTS,
        shards: int = 1,
        router=None,
        write_batch: int | None = None,
    ):
        super().__init__(
            account, faults, retry, shards=shards, router=router,
            write_batch=write_batch,
        )
        self.client_id = client_id
        self.epoch = next(_EPOCHS)
        self.queue_url: str | None = None
        self._txn_counter = itertools.count(1)
        self._commit_threshold = commit_threshold
        self._daemon_faults = daemon_faults
        self._commit_daemon: CommitDaemon | None = None
        self._cleaner: CleanerDaemon | None = None

    def _do_provision(self) -> None:
        super()._do_provision()
        self.queue_url = self.account.sqs.create_queue(f"wal-{self.client_id}")

    # -- daemons ------------------------------------------------------------

    @property
    def commit_daemon(self) -> CommitDaemon:
        """The commit daemon bound to this client's WAL queue."""
        self.provision()
        if self._commit_daemon is None:
            self._commit_daemon = CommitDaemon(
                self.account,
                self.queue_url,
                threshold=self._commit_threshold,
                faults=self._daemon_faults,
                router=self.routing,
                write_batch=self.coalescer.batch_size,
            )
        return self._commit_daemon

    @property
    def cleaner_daemon(self) -> CleanerDaemon:
        self.provision()
        if self._cleaner is None:
            self._cleaner = CleanerDaemon(self.account)
        return self._cleaner

    def restart_commit_daemon(self, faults: FaultPlan = NO_FAULTS) -> CommitDaemon:
        """Model a daemon crash: a fresh instance with no in-memory state."""
        self.provision()
        self._commit_daemon = CommitDaemon(
            self.account,
            self.queue_url,
            threshold=self._commit_threshold,
            faults=faults,
            router=self.routing,
            write_batch=self.coalescer.batch_size,
        )
        return self._commit_daemon

    def pump(self, force: bool = True) -> int:
        """Run the commit daemon until the WAL drains; returns applies."""
        daemon = self.commit_daemon
        if force:
            return daemon.drain()
        return daemon.run_once()

    # -- store protocol: the log phase (§4.3 step 1) ---------------------------

    def _do_store(self, event: FlushEvent) -> None:
        faults = self.faults
        faults.check("a3.log.begin")
        # 1(b): allocate the transaction and compute its record count.
        # Ids order lexicographically by (incarnation, sequence): the
        # commit daemon replays the WAL in this order, which keeps
        # successive versions of the same object monotonic.
        txn_id = f"{self.client_id}.e{self.epoch:05d}-{next(self._txn_counter):06d}"
        bundle = build_wal_bundle(event, txn_id)
        call_with_retries(
            self.account.sqs.send_message, self.queue_url, bundle.messages[0]
        )
        faults.check("a3.log.after_begin_record")
        # 1(c): stage the data (and any oversized values) as temp objects.
        for key, content in bundle.temp_puts:
            call_with_retries(self.account.s3.put, DATA_BUCKET, key, content)
            faults.check("a3.log.after_temp_put")
        # 1(c)-1(d): the pointer record, provenance chunks, md5 record.
        # With write_batch > 1 the middle records travel in
        # SendMessageBatch calls (≤10 entries): a crash between calls
        # loses at most one unsent chunk — exactly the exposure of a
        # crash in the per-message loop, since an uncommitted
        # transaction is invisible to the daemon either way. The begin
        # and commit records stay single sends: begin precedes the temp
        # puts, and commit alone seals the transaction.
        middle = bundle.messages[1:-1]
        batch = self.coalescer.batch_size
        if batch > 1 and middle:
            chunk = min(batch, SQS_MAX_BATCH_ENTRIES)
            for start in range(0, len(middle), chunk):
                call_with_retries(
                    self.account.sqs.send_message_batch,
                    self.queue_url,
                    middle[start : start + chunk],
                )
                faults.check("a3.log.after_record")
        else:
            for body in middle:
                call_with_retries(self.account.sqs.send_message, self.queue_url, body)
                faults.check("a3.log.after_record")
        # 1(e): the commit record seals the transaction.
        faults.check("a3.log.before_commit")
        call_with_retries(
            self.account.sqs.send_message, self.queue_url, bundle.messages[-1]
        )
        faults.check("a3.log.done")
        # Opportunistic monitor tick, as the daemon would do on its timer.
        self.commit_daemon.run_once()

    # -- diagram (Figure 3) -----------------------------------------------------------

    def components(self) -> list[Component]:
        return [
            Component("application", "issues read/write/close system calls"),
            Component("pass", "PASS capture layer + local cache"),
            Component("sqs", "Amazon SQS: per-client WAL queue"),
            Component("commit-daemon", "drains WAL, applies transactions"),
            Component("cleaner-daemon", "reaps abandoned temp objects"),
            Component("s3", "Amazon S3: data objects + temp staging"),
            Component("simpledb", "Amazon SimpleDB: provenance items"),
        ]

    def flows(self) -> list[Flow]:
        return [
            Flow("application", "pass", "system calls"),
            Flow("pass", "s3", "PUT temp object"),
            Flow("pass", "sqs", "log records + commit (txn-tagged)"),
            Flow("sqs", "commit-daemon", "ReceiveMessage (sampled)"),
            Flow("commit-daemon", "s3", "COPY temp->real, DELETE temp"),
            Flow("commit-daemon", "simpledb", "PutAttributes provenance"),
            Flow("commit-daemon", "sqs", "DeleteMessage"),
            Flow("cleaner-daemon", "s3", "LIST/DELETE .pass/tmp/ > 4 days"),
            Flow("simpledb", "pass", "Query / QueryWithAttributes"),
            Flow("s3", "pass", "GET data"),
        ]
