"""The commit daemon and cleaner daemon of architecture A3 (paper §4.3).

**Commit daemon** — periodically checks the WAL queue's approximate
length; once past a threshold it drains the queue, reassembles
transactions, and applies every *complete* one, strictly in log order,
in rounds of ``write_batch`` transactions:

1. COPY the temporary data object to its real name, stamping the nonce
   (COPY, not rename, so a replay after a crash can re-run — §4.3);
2. PUT any spilled >1 KB values to their overflow objects;
3. PutAttributes the provenance items (≤100 attributes per call);
4. DeleteMessage all of the transaction's WAL records;
5. DELETE the temporary object.

There is one apply path. At the default width 1 a round is a single
transaction and the steps above are the paper's protocol request for
request; at ``write_batch > 1`` steps 1–2 still run per transaction and
in order, while steps 3–4 are issued once for the round through the
batch APIs (BatchPutAttributes / BatchWriteItem per shard site,
DeleteMessageBatch) — the width picks the request shape, nothing else.

Every step is idempotent, because the daemon may crash after applying
but before deleting the messages, in which case the records are received
and applied *again* after the visibility timeout — S3 and SimpleDB
semantics make the replay harmless (§4.3's idempotency argument, which
the property-based tests hammer).

Transactions with a commit record but missing pieces keep being polled
for (SQS sampling can hide messages); transactions with no commit record
are ignored — the client died mid-log — and SQS's 4-day retention reaps
their records.

**Cleaner daemon** — temporary objects staged by clients that crashed
before committing are invisible to the commit daemon; the cleaner lists
``.pass/tmp/`` and deletes anything older than the 4-day window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aws.account import AWSAccount
from repro.aws.faults import FaultPlan, call_with_retries
from repro.core.base import (
    DATA_BUCKET,
    TEMP_PREFIX,
    data_key,
    put_provenance_items,
)
from repro.core.coalesce import resolve_write_batch
from repro.core.wal import AssembledTransaction, TransactionAssembler
from repro.errors import NoSuchKey, ReceiptHandleInvalid
from repro.deployment import positive_int
from repro.migration.handle import RouterHandle, as_handle, fresh_handle
from repro.passlib.records import ObjectRef
from repro.sharding import ShardRouter
from repro.units import (
    SECONDS_PER_DAY,
    SQS_MAX_BATCH_ENTRIES,
    SQS_RETENTION_SECONDS,
)

#: Messages asked for per ReceiveMessage — the SQS maximum.
RECEIVE_BATCH = 10
#: Bound on a commit phase's receive rounds and on :meth:`drain`'s
#: phases: a daemon that cannot make progress returns, it does not spin.
MAX_ROUNDS = 50
#: Consecutive empty receives that end a commit phase (doubled while a
#: committed transaction is still missing pieces — sampling hides them).
EMPTY_ROUNDS_TO_STOP = 4
#: How long received WAL records stay locked to this daemon (seconds).
VISIBILITY_TIMEOUT = 120.0


@dataclass
class CommitDaemonStats:
    """Counters exposed for tests, benchmarks, and examples.

    ``transactions_deferred`` counts a transaction when the apply loop
    *reaches* it and cannot apply it — its temp object is not visible
    yet (replica lag), or it sits behind an incomplete transaction. A
    replica-lag deferral ends the phase (strict order), so complete
    transactions after it are not reached and not counted in that run.
    The rule is the same at every ``write_batch``.
    """

    runs: int = 0
    transactions_applied: int = 0
    messages_received: int = 0
    duplicate_applies: int = 0
    incomplete_rounds: int = 0
    transactions_deferred: int = 0


class _DeferTransaction(Exception):
    """The transaction cannot apply yet (replica lag); retry next run.

    Raised when the temporary object a ``data`` record points at is not
    visible on any sampled replica — under eventual consistency the PUT
    may simply not have propagated. The transaction's messages stay on
    the queue (locked until the visibility timeout) and a later commit
    run retries; §4.3's 'eventually stored' argument in action.
    """


class CommitDaemon:
    """Drains the WAL queue and applies committed transactions."""

    def __init__(
        self,
        account: AWSAccount,
        queue_url: str,
        threshold: int = 10,
        router: ShardRouter | RouterHandle | None = None,
        write_batch: int | None = None,
    ):
        self.account = account
        self.queue_url = queue_url
        #: Routes each provenance item to its shard store — and, under a
        #: heterogeneous placement, to that shard's backend (SimpleDB or
        #: the DynamoDB-style table; both merge writes as sets, so the
        #: replay-idempotency argument above holds per backend). The
        #: daemon shares the store's :class:`RouterHandle`, so during a
        #: live migration its applies observe the same double-write
        #: window and per-shard cutovers as the client write path — a
        #: transaction logged before a migration and applied after it
        #: lands on the layout that is authoritative *at apply time*.
        #: The default single-shard router reproduces the paper's
        #: one-domain layout.
        self.routing = as_handle(router) if router is not None else fresh_handle()
        self.threshold = threshold
        #: The daemon's own crash points (``daemon.apply.*``).
        self.faults = FaultPlan()
        #: Group-commit width: how many complete transactions one apply
        #: round holds. At ``1`` (the default) a round is one
        #: transaction applied with single-item requests
        #: — the paper's protocol, byte-identical on the meter; above it
        #: the round's puts and message deletes use the batch APIs.
        self.write_batch = resolve_write_batch(write_batch)
        self.stats = CommitDaemonStats()
        #: Transactions applied, mapped to the simulated time they were
        #: marked — kept to recognise duplicate replays. Bounded: see
        #: :meth:`_mark_applied`.
        self._applied_txns: dict[str, float] = {}

    # -- the monitor loop entry points --------------------------------------

    def run_once(self, force: bool = False) -> int:
        """One monitor tick: commit if the queue looks full enough.

        Returns the number of transactions applied. ``force`` skips the
        threshold check (used at shutdown and in tests).
        """
        approx = self.account.sqs.approximate_number_of_messages(self.queue_url)
        if not force and approx < self.threshold:
            return 0
        return self.commit_phase()

    def drain(self) -> int:
        """Commit until the queue is (apparently) empty. Returns applies."""
        total = 0
        for _ in range(MAX_ROUNDS):
            applied = self.commit_phase()
            total += applied
            if applied == 0:
                break
        return total

    # -- the commit phase (§4.3 step 2) ------------------------------------------

    def commit_phase(self) -> int:
        """Receive, assemble, apply complete transactions."""
        self.stats.runs += 1
        assembler = TransactionAssembler()
        empty_rounds = 0
        rounds = 0
        # 2(a): receive as many messages as possible; keep going while
        # committed transactions are missing pieces (sampling can hide
        # messages from any single receive).
        while rounds < MAX_ROUNDS:
            rounds += 1
            batch = self.account.sqs.receive_message(
                self.queue_url,
                max_messages=RECEIVE_BATCH,
                visibility_timeout=VISIBILITY_TIMEOUT,
            )
            self.stats.messages_received += len(batch)
            for message in batch:
                assembler.add(message)
            if batch:
                empty_rounds = 0
                continue
            empty_rounds += 1
            if assembler.pending_commits():
                self.stats.incomplete_rounds += 1
                if empty_rounds >= EMPTY_ROUNDS_TO_STOP * 2:
                    break  # pieces are locked elsewhere; retry next run
                continue
            if empty_rounds >= EMPTY_ROUNDS_TO_STOP:
                break

        # Apply strictly in transaction order. A WAL must replay in
        # order: the paper's "the order in which we process the records
        # does not matter" holds across *different* objects, but two
        # committed versions of the same object must land oldest-first
        # or a deferred old transaction could later overwrite new data.
        # Because each client logs transactions sequentially, an
        # earlier-id transaction that is present but not yet applicable
        # blocks everything after it — unless it was logged by a *dead*
        # incarnation (older epoch, no commit record): that transaction
        # can never complete and retention will reap it.
        applied = 0
        blocking_id: str | None = None
        present = assembler.all_transactions()
        for index, txn in enumerate(present):
            if txn.is_complete:
                continue
            if not txn.committed and index < len(present) - 1:
                # The client logs transactions one at a time, so an
                # uncommitted transaction with a successor on the queue
                # was abandoned mid-log: it can never complete. Skip it
                # (retention reaps its records).
                continue
            blocking_id = txn.txn_id
            break
        # Rounds of ``write_batch`` transactions (a width-1 round is a
        # group of one). A deferral truncates its group and ends the
        # phase: nothing after the stuck transaction may jump the queue.
        complete = assembler.complete()
        eligible = [
            txn for txn in complete
            if blocking_id is None or txn.txn_id <= blocking_id
        ]
        for start in range(0, len(eligible), self.write_batch):
            group = eligible[start : start + self.write_batch]
            done = self._apply_group(group)
            applied += len(done)
            for txn in done:
                assembler.forget(txn.txn_id)
            if len(done) < len(group):
                self.stats.transactions_deferred += 1
                break
        else:
            # Reached the tail blocked behind the incomplete transaction.
            self.stats.transactions_deferred += len(complete) - len(eligible)
        # Hand every message we could not act on straight back to the
        # queue (visibility 0): uncommitted transactions may still be
        # mid-log, deferred ones retry next run — either way, holding
        # their locks would hide them from the next commit phase and
        # reopen the reordering window.
        self._release_unapplied(assembler)
        return applied

    def _release_unapplied(self, assembler: TransactionAssembler) -> None:
        for txn in assembler.all_transactions():
            for handle in txn.handles:
                try:
                    self.account.sqs.change_message_visibility(
                        self.queue_url, handle, 0.0
                    )
                except ReceiptHandleInvalid:
                    pass  # superseded by a later receive; nothing to release

    # -- applying transactions (§4.3 steps 2(b)-(d)) ---------------------------

    @staticmethod
    def _destination_key(txn: AssembledTransaction) -> str:
        """Real S3 key for a transaction's data object.

        The data record's subject is the serialiser's ``name:vNNNN``
        encoding, so it must be parsed with the serialiser's own
        inverse (:meth:`ObjectRef.decode`) rather than a hand-rolled
        ``rsplit(":v", 1)``: the two agree on every well-formed
        encoding — including pathological paths whose *name* contains
        or ends in a ``:v`` digit run — but on a corrupted record the
        hand parse silently mangles the name and COPYs over some other
        object's data, where decode raises and surfaces the corruption.
        """
        return data_key(ObjectRef.decode(txn.data["subject"]).name)

    def _mark_applied(self, txn_id: str) -> None:
        """Remember an applied transaction, bounded by SQS retention.

        Duplicate-replay detection only needs to remember a transaction
        while its WAL messages can still come back — and retention reaps
        any message older than :data:`SQS_RETENTION_SECONDS`, so entries
        marked more than a retention window ago can never be replayed
        and are pruned here. Without the horizon this set grows by one
        entry per transaction for the life of the daemon. Entries are
        inserted in clock order, so pruning pops from the front.
        """
        now = self.account.clock.now
        self._applied_txns[txn_id] = now
        horizon = now - SQS_RETENTION_SECONDS
        applied = self._applied_txns
        while applied:
            old_id = next(iter(applied))
            if applied[old_id] >= horizon:
                break
            del applied[old_id]

    def _apply_group(
        self, txns: list[AssembledTransaction]
    ) -> list[AssembledTransaction]:
        """Steps 2(b)-(d) for one round: a group of ≤ ``write_batch``
        transactions, a single transaction at width 1.

        The S3 side (COPY temp→real, overflow promotion) is
        per-transaction and in order at every width — COPY is
        last-writer-wins, so same-object transactions must copy
        oldest-first. Everything idempotent-by-merge is shared by the
        group: its provenance items go out in one routed put (set-merge
        on every backend, so ordering inside a group is immaterial) and
        its WAL messages are deleted together. The daemon's width picks
        only the request shape — PutAttributes/UpdateItem per item and
        DeleteMessage per handle at 1 (the paper's protocol, request for
        request), per-site BatchPutAttributes/BatchWriteItem and
        ≤10-handle DeleteMessageBatch above it, even for a trailing
        group of one. The §4.3 replay argument is made once: a crash
        anywhere in here leaves messages undeleted, the replay re-COPYs
        and re-merges, and ``_applied_txns`` (marked only after the
        whole group lands) counts the duplicates.

        Returns the transactions actually applied; a transaction whose
        temp object is not yet visible truncates the group there.
        """
        faults = self.faults
        ready: list[AssembledTransaction] = []
        for txn in txns:
            faults.check("daemon.apply.begin")
            if txn.txn_id in self._applied_txns:
                self.stats.duplicate_applies += 1
            assert txn.data is not None  # is_complete guarantees it
            try:
                self._copy_with_retry(
                    txn,
                    txn.data["temp"],
                    self._destination_key(txn),
                    metadata={"nonce": txn.data["nonce"]},
                )
                faults.check("daemon.apply.after_copy")
                for record in txn.overflow:
                    if record["t"] == "ovfl":
                        call_with_retries(
                            self.account.s3.put,
                            DATA_BUCKET,
                            record["key"],
                            record["value"],
                        )
                    else:  # ovfl_ptr: staged like data, promoted by COPY
                        self._copy_with_retry(txn, record["temp"], record["key"])
                faults.check("daemon.apply.after_overflow")
            except _DeferTransaction:
                break
            ready.append(txn)
        if not ready:
            return []

        # 2(c): store the group's provenance items, each on its shard's
        # store (the same routed put as the A2 client path).
        batched = self.write_batch > 1
        items = [item for txn in ready for item in txn.items()]
        put_provenance_items(self.account, self.routing, items, batched)
        faults.check("daemon.apply.after_put_attributes")

        # 2(d): delete the group's WAL messages. A handle superseded by
        # a later receive (an earlier crashed run) is harmless either
        # way: the batch API reports it as a per-entry failure, the
        # single call raises ReceiptHandleInvalid.
        handles = [handle for txn in ready for handle in txn.handles]
        if batched:
            for chunk_start in range(0, len(handles), SQS_MAX_BATCH_ENTRIES):
                self.account.sqs.delete_message_batch(
                    self.queue_url,
                    handles[chunk_start : chunk_start + SQS_MAX_BATCH_ENTRIES],
                )
        else:
            for handle in handles:
                try:
                    self.account.sqs.delete_message(self.queue_url, handle)
                except ReceiptHandleInvalid:
                    pass
        faults.check("daemon.apply.after_delete_messages")
        # ...and the temporary object(s).
        for txn in ready:
            self.account.s3.delete(DATA_BUCKET, txn.data["temp"])
            for record in txn.overflow:
                if record["t"] == "ovfl_ptr":
                    self.account.s3.delete(DATA_BUCKET, record["temp"])
        faults.check("daemon.apply.done")
        for txn in ready:
            self._mark_applied(txn.txn_id)
            self.stats.transactions_applied += 1
        return ready

    def _copy_with_retry(
        self,
        txn: AssembledTransaction,
        source: str,
        destination: str,
        metadata: dict[str, str] | None = None,
        attempts: int = 6,
    ) -> None:
        """COPY, riding out replica lag on the temp object.

        Each attempt samples a fresh replica; if none has the object the
        transaction is deferred to a later run. A replay whose temp was
        already deleted (this daemon applied the transaction, then
        crashed before clearing messages) is recognised via
        ``_applied_txns`` and treated as success — the data already sits
        at its real name because deletes happen last.
        """
        for _ in range(attempts):
            try:
                self.account.s3.copy(DATA_BUCKET, source, destination, metadata=metadata)
                return
            except NoSuchKey:
                continue
        if txn.txn_id in self._applied_txns:
            return
        if self.account.s3.exists_authoritative(DATA_BUCKET, source):
            raise _DeferTransaction(source)  # replica lag: retry next run
        # The temp object truly does not exist. If the destination already
        # holds this transaction's data (a replay by a *restarted* daemon
        # whose _applied_txns memory was lost), the transaction is done.
        destination_record = self.account.s3.authoritative_record(
            DATA_BUCKET, destination
        )
        if (
            metadata is not None
            and destination_record is not None
            and destination_record.metadata_dict.get("nonce") == metadata.get("nonce")
        ):
            return
        if metadata is None and destination_record is not None:
            return
        raise _DeferTransaction(source)


@dataclass
class CleanerStats:
    runs: int = 0
    objects_examined: int = 0
    objects_removed: int = 0


class CleanerDaemon:
    """Reaps temporary objects abandoned by uncommitted transactions.

    §4.3: "the temporary objects that have been stored on S3 must be
    explicitly removed if they belong to uncommitted transactions. We
    use a cleaner daemon to remove temporary objects that have not been
    accessed for 4 days."
    """

    def __init__(
        self,
        account: AWSAccount,
        max_age_seconds: float = 4 * SECONDS_PER_DAY,
        page_size: int = 1000,
    ):
        self.account = account
        self.max_age = max_age_seconds
        #: LIST page size (``max_keys``) — tests shrink it to force
        #: multi-page scans.
        self.page_size = positive_int(page_size, "cleaner page size")
        self.stats = CleanerStats()

    def run_once(self) -> list[str]:
        """Scan ``.pass/tmp/`` and delete objects past the age threshold."""
        self.stats.runs += 1
        removed = []
        marker: str | None = None
        while True:
            # Re-read the clock each page: a long scan takes time, and
            # an object crossing the age threshold mid-scan must be
            # judged against the time its page is actually examined.
            # Snapshotting ``now`` once before the loop under-deletes
            # near the boundary on exactly the large backlogs the
            # cleaner exists for.
            now = self.account.clock.now
            page = self.account.s3.list_keys(
                DATA_BUCKET,
                prefix=TEMP_PREFIX,
                marker=marker,
                max_keys=self.page_size,
            )
            for key in page.keys:
                self.stats.objects_examined += 1
                try:
                    head = self.account.s3.head(DATA_BUCKET, key)
                except NoSuchKey:
                    continue  # deleted since the LIST snapshot
                if now - head.last_modified >= self.max_age:
                    self.account.s3.delete(DATA_BUCKET, key)
                    removed.append(key)
            if not page.is_truncated:
                break
            marker = page.next_marker
        self.stats.objects_removed += len(removed)
        return removed
