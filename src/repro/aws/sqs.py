"""Simulated Amazon SQS (January 2009 semantics).

Implements the distributed-queue behaviours the A3 write-ahead-log
protocol depends on (paper §2.3):

* queues identified by URL; ``SendMessage`` with an **8 KB** body limit
  (which is why large data goes to a temporary S3 object with only a
  pointer on the queue);
* messages are spread across internal **hosts**; ``ReceiveMessage``
  *samples* a subset of hosts and returns at most 10 visible messages
  from them — so a single receive can miss messages that exist, and the
  commit daemon must keep receiving until a transaction is complete;
* a **visibility timeout**: delivered messages are hidden from other
  consumers until the timeout lapses or the consumer deletes them — SQS's
  at-least-once contract and de-facto distributed lock (paper footnote 2);
* ``DeleteMessage`` takes the receipt handle from the delivering receive;
* ``GetQueueAttributes:ApproximateNumberOfMessages`` estimates the queue
  length from a host sample (approximate under eventual consistency);
* messages older than **4 days** are deleted automatically — the WAL
  garbage-collection window §4.3 relies on;
* best-effort ordering: no FIFO guarantee whatsoever.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from repro import errors, units
from repro.aws import billing
from repro.aws.faults import RequestFaults
from repro.clock import SimClock

DEFAULT_VISIBILITY_TIMEOUT = 30.0
DEFAULT_HOST_COUNT = 8
#: Fraction of hosts a ReceiveMessage samples.
DEFAULT_SAMPLE_FRACTION = 0.75


@dataclass
class _StoredMessage:
    """Internal queue entry (mutable: visibility changes on receive);
    ``nbytes`` is the body's UTF-8 size, fixed at send."""

    message_id: str
    body: str
    nbytes: int
    enqueued_at: float
    host: int
    visible_at: float = 0.0
    receive_count: int = 0
    receipt_serial: int = 0  # invalidates older receipt handles


@dataclass(frozen=True)
class ReceivedMessage:
    """A message as handed to a consumer."""

    message_id: str
    body: str
    receipt_handle: str
    receive_count: int
    enqueued_at: float


@dataclass
class _Queue:
    url: str
    name: str
    visibility_timeout: float
    hosts: list[dict[str, _StoredMessage]] = field(default_factory=list)
    #: A lower bound on the enqueue time of every message held: the
    #: expiry walk runs only once it falls behind the retention cutoff.
    earliest: float = float("inf")


class SQSService:
    """The simulated SQS endpoint for one AWS account."""

    def __init__(
        self,
        clock: SimClock,
        rng: random.Random,
        meter: billing.Meter,
        faults: RequestFaults | None = None,
        host_count: int = DEFAULT_HOST_COUNT,
        sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
        retention_seconds: float = units.SQS_RETENTION_SECONDS,
    ):
        if host_count < 1:
            raise ValueError(f"host_count must be >= 1, got {host_count}")
        if not (0.0 < sample_fraction <= 1.0):
            raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
        self._clock = clock
        self._rng = rng
        self._meter = meter
        self._faults = faults or RequestFaults()
        self._host_count = host_count
        self._sample_fraction = sample_fraction
        self._retention = retention_seconds
        self._queues: dict[str, _Queue] = {}
        self._message_ids = itertools.count(1)
        self._receipt_serials = itertools.count(1)
        self.messages_expired = 0

    # -- queue management ---------------------------------------------------

    def create_queue(
        self, name: str, visibility_timeout: float = DEFAULT_VISIBILITY_TIMEOUT
    ) -> str:
        """Create a queue and return its URL. Idempotent for same timeout."""
        self._request("CreateQueue")
        url = f"sqs://queues/{name}"
        existing = self._queues.get(url)
        if existing is not None:
            if existing.visibility_timeout != visibility_timeout:
                raise errors.QueueNameExists(
                    f"queue {name!r} exists with a different visibility timeout"
                )
            return url
        self._queues[url] = _Queue(
            url=url,
            name=name,
            visibility_timeout=visibility_timeout,
            hosts=[{} for _ in range(self._host_count)],
        )
        return url

    def delete_queue(self, url: str) -> None:
        self._request("DeleteQueue")
        queue = self._queues.pop(url, None)
        if queue is not None:
            freed = sum(m.nbytes for host in queue.hosts for m in host.values())
            self._meter.adjust_stored(billing.SQS, -freed)

    def list_queues(self) -> list[str]:
        self._request("ListQueues")
        return sorted(self._queues)

    def _queue(self, url: str) -> _Queue:
        queue = self._queues.get(url)
        if queue is None:
            raise errors.NoSuchQueue(url)
        self._expire_old_messages(queue)
        return queue

    # -- messaging -------------------------------------------------------------

    def send_message(self, url: str, body: str) -> str:
        """Enqueue a message (≤ 8 KB, Unicode text) on a random host."""
        self._request("SendMessage")
        return self._enqueue(url, [body])[0]

    def send_message_batch(self, url: str, bodies: list[str]) -> list[str]:
        """Enqueue up to 10 messages in one metered round trip.

        Entries are validated before anything enqueues (all-or-nothing
        for malformed input), then each body lands exactly as a single
        :meth:`send_message` would — its own message id, its own random
        host. Returns the message ids in entry order.
        """
        self._request("SendMessageBatch")
        self._check_batch_entries("SendMessageBatch", bodies)
        return self._enqueue(url, bodies)

    def _enqueue(self, url: str, bodies: list[str]) -> list[str]:
        """Validate every body, then land each on its own random host,
        sized once: the UTF-8 length the 8 KB check takes is the
        ``nbytes`` every later billing site reads."""
        sizes = []
        for body in bodies:
            if not isinstance(body, str):
                raise errors.InvalidMessageContents(
                    f"SQS bodies are Unicode text, got {type(body).__name__}"
                )
            nbytes = len(body.encode("utf-8"))
            if nbytes > units.SQS_MAX_MESSAGE_SIZE:
                raise errors.MessageTooLong(
                    f"{nbytes} bytes exceeds the "
                    f"{units.SQS_MAX_MESSAGE_SIZE} byte message limit"
                )
            sizes.append(nbytes)
        queue = self._queue(url)
        message_ids = []
        for body, nbytes in zip(bodies, sizes):
            message = _StoredMessage(
                message_id=f"msg-{next(self._message_ids):08d}",
                body=body,
                nbytes=nbytes,
                enqueued_at=self._clock.now,
                host=self._rng.randrange(len(queue.hosts)),
                visible_at=self._clock.now,
            )
            queue.hosts[message.host][message.message_id] = message
            message_ids.append(message.message_id)
        queue.earliest = min(queue.earliest, self._clock.now)
        total = sum(sizes)
        self._meter.record_transfer_in(billing.SQS, total)
        self._meter.adjust_stored(billing.SQS, total)
        return message_ids

    def receive_message(
        self,
        url: str,
        max_messages: int = 1,
        visibility_timeout: float | None = None,
    ) -> list[ReceivedMessage]:
        """Receive up to 10 visible messages from a *sample* of hosts.

        Messages returned become invisible to other consumers until the
        visibility timeout expires; consumers must DeleteMessage before
        then or the message reappears (at-least-once delivery).
        """
        self._request("ReceiveMessage")
        if not (1 <= max_messages <= units.SQS_MAX_RECEIVE_BATCH):
            raise ValueError(
                f"max_messages must be in [1, {units.SQS_MAX_RECEIVE_BATCH}], "
                f"got {max_messages}"
            )
        queue = self._queue(url)
        timeout = (
            queue.visibility_timeout if visibility_timeout is None else visibility_timeout
        )
        now = self._clock.now
        delivered: list[ReceivedMessage] = []
        delivered_bytes = 0
        for host_index in self._sample_hosts(len(queue.hosts)):
            # Random within-host order too: a deterministic scan plus the
            # 10-message cap would permanently starve late entries.
            candidates = list(queue.hosts[host_index].values())
            self._rng.shuffle(candidates)
            for message in candidates:
                if len(delivered) >= max_messages:
                    break
                if message.visible_at > now:
                    continue
                message.visible_at = now + timeout
                message.receive_count += 1
                message.receipt_serial = next(self._receipt_serials)
                handle = f"{message.message_id}#{message.receipt_serial}"
                delivered_bytes += message.nbytes
                delivered.append(
                    ReceivedMessage(
                        message_id=message.message_id,
                        body=message.body,
                        receipt_handle=handle,
                        receive_count=message.receive_count,
                        enqueued_at=message.enqueued_at,
                    )
                )
            if len(delivered) >= max_messages:
                break
        self._meter.record_transfer_out(billing.SQS, delivered_bytes)
        return delivered

    def delete_message(self, url: str, receipt_handle: str) -> None:
        """Delete a message by receipt handle.

        Deleting an already-deleted message succeeds (idempotent); a
        handle superseded by a later receive is rejected, modelling the
        lock-like semantics of the visibility timeout.
        """
        self._request("DeleteMessage")
        queue = self._queue(url)
        self._delete_by_handle(queue, receipt_handle)

    def delete_message_batch(self, url: str, receipt_handles: list[str]) -> list[str]:
        """Delete up to 10 messages in one metered round trip.

        Mirrors the real DeleteMessageBatch partial-success contract:
        entries succeed or fail independently. A malformed or superseded
        handle fails its entry; an already-deleted message succeeds,
        exactly as in :meth:`delete_message`. Returns the failed handles
        (empty on full success) instead of raising.
        """
        self._request("DeleteMessageBatch")
        self._check_batch_entries("DeleteMessageBatch", receipt_handles)
        queue = self._queue(url)
        failed = []
        for receipt_handle in receipt_handles:
            try:
                self._delete_by_handle(queue, receipt_handle)
            except errors.ReceiptHandleInvalid:
                failed.append(receipt_handle)
        return failed

    def _delete_by_handle(self, queue: _Queue, receipt_handle: str) -> None:
        try:
            message_id, serial_text = receipt_handle.rsplit("#", 1)
            serial = int(serial_text)
        except ValueError:
            raise errors.ReceiptHandleInvalid(receipt_handle) from None
        for host in queue.hosts:
            message = host.get(message_id)
            if message is None:
                continue
            if message.receipt_serial != serial:
                raise errors.ReceiptHandleInvalid(
                    f"{receipt_handle}: superseded by a newer receive"
                )
            del host[message_id]
            self._meter.adjust_stored(billing.SQS, -message.nbytes)
            return
        # Unknown message id: already deleted; SQS treats this as success.

    def change_message_visibility(
        self, url: str, receipt_handle: str, visibility_timeout: float
    ) -> None:
        """Adjust an in-flight message's visibility (real SQS API).

        A consumer that received a message but cannot process it yet can
        release it early (timeout 0) instead of holding the lock until
        the original timeout — the commit daemon uses this to hand back
        transactions it must defer.
        """
        self._request("ChangeMessageVisibility")
        queue = self._queue(url)
        try:
            message_id, serial_text = receipt_handle.rsplit("#", 1)
            serial = int(serial_text)
        except ValueError:
            raise errors.ReceiptHandleInvalid(receipt_handle) from None
        for host in queue.hosts:
            message = host.get(message_id)
            if message is None:
                continue
            if message.receipt_serial != serial:
                raise errors.ReceiptHandleInvalid(
                    f"{receipt_handle}: superseded by a newer receive"
                )
            message.visible_at = self._clock.now + max(0.0, visibility_timeout)
            return
        # Already deleted: treated as success, like DeleteMessage.

    def approximate_number_of_messages(self, url: str) -> int:
        """GetQueueAttributes:ApproximateNumberOfMessages.

        Counts visible messages on a host sample and scales up — an
        *approximation*, exactly as §2.3 warns. The commit daemon uses
        this only as a trigger threshold, never for correctness.
        """
        self._request("GetQueueAttributes")
        queue = self._queue(url)
        now = self._clock.now
        sampled = self._sample_hosts(len(queue.hosts))
        visible = sum(
            1
            for host_index in sampled
            for message in queue.hosts[host_index].values()
            if message.visible_at <= now
        )
        if not sampled:
            return 0
        return round(visible * len(queue.hosts) / len(sampled))

    # -- oracle helpers (tests only) ----------------------------------------------

    def exact_message_count(self, url: str) -> int:
        """True total (visible + in-flight) message count; test oracle."""
        queue = self._queue(url)
        return sum(len(host) for host in queue.hosts)

    def exact_visible_count(self, url: str) -> int:
        queue = self._queue(url)
        now = self._clock.now
        return sum(
            1
            for host in queue.hosts
            for message in host.values()
            if message.visible_at <= now
        )

    # -- internals -------------------------------------------------------------------

    @staticmethod
    def _check_batch_entries(op: str, entries: list) -> None:
        if not entries:
            raise errors.EmptyBatchRequest(f"{op} requires entries")
        if len(entries) > units.SQS_MAX_BATCH_ENTRIES:
            raise errors.TooManyEntriesInBatchRequest(
                f"{len(entries)} entries in one {op} (limit "
                f"{units.SQS_MAX_BATCH_ENTRIES})"
            )

    def _sample_hosts(self, n_hosts: int) -> list[int]:
        # Random order as well as random membership: a fixed scan order
        # plus the 10-message batch limit would starve messages parked
        # on late hosts.
        k = max(1, round(n_hosts * self._sample_fraction))
        return self._rng.sample(range(n_hosts), k)

    def _expire_old_messages(self, queue: _Queue) -> None:
        if self._retention <= 0:
            return
        cutoff = self._clock.now - self._retention
        if queue.earliest >= cutoff:
            return  # nothing held is old enough to expire
        # A host dict is in enqueue order and the clock never runs
        # backwards, so the expired messages are a prefix of each host
        # and the first survivor is the host's earliest.
        earliest = float("inf")
        for host in queue.hosts:
            while host:
                message_id, message = next(iter(host.items()))
                if message.enqueued_at >= cutoff:
                    earliest = min(earliest, message.enqueued_at)
                    break
                del host[message_id]
                self._meter.adjust_stored(billing.SQS, -message.nbytes)
                self.messages_expired += 1
        queue.earliest = earliest

    def _request(self, op: str) -> None:
        self._faults.before_request(billing.SQS, op)
        self._meter.record_request(billing.SQS, op)
