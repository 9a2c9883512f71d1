"""Write-ahead-log record formats for architecture A3 (paper §4.3).

Each client owns one SQS queue used as a WAL. A file close becomes a
**transaction**: the client logs records tagged with the transaction id,
then a commit record. Record types (JSON bodies, ≤8 KB each):

``begin``
    opens transaction *txn*; carries ``n``, the number of records that
    follow (commit included), so the commit daemon can tell when it has
    assembled the whole transaction.
``data``
    the pointer record for the file's bytes: the data itself was staged
    as a *temporary S3 object* (bodies are limited to 8 KB, and chunking
    a large file through the queue would be "quite inefficient" — §4.3),
    plus the nonce and data digest used for the consistency record.
``prov``
    a ≤8 KB chunk of provenance: one or more (item name, attributes)
    groups destined for SimpleDB. The md5‖nonce consistency attributes
    ride inside the file's item, satisfying §4.3 step 1(d).
``ovfl``
    a spilled >1 KB record value destined for its own S3 object; values
    too large even for a message are staged like data (``ovfl_ptr``).
``commit``
    seals the transaction; the commit daemon ignores transactions that
    never got one (the client crashed mid-log), and SQS's 4-day
    retention garbage-collects their records.

Every record body is dumped exactly once (``wire_dumps`` output is
ASCII, so ``len`` is its byte size). An item's attributes fit one
``prov`` record iff ``len(whole) + 1 <= MESSAGE_BUDGET``, because
``len(whole) = base_overhead + Σ entry_size − 1`` (an entry's size counts
its separating comma) — the greedy per-entry split's own no-cut condition.

:class:`TransactionAssembler` reconstructs transactions from the
unordered, sampled, at-least-once stream ``ReceiveMessage`` yields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.aws.sqs import ReceivedMessage
from repro.core.base import temp_key
from repro.passlib.records import FlushEvent
from repro.passlib.serializer import SdbItemPayload, to_simpledb_items, wire_dumps
from repro.units import SQS_MAX_MESSAGE_SIZE

#: Leave headroom under the 8 KB SQS limit for the JSON envelope.
MESSAGE_BUDGET = SQS_MAX_MESSAGE_SIZE - 256


@dataclass(frozen=True)
class WalBundle:
    """Everything the log phase must do for one flush event."""

    txn_id: str
    #: (key, content) pairs the *client* stages on S3 before logging.
    temp_puts: tuple[tuple[str, object], ...]
    #: Message bodies, in log order; messages[0] is begin, [-1] is commit.
    messages: tuple[str, ...]

    @property
    def record_count(self) -> int:
        """Records after begin (commit included) — the begin ``n`` field."""
        return len(self.messages) - 1


def build_wal_bundle(event: FlushEvent, txn_id: str) -> WalBundle:
    """Serialise a flush event into its WAL transaction."""
    payloads: list[SdbItemPayload] = to_simpledb_items(event)
    temp_data_key = temp_key(txn_id, event.subject.name)
    temp_puts: list[tuple[str, object]] = [(temp_data_key, event.data)]

    bodies: list[str] = [
        wire_dumps(
            {
                "t": "data",
                "txn": txn_id,
                "subject": event.subject.encode(),
                "temp": temp_data_key,
                "nonce": event.nonce,
                "md5": event.data.md5(),
                "size": event.data.size,
            }
        )
    ]
    for payload in payloads:
        for overflow in payload.overflow:
            body = wire_dumps(
                {"t": "ovfl", "txn": txn_id, "key": overflow.key, "value": overflow.value}
            )
            if len(body) > MESSAGE_BUDGET:
                staged = temp_key(txn_id, overflow.key)
                temp_puts.append((staged, overflow.value))
                body = wire_dumps(
                    {"t": "ovfl_ptr", "txn": txn_id, "key": overflow.key, "temp": staged}
                )
            bodies.append(body)
        bodies.extend(prov_records(txn_id, payload))
    bodies.append(wire_dumps({"t": "commit", "txn": txn_id}))

    begin = wire_dumps({"t": "begin", "txn": txn_id, "n": len(bodies)})
    return WalBundle(
        txn_id=txn_id, temp_puts=tuple(temp_puts), messages=(begin, *bodies)
    )


def prov_records(txn_id: str, payload: SdbItemPayload) -> list[str]:
    """One item's attributes as ≤8 KB ``prov`` record bodies (§4.3 1(d))."""

    def body(attrs) -> str:
        return wire_dumps(
            {"t": "prov", "txn": txn_id, "item": payload.item_name, "attrs": attrs}
        )

    if not payload.attributes:
        return []
    whole = body(payload.attributes)
    if len(whole) + 1 <= MESSAGE_BUDGET:
        return [whole]
    # Too big for one message: cut greedily before the entry that would
    # overflow (an entry larger than the budget still gets its own record).
    chunks: list[str] = []
    current: list[tuple[str, str]] = []
    current_size = 0
    base_overhead = len(body([]))
    for entry in payload.attributes:
        entry_size = len(wire_dumps(entry)) + 1
        if current and base_overhead + current_size + entry_size > MESSAGE_BUDGET:
            chunks.append(body(current))
            current, current_size = [], 0
        current.append(entry)
        current_size += entry_size
    chunks.append(body(current))
    return chunks


def parse_record(body: str) -> dict:
    """Decode one WAL message body."""
    record = json.loads(body)
    if "t" not in record or "txn" not in record:
        raise ValueError(f"malformed WAL record: {body[:80]!r}")
    return record


@dataclass
class AssembledTransaction:
    """A transaction as reconstructed by the commit daemon."""

    txn_id: str
    expected_records: int | None = None
    data: dict | None = None
    prov: list[dict] = field(default_factory=list)
    overflow: list[dict] = field(default_factory=list)
    committed: bool = False
    #: Receipt handles of every message seen for this transaction.
    handles: list[str] = field(default_factory=list)
    #: Message ids already folded in (dedup under at-least-once delivery).
    seen_message_ids: set[str] = field(default_factory=set)

    @property
    def records_seen(self) -> int:
        return (
            (1 if self.data is not None else 0)
            + len(self.prov)
            + len(self.overflow)
            + (1 if self.committed else 0)
        )

    @property
    def is_complete(self) -> bool:
        """All records present: begin seen, commit seen, count matches."""
        return (
            self.committed
            and self.expected_records is not None
            and self.records_seen >= self.expected_records
        )

    def items(self) -> list[tuple[str, list[tuple[str, str]]]]:
        """Reassemble (item name, attributes) groups from prov chunks."""
        grouped: dict[str, list[tuple[str, str]]] = {}
        for record in self.prov:
            grouped.setdefault(record["item"], []).extend(
                (name, value) for name, value in record["attrs"]
            )
        return sorted(grouped.items())


class TransactionAssembler:
    """Folds received WAL messages into transactions.

    Tolerates everything SQS throws at it: duplicates (at-least-once),
    arbitrary order (begin may arrive last), and partial visibility
    (sampling) — completeness is judged only by the begin record's count.
    """

    def __init__(self) -> None:
        self._txns: dict[str, AssembledTransaction] = {}

    def add(self, message: ReceivedMessage) -> None:
        record = parse_record(message.body)
        txn = self._txns.setdefault(
            record["txn"], AssembledTransaction(txn_id=record["txn"])
        )
        txn.handles.append(message.receipt_handle)
        if message.message_id in txn.seen_message_ids:
            return  # duplicate delivery
        txn.seen_message_ids.add(message.message_id)
        kind = record["t"]
        if kind == "begin":
            txn.expected_records = record["n"]
        elif kind == "data":
            txn.data = record
        elif kind == "prov":
            txn.prov.append(record)
        elif kind in ("ovfl", "ovfl_ptr"):
            txn.overflow.append(record)
        elif kind == "commit":
            txn.committed = True
        else:
            raise ValueError(f"unknown WAL record type {kind!r}")

    def complete(self) -> list[AssembledTransaction]:
        return sorted(
            (t for t in self._txns.values() if t.is_complete),
            key=lambda t: t.txn_id,
        )

    def pending_commits(self) -> list[AssembledTransaction]:
        """Committed but still missing records (keep receiving — §4.3 2(a))."""
        return [
            t for t in self._txns.values() if t.committed and not t.is_complete
        ]

    def uncommitted(self) -> list[AssembledTransaction]:
        """No commit record: the client crashed mid-log; ignore (§4.3)."""
        return [t for t in self._txns.values() if not t.committed]

    def all_transactions(self) -> list[AssembledTransaction]:
        """Every transaction seen this phase, in id (i.e. log) order."""
        return sorted(self._txns.values(), key=lambda t: t.txn_id)

    def forget(self, txn_id: str) -> None:
        self._txns.pop(txn_id, None)

    def __len__(self) -> int:
        return len(self._txns)
