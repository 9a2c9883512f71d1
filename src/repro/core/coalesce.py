"""Client-side write coalescer: group commit for provenance puts.

The paper's write path issues one service round trip per provenance
item (§4.2 step 3 / §4.3 step 2(c)), so a burst of small records pays
per-request charges N times. This module sits between the capture layer
and the stores: callers hand it items one at a time, it buffers up to
``batch_size`` of them, and each flush lands the whole buffer through
:func:`repro.core.base.put_provenance_items` — which splits the batch
per *write-plan site*, so shard placement, backend choice, and
migration double-write fan-out are all preserved per item.

Durability trade-off, stated honestly: items sitting in the buffer are
client memory, not cloud state. A client crash loses at most one
unflushed buffer (< ``batch_size`` items) — the same exposure the
paper's A1 local-log client accepts between flushes — while anything
already WAL-logged (A3) or already flushed survives. The property suite
pins exactly that bound.

``batch_size=1`` (the default everywhere) is a batch of one, not a
second path: every ``put`` fills the buffer and flushes before
returning, and the width picks only the request shape — single-item
requests (PutAttributes / UpdateItem) at 1, the batch APIs above it.
That keeps width 1 byte-identical on the billing meter to the paper's
one-request-per-item protocol — the invariant the meter-identity
property and the metered baselines enforce.

The knob: pass ``write_batch=`` to :class:`~repro.sim.Simulation` /
:class:`~repro.fleet.ClientFleet` / the stores, or use ``repro demo
--write-batch N``.
"""

from __future__ import annotations

from typing import Iterable

from repro.aws.account import AWSAccount
from repro.core.base import put_provenance_items
from repro.knobs import positive_int
from repro.migration.handle import RouterHandle
from repro.sharding import ShardRouter


def resolve_write_batch(write_batch: int | None = None) -> int:
    """Normalise the write-batch knob: ``None`` is the paper's width 1;
    anything but an integer >= 1 raises, naming the knob.

    >>> resolve_write_batch(8)
    8
    >>> resolve_write_batch()
    1
    """
    return positive_int(1 if write_batch is None else write_batch, "write batch")


class WriteCoalescer:
    """Buffer provenance item puts and flush them as per-site batches.

    Explicit flush points only — size (the buffer reaches
    ``batch_size``) and close (the caller is done and drains the
    remainder). There is no timer: the simulation's clock only moves
    when services or backoffs move it, so a time-based flush would be
    untestable and dishonest.
    """

    def __init__(
        self,
        account: AWSAccount,
        routing: RouterHandle | ShardRouter,
        batch_size: int | None = None,
    ):
        self.account = account
        self.routing = routing
        self.batch_size = resolve_write_batch(batch_size)
        self._buffer: list[tuple[str, list[tuple[str, str]]]] = []
        #: Batched flushes issued (observability for benchmarks/tests).
        self.flushes = 0
        #: Items that travelled inside a batched flush.
        self.coalesced_items = 0

    @property
    def pending(self) -> int:
        """Items buffered but not yet durable anywhere."""
        return len(self._buffer)

    def put(self, item_name: str, attributes: Iterable[tuple[str, str]]) -> None:
        """Buffer one item, flushing when the buffer reaches size —
        which at ``batch_size=1`` is every call: the item has landed
        when ``put`` returns.
        """
        self._buffer.append((item_name, list(attributes)))
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def flush(self) -> int:
        """Land the buffered items now; returns how many were flushed.

        The buffer is detached before the writes go out: a fault mid-
        flush leaves this coalescer empty, so a recovering caller
        re-puts (idempotent set-merge) rather than double-buffering.
        """
        if not self._buffer:
            return 0
        batch, self._buffer = self._buffer, []
        batched = self.batch_size > 1
        put_provenance_items(self.account, self.routing, batch, batched)
        if batched:
            self.flushes += 1
            self.coalesced_items += len(batch)
        return len(batch)

    def close(self) -> int:
        """Drain the remainder (flush-on-close); returns items flushed."""
        return self.flush()
