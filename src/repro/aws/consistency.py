"""The eventual-consistency engine shared by S3, SimpleDB, and SQS.

AWS circa 2009 promised only *eventual* consistency (paper §2): a GET
right after a PUT may see the old object; a SimpleDB query right after an
insert may miss the item; an SQS receive samples a subset of hosts. This
module models all of that with one mechanism:

* A :class:`ReplicaSet` holds ``n`` replica views of a keyspace. Writes
  are applied immediately to an *authoritative* log (total order,
  last-writer-wins, as §2.1 describes for concurrent PUTs) and propagate
  to each replica after an independent random delay drawn from the
  configured window.
* Reads choose a replica uniformly at random and see only writes that
  have reached it — so stale reads happen exactly when the paper says
  they can, and letting the simulated clock drain its event queue
  ("quiescing") guarantees convergence, which is the "eventual" half of
  the contract.

Setting the delay window to zero collapses the model to strong
consistency, which unit tests use when consistency races are not the
behaviour under test.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Generic, Iterator, Mapping, Sequence, TypeVar

from repro.clock import SimClock

V = TypeVar("V")

#: A tombstone marker distinct from any payload (deletes propagate like writes).
_TOMBSTONE = object()


@dataclass(frozen=True)
class DelayModel:
    """Propagation delay distribution for replica updates.

    Each (write, replica) pair draws an independent delay uniformly from
    ``[min_delay, max_delay]``. ``immediate_fraction`` of writes reach a
    given replica with zero delay, modelling the common case in which a
    read-after-write *does* succeed — the paper's races are possible, not
    certain.
    """

    min_delay: float = 0.0
    max_delay: float = 0.0
    immediate_fraction: float = 0.0

    def sample(self, rng: random.Random) -> float:
        if self.max_delay <= 0:
            return 0.0
        if self.immediate_fraction and rng.random() < self.immediate_fraction:
            return 0.0
        return rng.uniform(self.min_delay, self.max_delay)

    @property
    def is_strong(self) -> bool:
        return self.max_delay <= 0


#: Strongly consistent delay model (propagation is instantaneous).
STRONG = DelayModel()


@dataclass(frozen=True)
class OrderedSnapshot(Generic[V]):
    """One view of a keyspace in key order: ``keys`` ascending, ``values``
    by key. A range read bisects to its first key, so a page costs the
    entries it returns, not the size of the keyspace."""

    keys: Sequence[str]
    values: Mapping[str, V]

    def between(
        self, after: str | None = None, before: str | None = None
    ) -> Iterator[tuple[str, V]]:
        """(key, value) pairs with ``after < key < before``, ascending
        (``None`` = unbounded on that side)."""
        keys, values = self.keys, self.values
        lo = 0 if after is None else bisect_right(keys, after)
        hi = len(keys) if before is None else bisect_left(keys, before)
        for i in range(lo, hi):
            key = keys[i]
            yield key, values[key]


class ReplicaSet(Generic[V]):
    """An eventually consistent, replicated key-value space.

    Values are opaque to the replica set; services store object records,
    item attribute maps, or queue entries. ``V`` is immutable — updates
    replace the whole value, mirroring how S3 PUT replaces whole objects
    and SimpleDB replicates item state — and the stored types enforce it
    (``S3ObjectRecord`` is frozen, :class:`~repro.aws.item.ItemState`
    raises from every in-place method), so the authoritative view and
    every replica share one object per write, and anything fixed when
    the write committed (an item's billed byte size) is carried on the
    value instead of being measured again by each read.

    The authoritative keys are also kept as a sorted list, updated in
    place by every write, so paged readers — S3 LIST, SimpleDB Query /
    QueryWithAttributes / Select, DynamoDB Scan / Query — seek to their
    token instead of sorting the keyspace on every page: see
    :meth:`ordered_snapshot`.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        rng: random.Random,
        n_replicas: int = 3,
        delays: DelayModel = STRONG,
    ):
        if n_replicas < 1:
            raise ValueError(f"need at least one replica, got {n_replicas}")
        self.name = name
        self._clock = clock
        self._rng = rng
        self._delays = delays
        # The authoritative view: applied in write order, immediately.
        self._authority: dict[str, object] = {}
        # The same keys, ascending; with ``_authority`` this is the live
        # ordered view ``ordered_snapshot`` hands out.
        self._ordered_keys: list[str] = []
        self._live: OrderedSnapshot[V] = OrderedSnapshot(
            self._ordered_keys, self._authority  # type: ignore[arg-type]
        )
        self._version = 0
        # Per-replica views: key -> (version, value).
        self._replicas: list[dict[str, tuple[int, object]]] = [
            {} for _ in range(n_replicas)
        ]
        self.stale_reads = 0  # reads that returned a non-authoritative value
        #: Replica installs scheduled on the clock but not yet applied —
        #: the observable replication lag (e.g. a GSI's backlog).
        self.pending_installs = 0
        # Outstanding installs bucketed by the clock time their write
        # was issued (install delays are random, so completions arrive
        # out of order — a single "busy since" timestamp would overstate
        # the lag under a steady write stream).
        self._pending_issue_times: dict[float, int] = {}

    # -- writing ----------------------------------------------------------

    def write(self, key: str, value: V) -> int:
        """Apply a write authoritatively and schedule replica propagation."""
        return self._apply(key, value)

    def delete(self, key: str) -> int:
        """Delete a key; the tombstone propagates like any other write."""
        return self._apply(key, _TOMBSTONE)

    def _apply(self, key: str, value: object) -> int:
        self._version += 1
        version = self._version
        if value is _TOMBSTONE:
            if self._authority.pop(key, _TOMBSTONE) is not _TOMBSTONE:
                del self._ordered_keys[bisect_left(self._ordered_keys, key)]
        else:
            if key not in self._authority:
                insort(self._ordered_keys, key)
            self._authority[key] = value
        for replica in self._replicas:
            delay = self._delays.sample(self._rng)
            if delay <= 0:
                self._install(replica, key, version, value)
            else:
                issued_at = self._clock.now
                self.pending_installs += 1
                self._pending_issue_times[issued_at] = (
                    self._pending_issue_times.get(issued_at, 0) + 1
                )
                self._clock.call_after(
                    delay,
                    lambda r=replica, k=key, ver=version, v=value, t=issued_at: (
                        self._install_pending(r, k, ver, v, t)
                    ),
                )
        return version

    def _install_pending(
        self, replica: dict[str, tuple[int, object]], key: str, version: int,
        value: object, issued_at: float,
    ) -> None:
        self._install(replica, key, version, value)
        self.pending_installs -= 1
        remaining = self._pending_issue_times[issued_at] - 1
        if remaining:
            self._pending_issue_times[issued_at] = remaining
        else:
            del self._pending_issue_times[issued_at]

    @staticmethod
    def _install(
        replica: dict[str, tuple[int, object]], key: str, version: int, value: object
    ) -> None:
        # Last-writer-wins by authoritative version: a delayed older write
        # never clobbers a newer one that already arrived.
        current = replica.get(key)
        if current is not None and current[0] >= version:
            return
        replica[key] = (version, value)

    # -- reading ----------------------------------------------------------

    def _pick_replica(self) -> dict[str, tuple[int, object]]:
        return self._rng.choice(self._replicas)

    def read(self, key: str) -> V | None:
        """Read from a random replica; ``None`` if unknown (or deleted) there."""
        replica = self._pick_replica()
        entry = replica.get(key)
        value = None if entry is None or entry[1] is _TOMBSTONE else entry[1]
        if value is not self._authority.get(key):
            self.stale_reads += 1
        return value  # type: ignore[return-value]

    def read_authoritative(self, key: str) -> V | None:
        """Bypass replication — test/oracle use only."""
        return self._authority.get(key)  # type: ignore[return-value]

    def contains_authoritative(self, key: str) -> bool:
        return key in self._authority

    def ordered_snapshot(self, authoritative: bool = False) -> OrderedSnapshot[V]:
        """The keyspace visible on one randomly chosen replica, in key
        order — the one view every ranged or paged read runs against: an
        S3 LIST, a SimpleDB Query / QueryWithAttributes / Select, a
        DynamoDB Scan or index Query. Recent inserts may be missing from
        it and recent deletes may still show.

        With no install pending every replica equals the authoritative
        view, and the maintained sorted keys are handed out as a live
        view instead of a copy: consume it before the next write. Inside
        an eventual window the same kind of object is built once from
        the drawn replica, tombstones dropped, so a reader never knows
        which it got, and ``len(keys)`` is always the drawn replica's
        item count. The replica draw is made either way — the RNG
        stream does not depend on the replication state.
        ``authoritative=True`` is the strongly consistent read: the live
        view, and no draw.
        """
        if authoritative:
            return self._live
        replica = self._pick_replica()
        if not self.pending_installs:
            return self._live
        values = {k: v for k, (_, v) in replica.items() if v is not _TOMBSTONE}
        return OrderedSnapshot(sorted(values), values)  # type: ignore[arg-type]

    def authoritative_keys(self) -> list[str]:
        return list(self._ordered_keys)

    def authoritative_items(self) -> Iterator[tuple[str, V]]:
        return self._live.between()

    def stored_values(self) -> Iterator[V]:
        """Every value held anywhere: the authoritative view's, then each
        replica's own — lagging ones included. Oracle use only."""
        yield from self._authority.values()  # type: ignore[misc]
        for replica in self._replicas:
            yield from (v for _, v in replica.values() if v is not _TOMBSTONE)  # type: ignore[misc]

    # -- convergence ------------------------------------------------------

    def lag_seconds(self) -> float:
        """How long the oldest still-propagating write has been in flight.

        ``0.0`` when every scheduled install has landed. This is the
        replication-lag signal a client can act on (the DynamoDB-style
        backend's GSI staleness bound reads it); it measures *pending*
        work, so a quiesced replica set always reports zero, and under
        a steady write stream it is bounded by the delay window (the
        oldest outstanding install, not the length of the busy period).
        The ``min`` walks one bucket per distinct issue instant still
        outstanding — bounded by the delay window, not by history.
        """
        if not self._pending_issue_times:
            return 0.0
        return max(0.0, self._clock.now - min(self._pending_issue_times))

    def is_converged(self) -> bool:
        """True when every replica equals the authoritative view."""
        for replica in self._replicas:
            visible = {k: v for k, (_, v) in replica.items() if v is not _TOMBSTONE}
            if visible != self._authority:
                return False
        return True

    def __len__(self) -> int:
        """Number of keys in the authoritative view."""
        return len(self._authority)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReplicaSet({self.name!r}, keys={len(self._authority)}, "
            f"replicas={len(self._replicas)}, converged={self.is_converged()})"
        )


def make_rng_family(seed: int) -> Callable[[str], random.Random]:
    """Create independent, reproducible RNG streams keyed by label.

    Each simulated service draws replica choices and delays from its own
    stream so adding requests to one service never perturbs another —
    essential for comparing architecture runs under a fixed seed.
    """

    def derive(label: str) -> random.Random:
        return random.Random(f"{seed}:{label}")

    return derive
