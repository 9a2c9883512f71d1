"""Simulated DynamoDB-style key-value store (the §6 "what else?" backend).

The paper frames SimpleDB as *one* plausible provenance store and asks
how the architecture generalises. This module supplies the obvious
successor: a provisioned-throughput key-value service in the mould of
DynamoDB, different from SimpleDB in exactly the dimensions that make a
shard placement decision interesting:

* **tables → items → attributes**, where an attribute holds a *string
  set* — ``update_item`` ADDs values into the set, so replays are
  idempotent exactly like SimpleDB's ``PutAttributes`` set-merge, and
  one provenance item serialises identically on either backend;
* **item-size-based metering**: every request consumes capacity units —
  writes in 1 KB steps (:data:`~repro.units.DDB_WCU_BYTES`), strongly
  consistent reads in 4 KB steps (:data:`~repro.units.DDB_RCU_BYTES`),
  eventually consistent reads at half that — recorded exactly on the
  billing meter (:meth:`~repro.aws.billing.Meter.record_capacity`);
* **provisioned throughput**: each table declares read/write capacity
  (units per second of *simulated* time); a second that consumes more
  is throttled with ``ProvisionedThroughputExceeded`` and the client
  backs off by advancing the simulated clock;
* **eventually-consistent vs strongly-consistent reads**: ``GetItem``
  and ``Scan`` take a ``consistent`` flag — eventual reads go through
  the same :class:`~repro.aws.consistency.ReplicaSet` machinery as the
  2009 services (and cost half the read units), strong reads see the
  authoritative state (and cost double);
* **no query language — but global secondary indexes**: the base table
  still answers attribute predicates only by paged ``Scan`` +
  client-side filtering, but a table may carry named **GSIs**
  (:class:`IndexSpec`): for each value of a chosen attribute the index
  holds a compact projected entry per item. Index maintenance is
  **asynchronous** — every ``UpdateItem``/``DeleteItem`` propagates to
  the index's own :class:`~repro.aws.consistency.ReplicaSet` on its own
  replica schedule (real GSIs are eventually consistent, full stop:
  ``query_index`` never offers a strongly consistent read) — and is
  charged as **write amplification**: each changed index entry consumes
  write units sized by the projected entry, metered on the distinct
  :data:`~repro.aws.billing.DDB_GSI` key, as is index storage and
  Query-on-index read capacity. Creating an index on a populated table
  backfills it, with the backfill metered the same way.

Sizes follow DynamoDB's accounting: an item's size is the sum of UTF-8
attribute-name and value bytes plus the key; capacity units round up per
item (reads aggregate per page for ``Scan``, as BatchGetItem would).
Pages — ``Scan`` and index ``Query`` alike — are bounded by a byte
budget (:data:`~repro.units.DDB_PAGE_BYTES`, the simulation-scale
analogue of DynamoDB's 1 MB page): a scan spends it on every item it
crosses, an index page only on matching projected entries, which is
exactly why indexed queries need fewer round trips.

**How a page is located.** Every table and index keeps its keys sorted
(:meth:`ReplicaSet.ordered_snapshot
<repro.aws.consistency.ReplicaSet.ordered_snapshot>`), so a page costs
host time proportional to the page, as on the real service: ``Scan``
bisects past ``exclusive_start_key``, an index ``Query`` reads each
wanted hash value's contiguous run of entry keys, and both stop one
entry after the page is full (the peek that decides
``last_evaluated_key``). An eventually consistent read draws one
replica per request; while no replica install is pending that replica
equals the authoritative state and the maintained order is read in
place, otherwise the drawn replica is sorted once for the request. A
strongly consistent ``Scan`` reads the authoritative order and draws
nothing. None of this changes what is billed: a ``Scan`` still pays
read units for every item it crosses — but the bytes it pays for are
read, not measured. Every stored item and index entry projection is an
:class:`~repro.aws.item.ItemState` whose attribute byte size was fixed
when its write committed (:func:`_merged` adds only the values a write
actually adds; :func:`_project` measures a projection once, and an
``ALL`` projection *is* the item's state), so a page adds one integer
per value it serves plus its key's bytes, which are still encoded per
row. Whichever replica serves a read, the size is that of the state it
returns — a lagging replica bills the old state's bytes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator

from repro import errors, units
from repro.aws import billing
from repro.aws.consistency import DelayModel, ReplicaSet, STRONG
from repro.aws.faults import RequestFaults
from repro.aws.item import ABSENT, Attrs, ItemState, _attr_size, size_audit
from repro.clock import SimClock

#: Maximum items returned per Scan page (modeled; real DynamoDB pages by
#: 1 MB of data — 250 keeps parity with the SimpleDB page size so the
#: benchmarks compare request counts like-for-like).
SCAN_MAX_PAGE = 250


def _item_size(key: str, state: ItemState) -> int:
    return len(key.encode()) + state.nbytes


def _write_units_for(nbytes: int) -> float:
    """Write capacity units consumed by an item of ``nbytes`` (≥1)."""
    return float(max(1, math.ceil(nbytes / units.DDB_WCU_BYTES)))


#: Separator composing an index entry key from (key value, item name).
#: NUL cannot appear in serialised provenance attributes, and it sorts
#: before every printable byte, so entries order by (value, item name).
INDEX_KEY_SEP = "\x00"
#: ``value + _PARTITION_END`` is the first key past hash value ``value``'s
#: entries (the successor of the separator).
_PARTITION_END = "\x01"


@dataclass(frozen=True)
class IndexSpec:
    """Declaration of one global secondary index.

    ``key_attribute`` is the indexed attribute: every *value* of it
    becomes an index key (multi-valued attributes produce one entry per
    value, the string-set analogue of DynamoDB's one-entry-per-item).
    The projection carried by each entry is the key attribute itself
    plus the ``include`` list — queries whose predicate or requested
    attributes reach outside the projection cannot be served by the
    index — or, with ``project_all`` (DynamoDB's ``ALL`` projection
    type), the *entire item*: entries are bigger (more index storage
    and write amplification) but the index can serve any projection,
    including the full-item reads a migration streams. Items lacking
    the attribute have no entries (sparse index).

    ``range_attribute`` makes the index **composite** (DynamoDB's
    hash+range key schema): each entry's position is
    ``(hash value, range value, item name)``, entries sort by range
    value within one hash partition (values compare lexicographically,
    like SimpleDB — callers zero-pad numbers), and ``query_index``
    accepts a range condition that reads one contiguous *slice* of the
    partition instead of all of it. The sparsity rule extends to the
    range key: an item lacking *either* attribute has no entries — so
    a composite index can only serve predicates that constrain the
    range attribute (guaranteeing every matching item carries it).

    ``wcu``/``rcu`` optionally provision the index's own capacity: its
    maintenance writes and Query reads then throttle against the
    index's own per-second admission window instead of charging the
    base table's (``None``, the default, preserves the shared-window
    behaviour byte-for-byte — an underprovisioned index back-pressures
    its base table).
    """

    name: str
    key_attribute: str
    include: tuple[str, ...] = ()
    project_all: bool = False
    wcu: int | None = None
    rcu: int | None = None
    range_attribute: str | None = None

    @property
    def projected_attributes(self) -> frozenset[str]:
        keys = (
            (self.key_attribute,)
            if self.range_attribute is None
            else (self.key_attribute, self.range_attribute)
        )
        return frozenset((*keys, *self.include))

    def covers(self, attributes: frozenset[str] | set[str]) -> bool:
        """Can index entries answer reads of these attributes?"""
        return self.project_all or set(attributes) <= self.projected_attributes


def index_entry_key(
    key_value: str, item_name: str, range_value: str | None = None
) -> str:
    """The index keyspace position of one entry.

    Simple indexes position by ``(value, item name)``; composite ones
    insert the range value in the middle, so entries order by
    ``(hash value, range value, item name)`` and a range condition is a
    contiguous slice of the partition. The item name is always the
    segment after the *last* separator (``rpartition``), whichever
    shape the index uses.
    """
    if range_value is None:
        return f"{key_value}{INDEX_KEY_SEP}{item_name}"
    return f"{key_value}{INDEX_KEY_SEP}{range_value}{INDEX_KEY_SEP}{item_name}"


def _entry_positions(spec: IndexSpec, key: str, state: ItemState) -> list[str]:
    """Every index-entry position ``state`` produces under ``spec``.

    Multi-valued attributes fan out (one entry per value — per hash ×
    range pair for composite specs); items lacking the hash attribute,
    or the range attribute of a composite spec, produce none (sparse).
    """
    hash_values = state.get(spec.key_attribute, ())
    if spec.range_attribute is None:
        return [index_entry_key(value, key) for value in hash_values]
    range_values = state.get(spec.range_attribute, ())
    return [
        index_entry_key(hash_value, key, range_value)
        for hash_value in hash_values
        for range_value in range_values
    ]


#: Range-condition operators ``query_index`` accepts, with their arity.
_RANGE_OPS = {">=": 2, "<=": 2, ">": 2, "<": 2, "between": 3}


def _validate_range_condition(condition: tuple[str, ...]) -> None:
    arity = _RANGE_OPS.get(condition[0]) if condition else None
    if arity is None or len(condition) != arity:
        raise ValueError(
            f"bad range condition {condition!r}; expected ('>=', lo), "
            "('<=', hi), ('>', lo), ('<', hi) or ('between', lo, hi)"
        )


def _range_matches(value: str, condition: tuple[str, ...]) -> bool:
    op = condition[0]
    if op == ">=":
        return value >= condition[1]
    if op == "<=":
        return value <= condition[1]
    if op == ">":
        return value > condition[1]
    if op == "<":
        return value < condition[1]
    return condition[1] <= value <= condition[2]


def _project(state: ItemState, spec: IndexSpec) -> ItemState:
    """What ``spec``'s entries carry of ``state``, sized once for all of
    them (an ``ALL`` projection is the item's own state and size)."""
    if spec.project_all:
        return state
    projected = spec.projected_attributes
    attrs = {name: values for name, values in state.items() if name in projected}
    return ItemState(attrs, _attr_size(attrs))


def _entry_size(entry_key: str, projected: ItemState) -> int:
    """Stored size of one index entry (key bytes + projection + the
    per-entry index overhead DynamoDB bills)."""
    return units.DDB_INDEX_ENTRY_OVERHEAD + len(entry_key.encode()) + projected.nbytes


def _read_units_for(nbytes: int, consistent: bool) -> float:
    """Read capacity units for ``nbytes`` (strong = 4 KB steps, eventual
    half that; a miss still costs the minimum unit)."""
    base = float(max(1, math.ceil(nbytes / units.DDB_RCU_BYTES)))
    return base if consistent else base / 2.0


@dataclass(frozen=True)
class ScanResult:
    """One page of a table scan."""

    items: tuple[tuple[str, Attrs], ...]
    last_evaluated_key: str | None

    @property
    def item_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.items)


@dataclass(frozen=True)
class IndexQueryResult:
    """One page of a Query against a global secondary index.

    ``entries`` are (item name, projected attributes) pairs in index
    order — by (key value, item name), so an item whose indexed
    attribute holds several queried values appears once per value and
    the caller deduplicates. ``last_evaluated_key`` is the opaque
    pagination token (the last entry's index key position).
    """

    entries: tuple[tuple[str, Attrs], ...]
    last_evaluated_key: str | None


@dataclass
class _Index:
    """One GSI: its declaration plus the replicated entry space.

    The replica set's *authoritative* view is what the index converges
    to; reads always come off replicas — there is no strongly
    consistent index read to buy, mirroring real GSIs. Indexes whose
    spec declares ``wcu``/``rcu`` carry their own admission window (the
    per-index provisioned throughput real GSIs have); the others charge
    the base table's window, the original shared-window behaviour.
    """

    spec: IndexSpec
    replicas: ReplicaSet
    # Per-index admission window (used only when the spec provisions
    # its own capacity; mirrors the base table's window fields).
    window_start: float = 0.0
    window_read_units: float = 0.0
    window_write_units: float = 0.0
    # Incremental statistics over the converged entry space — what
    # DescribeTable reports and the query planner's cost model
    # consumes. Maintained at write-commit time (never sampled):
    # ``key_counts`` maps each hash-key value to its live entry count,
    # so an equality Query's result cardinality is exact; on composite
    # indexes ``range_counts`` does the same per range-key value, so a
    # range slice's cardinality is a sum over the slice.
    entry_count: int = 0
    entry_bytes: int = 0
    key_counts: dict[str, int] = field(default_factory=dict)
    range_counts: dict[str, int] = field(default_factory=dict)
    # Per-key *byte* histograms next to the count histograms: projected
    # entry widths vary wildly across hash partitions (a process item
    # projects its whole multi-valued input list; a pipe projects one
    # value), so an index-wide mean would misprice any slice. Same
    # maintenance discipline — exact, incremental, never sampled.
    key_bytes: dict[str, int] = field(default_factory=dict)
    range_bytes: dict[str, int] = field(default_factory=dict)


def _bump(histogram: dict[str, int], key: str, delta: int) -> None:
    left = histogram.get(key, 0) + delta
    if left > 0:
        histogram[key] = left
    else:
        histogram.pop(key, None)


def _stat_entry(index: _Index, entry_key: str, size_delta: int, count_delta: int) -> None:
    """Fold one committed index-entry write or delete into the index
    statistics: the entry's byte change, and +1 / 0 / -1 live entries
    (a new entry, a rewritten one, a deleted one)."""
    index.entry_bytes += size_delta
    index.entry_count += count_delta
    parts = entry_key.split(INDEX_KEY_SEP)
    _bump(index.key_bytes, parts[0], size_delta)
    _bump(index.key_counts, parts[0], count_delta)
    if len(parts) == 3:  # composite: [hash, range, item]
        _bump(index.range_bytes, parts[1], size_delta)
        _bump(index.range_counts, parts[1], count_delta)


@dataclass
class _Table:
    """One table: replicated state plus provisioned-throughput ledger.

    Stored item states are immutable (:class:`~repro.aws.item.ItemState`):
    ``authority`` and the replica set hold the *same* object (as do
    ``ALL``-projection index entries), every write installs a fresh one
    (:func:`_merged` edits a copy), and every read hands out a plain
    ``dict`` copy.
    """

    replicas: ReplicaSet
    authority: dict[str, ItemState]
    read_capacity: int
    write_capacity: int
    indexes: dict[str, _Index] = field(default_factory=dict)
    # Incremental authoritative-size statistic (DescribeTable's
    # ``TableSizeBytes``): updated by the same deltas the storage meter
    # sees, so mean item size is item-count arithmetic, not a scan.
    total_bytes: int = 0
    # Admission-control window: consumption within the current simulated
    # second, reset when the clock enters a new second.
    window_start: float = 0.0
    window_read_units: float = 0.0
    window_write_units: float = 0.0


def _merged(key: str, existing: ItemState, adds: list[tuple[str, str]]) -> ItemState:
    """ADD ``adds`` into a copy of ``existing``'s string sets (``ABSENT``
    = absent item), refusing an empty update or one that would outgrow
    the item-size limit. The one set-merge UpdateItem and every
    BatchWriteItem entry share. The new state's size is the old one plus
    the bytes of each value that was not already in its set — nothing
    already stored is measured again."""
    if not adds:
        raise errors.ItemSizeLimitExceeded("an item write requires attributes")
    attrs: Attrs = dict(existing)
    nbytes = existing.nbytes
    for name, value in adds:
        values = attrs.get(name, ())
        if value not in values:
            attrs[name] = tuple(sorted((*values, value)))
            nbytes += len(name.encode()) + len(value.encode())
    state = ItemState(attrs, nbytes)
    if _item_size(key, state) > units.DDB_MAX_ITEM_SIZE:
        raise errors.ItemSizeLimitExceeded(
            f"item {key!r} would be {_item_size(key, state)} bytes "
            f"(limit {units.DDB_MAX_ITEM_SIZE})"
        )
    return state


def _adds_size(adds: list[tuple[str, str]]) -> int:
    """Transfer-in bytes of one item's ADD list."""
    return sum(len(name.encode()) + len(value.encode()) for name, value in adds)


class DynamoDBService:
    """The simulated DynamoDB-style endpoint for one AWS account."""

    def __init__(
        self,
        clock: SimClock,
        rng: random.Random,
        meter: billing.Meter,
        faults: RequestFaults | None = None,
        delays: DelayModel = STRONG,
        n_replicas: int = 3,
        read_capacity: int = units.DDB_DEFAULT_READ_CAPACITY,
        write_capacity: int = units.DDB_DEFAULT_WRITE_CAPACITY,
    ):
        self._clock = clock
        self._rng = rng
        self._meter = meter
        self._faults = faults or RequestFaults()
        self._delays = delays
        self._n_replicas = n_replicas
        self._default_read_capacity = read_capacity
        self._default_write_capacity = write_capacity
        self._tables: dict[str, _Table] = {}

    @property
    def clock(self) -> SimClock:
        """The simulated clock (clients advance it to ride out throttling)."""
        return self._clock

    # -- table management ---------------------------------------------------

    def create_table(
        self,
        name: str,
        read_capacity: int | None = None,
        write_capacity: int | None = None,
    ) -> None:
        """Create a table with provisioned throughput. Idempotent (like
        the SimpleDB adapter's ``CreateDomain``): re-creating an existing
        table leaves its data and capacity untouched."""
        self._request("CreateTable")
        if name in self._tables:
            return
        self._tables[name] = _Table(
            replicas=ReplicaSet(
                f"ddb/{name}", self._clock, self._rng, self._n_replicas, self._delays
            ),
            authority={},
            read_capacity=read_capacity or self._default_read_capacity,
            write_capacity=write_capacity or self._default_write_capacity,
        )

    def delete_table(self, name: str) -> None:
        self._request("DeleteTable")
        removed = self._tables.pop(name, None)
        if removed is None:
            return
        if removed.total_bytes:
            self._meter.adjust_stored(billing.DDB, -removed.total_bytes)
        index_freed = sum(index.entry_bytes for index in removed.indexes.values())
        if index_freed:
            self._meter.adjust_stored(billing.DDB_GSI, -index_freed)

    def list_tables(self) -> list[str]:
        self._request("ListTables")
        return sorted(self._tables)

    def _table(self, name: str) -> _Table:
        table = self._tables.get(name)
        if table is None:
            raise errors.NoSuchTable(name)
        return table

    # -- secondary indexes --------------------------------------------------

    def create_index(self, table_name: str, spec: IndexSpec) -> float:
        """Create a GSI, backfilling it from the base table.

        Idempotent by index name (re-creating leaves the existing index
        untouched). The backfill writes one projected entry per
        (item, key value) pair through the index's replica machinery —
        entries land on the index's own schedule — and is metered as
        index write units plus index storage on the
        :data:`~repro.aws.billing.DDB_GSI` billing key. Returns the
        write units the backfill consumed (0.0 for an empty table or an
        already-existing index). Backfill bypasses the table's
        provisioned-throughput window, like DynamoDB's background
        backfill.
        """
        table = self._table(table_name)
        self._check_faults("CreateIndex")
        self._meter.record_request(billing.DDB, "CreateIndex")
        if spec.name in table.indexes:
            return 0.0
        index = _Index(
            spec=spec,
            replicas=ReplicaSet(
                f"ddb/{table_name}/{spec.name}",
                self._clock,
                self._rng,
                self._n_replicas,
                self._delays,
            ),
        )
        table.indexes[spec.name] = index
        backfill_units = 0.0
        stored = 0
        for key, state in table.authority.items():
            projected = _project(state, spec)
            for entry_key in _entry_positions(spec, key, state):
                size = _entry_size(entry_key, projected)
                backfill_units += _write_units_for(size)
                stored += size
                index.replicas.write(entry_key, projected)
                _stat_entry(index, entry_key, size, 1)
        if backfill_units:
            self._meter.record_capacity(billing.DDB_GSI, write_units=backfill_units)
        if stored:
            self._meter.adjust_stored(billing.DDB_GSI, stored)
        return backfill_units

    def delete_index(self, table_name: str, index_name: str) -> None:
        """Drop a GSI and free its projected storage (idempotent)."""
        table = self._table(table_name)
        self._check_faults("DeleteIndex")
        self._meter.record_request(billing.DDB, "DeleteIndex")
        index = table.indexes.pop(index_name, None)
        if index is None:
            return
        if index.entry_bytes:
            self._meter.adjust_stored(billing.DDB_GSI, -index.entry_bytes)

    def list_indexes(self, table_name: str) -> list[IndexSpec]:
        """The table's index declarations, in creation order. Unmetered:
        clients cache table schemas (DescribeTable) between requests."""
        table = self._tables.get(table_name)
        if table is None:
            return []
        return [index.spec for index in table.indexes.values()]

    def index_lag_seconds(self, table_name: str, index_name: str) -> float:
        """Replication lag of an index: how long its oldest still
        propagating entry has been in flight (0.0 when converged).
        Unmetered observability, the CloudWatch-metric analogue."""
        return self._index(table_name, index_name).replicas.lag_seconds()

    def index_pending_writes(self, table_name: str, index_name: str) -> int:
        """Scheduled-but-unapplied index entry installs (lag backlog)."""
        return self._index(table_name, index_name).replicas.pending_installs

    def _index(self, table_name: str, index_name: str) -> _Index:
        index = self._table(table_name).indexes.get(index_name)
        if index is None:
            raise errors.NoSuchIndex(
                f"table {table_name!r} has no index {index_name!r}"
            )
        return index

    def _index_plan(self, table: _Table, key: str, old: ItemState, state: ItemState):
        """Index maintenance one item change triggers.

        Returns ``(changes, shared_units, index_charges)``. Each change
        is ``(index, entry key, projection or None to delete, byte
        delta, live-entry delta)``. The positions come from ``state``,
        or from ``old`` when ``state`` is empty (a delete): an UpdateItem
        only ADDs values, so its new positions include the old ones.
        Only entries whose projection actually changes are written and
        charged — a replayed idempotent put amplifies nothing, like real
        GSIs — each at the write units of the larger of its old and new
        size. ``shared_units`` are the units charged against the base
        table's admission window (indexes without their own ``wcu``);
        ``index_charges`` lists ``(index, 0.0, write_units)`` for
        indexes that provision their own capacity.
        """
        changes: list[tuple[_Index, str, ItemState | None, int, int]] = []
        shared_units = 0.0
        index_charges: list[tuple[_Index, float, float]] = []
        for index in table.indexes.values():
            positions = _entry_positions(index.spec, key, state or old)
            if not positions:
                continue  # sparse: nothing to project, nothing to size
            projected = _project(state, index.spec) if state else None
            units = 0.0
            for entry_key in positions:
                stored = index.replicas.read_authoritative(entry_key)
                if stored == projected:
                    continue
                old_size = _entry_size(entry_key, stored) if stored is not None else 0
                new_size = _entry_size(entry_key, projected) if projected is not None else 0
                units += _write_units_for(max(old_size, new_size))
                changes.append((
                    index, entry_key, projected, new_size - old_size,
                    (stored is None) - (projected is None),
                ))
            if not units:
                continue
            if index.spec.wcu is not None:
                index_charges.append((index, 0.0, units))
            else:
                shared_units += units
        return changes, shared_units, index_charges

    # -- provisioned-throughput admission control ---------------------------

    @staticmethod
    def _roll_window(window, now: float) -> None:
        if now - window.window_start >= 1.0:
            window.window_start = math.floor(now)
            window.window_read_units = 0.0
            window.window_write_units = 0.0

    def _admit(
        self,
        table: _Table,
        read_units: float,
        write_units: float,
        index_charges: list[tuple[_Index, float, float]] = (),
    ) -> None:
        """Charge the current one-second window(s); throttle if exhausted.

        ``index_charges`` routes capacity to indexes provisioned with
        their own ``wcu``/``rcu`` — their windows throttle independently
        of the base table's. Admission is all-or-nothing: every window
        is validated before any is charged, so a throttled request
        consumes nothing anywhere and is not metered — the client backs
        off (advancing the simulated clock into a fresh window) and
        retries, exactly like SDK exponential backoff.
        """
        now = self._clock.now
        self._roll_window(table, now)
        if table.window_read_units + read_units > table.read_capacity:
            raise errors.ProvisionedThroughputExceeded(
                f"read capacity {table.read_capacity} units/s exhausted"
            )
        if table.window_write_units + write_units > table.write_capacity:
            raise errors.ProvisionedThroughputExceeded(
                f"write capacity {table.write_capacity} units/s exhausted"
            )
        for index, index_reads, index_writes in index_charges:
            self._roll_window(index, now)
            spec = index.spec
            if (
                spec.rcu is not None
                and index.window_read_units + index_reads > spec.rcu
            ):
                raise errors.ProvisionedThroughputExceeded(
                    f"index {spec.name!r} read capacity {spec.rcu} units/s exhausted"
                )
            if (
                spec.wcu is not None
                and index.window_write_units + index_writes > spec.wcu
            ):
                raise errors.ProvisionedThroughputExceeded(
                    f"index {spec.name!r} write capacity {spec.wcu} units/s exhausted"
                )
        table.window_read_units += read_units
        table.window_write_units += write_units
        for index, index_reads, index_writes in index_charges:
            index.window_read_units += index_reads
            index.window_write_units += index_writes

    # -- writes -------------------------------------------------------------

    def _commit_item(
        self, table: _Table, key: str, state: ItemState, transfer: int = 0
    ) -> None:
        """Make ``state`` the item's authoritative state (empty = the item
        is gone). The one place an item changes; every write path calls
        it, after its fault check.

        The item consumes the write units of the larger of its size
        before and after, plus the index write units of every GSI entry
        the change touches (:meth:`_index_plan`). Admission comes first
        and is all-or-nothing, so a throttled change raises having
        changed and metered nothing. Then the capacity and ``transfer``
        bytes in are metered, the stored-byte deltas billed, and the
        state and its index entries installed on their replica sets —
        each index on its own schedule, the asynchronous maintenance
        real GSIs perform. Deleting an absent item still consumes the
        minimum write unit and changes nothing else.
        """
        old = table.authority.get(key, ABSENT)
        old_size = _item_size(key, old) if old else 0
        new_size = _item_size(key, state) if state else 0
        write_units = _write_units_for(max(old_size, new_size))
        changes, shared_units, index_charges = self._index_plan(table, key, old, state)
        self._admit(table, 0.0, write_units + shared_units, index_charges)
        self._meter.record_capacity(billing.DDB, write_units=write_units)
        self._meter.record_capacity(
            billing.DDB_GSI,
            write_units=shared_units + sum(units for _, _, units in index_charges),
        )
        self._meter.record_transfer_in(billing.DDB, transfer)
        if not (old or state):
            return
        self._meter.adjust_stored(billing.DDB, new_size - old_size)
        table.total_bytes += new_size - old_size
        if state:
            table.authority[key] = state
            table.replicas.write(key, state)
        else:
            del table.authority[key]
            table.replicas.delete(key)
        index_stored = 0
        for index, entry_key, projected, size_delta, count_delta in changes:
            if projected is None:
                index.replicas.delete(entry_key)
            else:
                index.replicas.write(entry_key, projected)
            _stat_entry(index, entry_key, size_delta, count_delta)
            index_stored += size_delta
        if index_stored:
            self._meter.adjust_stored(billing.DDB_GSI, index_stored)

    def update_item(
        self, table_name: str, key: str, adds: list[tuple[str, str]]
    ) -> None:
        """ADD attribute values into the item's string sets.

        Set semantics make replays idempotent — the property A3's commit
        daemon replay correctness rests on, preserved per backend.
        Consumes write units for the *larger* of the item's size before
        and after the update (DynamoDB's update accounting), **plus**
        one index write per GSI entry the update changes — the write
        amplification of having indexes, metered on the distinct
        :data:`~repro.aws.billing.DDB_GSI` key and charged against the
        same provisioned-throughput window (an underprovisioned index
        back-pressures its base table).
        """
        table = self._table(table_name)
        state = _merged(key, table.authority.get(key, ABSENT), adds)
        self._check_faults("UpdateItem")
        self._commit_item(table, key, state, _adds_size(adds))
        self._meter.record_request(billing.DDB, "UpdateItem")

    def batch_write_item(
        self, table_name: str, puts: list[tuple[str, list[tuple[str, str]]]]
    ) -> list[tuple[str, list[tuple[str, str]]]]:
        """Write up to 25 items in one round trip (put requests only).

        Each entry lands with :meth:`update_item`'s ADD semantics and
        capacity accounting — batching amortises the *round trips*, not
        the write units, which DynamoDB charges per item either way.
        Admission is per item against the provisioned window: entries
        the current second cannot afford come back as the
        ``UnprocessedItems`` list (same shape as ``puts``) for the
        caller to retry after backing off, while admitted entries commit
        — the honest partial-success contract of the real API. If *every*
        entry is throttled the call raises
        :class:`~repro.errors.ProvisionedThroughputExceeded` and meters
        nothing, exactly like a throttled ``UpdateItem``. Entries
        repeating a key merge sequentially in call order.
        """
        if not puts:
            raise errors.EmptyBatchRequest("batch_write_item requires put requests")
        if len(puts) > units.DDB_MAX_BATCH_WRITE_ITEMS:
            raise errors.TooManyEntriesInBatchRequest(
                f"{len(puts)} put requests in one call (limit "
                f"{units.DDB_MAX_BATCH_WRITE_ITEMS})"
            )
        table = self._table(table_name)
        # Stage the whole request before anything commits or meters
        # (mirrors update_item, which sizes the merged item before the
        # fault check). An entry repeating a key merges onto the
        # previous entry's staged state.
        staged: list[tuple[ItemState, ItemState]] = []
        latest: dict[str, ItemState] = {}
        for key, adds in puts:
            base = latest[key] if key in latest else table.authority.get(key, ABSENT)
            latest[key] = _merged(key, base, adds)
            staged.append((base, latest[key]))
        self._check_faults("BatchWriteItem")
        unprocessed: list[tuple[str, list[tuple[str, str]]]] = []
        for (key, adds), (base, state) in zip(puts, staged):
            existing = table.authority.get(key, ABSENT)
            if existing is not base:
                # An earlier entry for this key was left unprocessed, so
                # its adds must not ride along: merge onto what committed.
                state = _merged(key, existing, adds)
            try:
                self._commit_item(table, key, state, _adds_size(adds))
            except errors.ProvisionedThroughputExceeded:
                unprocessed.append((key, adds))
        if len(unprocessed) == len(puts):
            raise errors.ProvisionedThroughputExceeded(
                f"write capacity {table.write_capacity} units/s exhausted "
                f"for every entry in the batch"
            )
        self._meter.record_request(billing.DDB, "BatchWriteItem")
        return unprocessed

    def delete_item(self, table_name: str, key: str) -> None:
        """Delete an item. Idempotent: deleting an absent item succeeds
        (and still consumes the minimum write unit, as DynamoDB does).
        Every GSI entry the item held is deleted too, each costing index
        write units sized by the entry it removes."""
        table = self._table(table_name)
        self._check_faults("DeleteItem")
        self._commit_item(table, key, ABSENT)
        self._meter.record_request(billing.DDB, "DeleteItem")

    # -- reads --------------------------------------------------------------

    def get_item(
        self, table_name: str, key: str, consistent: bool = False
    ) -> Attrs:
        """Fetch one item; ``consistent=True`` reads the authoritative
        state at double the read-unit cost, ``False`` reads a replica
        (may be stale or empty) at half cost."""
        table = self._table(table_name)
        if consistent:
            state = table.authority.get(key, ABSENT)
        else:
            state = table.replicas.read(key) or ABSENT
        read_units = _read_units_for(_item_size(key, state), consistent)
        self._check_faults("GetItem")
        self._admit(table, read_units, 0.0)
        self._meter.record_request(billing.DDB, "GetItem")
        self._meter.record_capacity(billing.DDB, read_units=read_units)
        self._meter.record_transfer_out(billing.DDB, state.nbytes)
        return {**state}

    def scan(
        self,
        table_name: str,
        exclusive_start_key: str | None = None,
        limit: int = SCAN_MAX_PAGE,
        consistent: bool = False,
    ) -> ScanResult:
        """One page of a full table scan, in key order.

        Read units are charged for every item *scanned* on the page (the
        whole point of scan-based filtering being expensive), aggregated
        per page before rounding — DynamoDB's scan accounting. A page
        ends at ``limit`` items or when its byte budget
        (:data:`~repro.units.DDB_PAGE_BYTES`) is spent, whichever comes
        first (the last item may overshoot the budget, as DynamoDB's
        1 MB pages do).
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        table = self._table(table_name)
        rows = table.replicas.ordered_snapshot(authoritative=consistent).between(
            exclusive_start_key
        )
        page_limit = min(limit, SCAN_MAX_PAGE)
        page: list[tuple[str, Attrs]] = []
        scanned_bytes = 0
        for key, state in rows:
            page.append((key, {**state}))
            scanned_bytes += len(key.encode()) + state.nbytes
            if len(page) >= page_limit or scanned_bytes >= units.DDB_PAGE_BYTES:
                break
        base = float(max(1, math.ceil(scanned_bytes / units.DDB_RCU_BYTES)))
        read_units = base if consistent else base / 2.0
        self._check_faults("Scan")
        self._admit(table, read_units, 0.0)
        self._meter.record_request(billing.DDB, "Scan")
        self._meter.record_capacity(billing.DDB, read_units=read_units)
        # Everything scanned is returned, so transfer-out is the same sum.
        self._meter.record_transfer_out(billing.DDB, scanned_bytes)
        last_key = page[-1][0] if page and next(rows, None) is not None else None
        return ScanResult(items=tuple(page), last_evaluated_key=last_key)

    def query_index(
        self,
        table_name: str,
        index_name: str,
        key_values: list[str],
        exclusive_start_key: str | None = None,
        limit: int = SCAN_MAX_PAGE,
        range_condition: tuple[str, ...] | None = None,
    ) -> IndexQueryResult:
        """One page of a Query against a GSI, for any of ``key_values``.

        Accepting several key values in one request is the batch-query
        front-end (the IN-list analogue of SimpleDB's disjunctions),
        kept so request counts stay comparable across backends. Reads
        are **always eventually consistent** — entries come off one of
        the index's replicas, which converge on their own schedule —
        and read units are charged on the projected entry bytes the
        page crosses (min one unit, halved for the eventual read),
        metered on the :data:`~repro.aws.billing.DDB_GSI` billing key.
        Pages bound by ``limit`` items or the shared byte budget.

        ``range_condition`` (composite indexes only) restricts the page
        to the partition slice satisfying the key condition — one of
        ``(">=", lo)``, ``("<=", hi)``, ``(">", lo)``, ``("<", hi)`` or
        ``("between", lo, hi)``, compared lexicographically against the
        entry's range value. The slice is what the page budget is spent
        on — entries outside it are never crossed, which is exactly the
        saving the planner buys — and the serving costs land on the
        distinct :data:`~repro.aws.billing.DDB_GSI_RANGE` billing key.
        """
        if not key_values:
            raise ValueError("query_index requires at least one key value")
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        table = self._table(table_name)
        index = self._index(table_name, index_name)
        if range_condition is not None:
            if index.spec.range_attribute is None:
                raise ValueError(
                    f"index {index_name!r} has no range key; "
                    "range_condition requires a composite index"
                )
            _validate_range_condition(range_condition)
        snapshot = index.replicas.ordered_snapshot()

        def matches() -> Iterator[tuple[str, ItemState]]:
            # One hash value's entries are the contiguous keys prefixed
            # ``value + SEP``; partitions in value order are index order.
            for value in sorted(set(key_values)):
                after = max(value, exclusive_start_key or "")
                for entry_key, projected in snapshot.between(
                    after, value + _PARTITION_END
                ):
                    if range_condition is not None:
                        rest = entry_key[len(value) + 1:]
                        range_value = rest.rpartition(INDEX_KEY_SEP)[0]
                        if not _range_matches(range_value, range_condition):
                            continue
                    yield entry_key, projected

        billing_key = (
            billing.DDB_GSI_RANGE if range_condition is not None else billing.DDB_GSI
        )
        return self._serve_index_page(
            table, index, matches(), limit, "Query", billing_key
        )

    def _serve_index_page(
        self,
        table: _Table,
        index: _Index,
        matches: Iterator[tuple[str, ItemState]],
        limit: int,
        op: str,
        billing_key: str = billing.DDB_GSI,
    ) -> IndexQueryResult:
        """Shared paging/admission/metering for every GSI read path.

        ``matches`` lazily yields (entry key, projected attrs) in index
        order, already past the pagination token; the page takes what it
        needs and peeks one more for ``last_evaluated_key``. Query and
        Scan differ only in how they select entries, never in how a page
        is budgeted, admitted (the index's own ``rcu`` window when
        provisioned, the base table's otherwise), or billed (eventual
        read units + transfer on ``billing_key`` —
        :data:`~repro.aws.billing.DDB_GSI` except for range-conditioned
        Queries, which land on
        :data:`~repro.aws.billing.DDB_GSI_RANGE`).
        """
        page_limit = min(limit, SCAN_MAX_PAGE)
        entries: list[tuple[str, Attrs]] = []
        page_bytes = 0
        transfer = 0
        entry_key = None
        for entry_key, projected in matches:
            item_name = entry_key.rpartition(INDEX_KEY_SEP)[2]
            entries.append((item_name, {**projected}))
            page_bytes += _entry_size(entry_key, projected)
            transfer += len(item_name.encode()) + projected.nbytes
            if len(entries) >= page_limit or page_bytes >= units.DDB_PAGE_BYTES:
                break
        base = float(max(1, math.ceil(page_bytes / units.DDB_RCU_BYTES)))
        read_units = base / 2.0  # no strongly consistent GSI reads exist
        self._check_faults(op)
        if index.spec.rcu is not None:
            self._admit(table, 0.0, 0.0, [(index, read_units, 0.0)])
        else:
            self._admit(table, read_units, 0.0)
        self._meter.record_request(billing_key, op)
        self._meter.record_capacity(billing_key, read_units=read_units)
        self._meter.record_transfer_out(billing_key, transfer)
        last = entry_key if next(matches, None) is not None else None
        return IndexQueryResult(entries=tuple(entries), last_evaluated_key=last)

    def scan_index(
        self,
        table_name: str,
        index_name: str,
        exclusive_start_key: str | None = None,
        limit: int = SCAN_MAX_PAGE,
    ) -> IndexQueryResult:
        """One page of a Scan over a GSI's entries, in index-key order.

        Real DynamoDB supports scanning a GSI; with an ``ALL``
        projection (:attr:`IndexSpec.project_all`) that makes the index
        a *migration read path*: a layout migration streams full items off the
        index's entry space instead of the base table, paying read
        units (on the :data:`~repro.aws.billing.DDB_GSI` key, against
        the index's own capacity when provisioned) sized by the entries
        it crosses. Always eventually consistent, like every GSI read;
        an item appears once per value of the indexed attribute, so
        callers deduplicate by item name.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        table = self._table(table_name)
        index = self._index(table_name, index_name)
        matches = index.replicas.ordered_snapshot().between(exclusive_start_key)
        return self._serve_index_page(table, index, matches, limit, "Scan")

    def index_distinct_item_count(self, table_name: str, index_name: str) -> int:
        """Distinct items with at least one entry in the index's
        *converged* view. Unmetered (DescribeTable-style schema/size
        metadata clients cache) — what a migration compares against
        :meth:`item_count` to decide whether a sparse index really
        covers the whole table before streaming from it."""
        index = self._index(table_name, index_name)
        entry_keys = index.replicas.authoritative_keys()
        return len({key.rpartition(INDEX_KEY_SEP)[2] for key in entry_keys})

    def describe_table(self, table_name: str) -> dict:
        """Table and per-index statistics — what the query planner's
        cost model consumes.

        Every figure is maintained **incrementally** at write-commit
        time (never sampled or scanned): the table's item count and
        authoritative byte total, and per index its entry count, entry
        bytes, the distinct hash-key values with their exact entry
        counts, and the current replication lag. Metered as one
        DynamoDB request (the DescribeTable control-plane call), priced
        by the ``dynamodb.requests`` line — deliberately cheap next to
        the data-plane requests the planner's choice avoids.
        """
        table = self._table(table_name)
        self._request("DescribeTable")
        return {
            "item_count": len(table.authority),
            "table_bytes": table.total_bytes,
            "indexes": {
                name: {
                    "range_attribute": index.spec.range_attribute,
                    "entry_count": index.entry_count,
                    "entry_bytes": index.entry_bytes,
                    "distinct_keys": len(index.key_counts),
                    "key_counts": dict(index.key_counts),
                    "key_bytes": dict(index.key_bytes),
                    "range_counts": dict(index.range_counts),
                    "range_bytes": dict(index.range_bytes),
                    "lag_seconds": index.replicas.lag_seconds(),
                }
                for name, index in table.indexes.items()
            },
        }

    # -- oracle helpers (tests/migration verification) ----------------------

    def authoritative_item(self, table_name: str, key: str) -> Attrs | None:
        state = self._tables.get(table_name)
        if state is None:
            return None
        found = state.authority.get(key)
        return dict(found) if found is not None else None

    def authoritative_item_names(self, table_name: str) -> list[str]:
        table = self._tables.get(table_name)
        return table.replicas.authoritative_keys() if table is not None else []

    def item_count(self, table_name: str) -> int:
        table = self._tables.get(table_name)
        return len(table.authority) if table is not None else 0

    def authoritative_index_entries(
        self, table_name: str, index_name: str
    ) -> dict[tuple[str, str], Attrs]:
        """The index's converged view: (key position, item name) →
        projected attributes — the key position is the hash value for a
        simple index, ``hash\\x00range`` for a composite one. Oracle
        read bypassing index replication."""
        index = self._index(table_name, index_name)
        entries: dict[tuple[str, str], Attrs] = {}
        for entry_key, projected in index.replicas.authoritative_items():
            value, _, item_name = entry_key.rpartition(INDEX_KEY_SEP)
            entries[(value, item_name)] = dict(projected)
        return entries

    def index_converged(self, table_name: str, index_name: str) -> bool:
        """True when every index replica matches the converged view."""
        return self._index(table_name, index_name).replicas.is_converged()

    def size_audit(self) -> list[str]:
        """Stored item and entry-projection sizes, ``total_bytes``, each
        index's ``entry_bytes`` and the meter's two stored levels, each
        against a from-scratch measurement
        (:func:`repro.aws.item.size_audit`); ``[]`` when all agree."""
        spaces = []
        for name, table in self._tables.items():
            spaces.append((
                f"ddb/{name}", billing.DDB, table.replicas, table.total_bytes,
                lambda key: _item_size(key, ABSENT),
            ))
            spaces += [
                (f"ddb/{name}/{index.spec.name}", billing.DDB_GSI, index.replicas,
                 index.entry_bytes, lambda key: _entry_size(key, ABSENT))
                for index in table.indexes.values()
            ]
        return size_audit(self._meter, (billing.DDB, billing.DDB_GSI), spaces)

    # -- internals ----------------------------------------------------------

    def _check_faults(self, op: str) -> None:
        """Fault injection, before ANY state mutation (so a retried 503
        cannot double-charge the admission window or the meter)."""
        self._faults.before_request(billing.DDB, op)

    def _request(self, op: str) -> None:
        self._check_faults(op)
        self._meter.record_request(billing.DDB, op)
