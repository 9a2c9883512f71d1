"""The ProvenanceBackend protocol: one shard store, two services.

Extracted from the SimpleDB-only store path so the shard router can
place each provenance shard on a *named backend* — the paper's single
SimpleDB domain (§4.2) or the DynamoDB-style service
(:mod:`repro.aws.dynamo`). Every writer (the A2 client path, the A3
commit daemon), the rebalancer, and all three query classes go through
this protocol, so adding a backend never forks the store protocol
logic.

Two implementations:

* :class:`SimpleDBBackend` — a zero-cost adapter over
  :class:`~repro.aws.simpledb.SimpleDBService`. It issues **exactly**
  the request sequences the pre-protocol code issued (same operations,
  same batching, same pagination), so an all-SimpleDB placement is
  byte-identical on the billing meter to the historical engine — the
  invariant ``benchmarks/check_baselines.py`` and the backend property
  suite pin.
* :class:`DynamoBackend` — maps the same item model onto the
  DynamoDB-style service: ``put`` becomes one idempotent string-set
  ``UpdateItem`` (no 100-attribute batching — DynamoDB has no such
  limit), point reads become ``GetItem`` (eventually consistent by
  default, like SimpleDB replica reads; ``consistent_reads=True`` buys
  strong reads at double the read units). Query phases are served from
  a **global secondary index** when the table carries one whose key
  attribute the predicate restricts by equality and whose projection
  covers every attribute the predicate (and the caller's projection)
  references: the adapter extracts the equality values from the *same*
  compiled predicate SimpleDB evaluates server-side, pages the index
  Query, and re-applies the predicate to the projected entries. When no
  usable index exists — or the chosen index is lagging its base table
  past ``index_staleness_bound`` simulated seconds — the phase falls
  back to the paged ``Scan`` + client-side filter path, so result sets
  are identical across backends while the metered cost differs
  honestly. Throttled requests back off by advancing the simulated
  clock.

Index declarations come from :func:`parse_index_specs` (a
``Simulation``/``ClientFleet`` argument, or ``repro demo
--ddb-indexes``): a
comma-separated list of key attributes, each optionally followed by
``+included`` projection attributes — ``"name,input"`` declares the two
provenance GSIs (program lookups key on ``name``, cross-reference
phases on ``input``; both project ``type``) that serve Q2/Q3.

Backend *kinds* are the short names placement maps use: ``"sdb"`` and
``"ddb"`` (see :func:`repro.sharding.parse_placement`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol

from repro.aws.dynamo import DynamoDBService, IndexSpec
from repro.aws.faults import call_with_retries
from repro.aws.sdb_query import (
    BoolOp,
    BracketPredicate,
    Comparison,
    CompiledQuery,
    Node,
    Not,
    Null,
    parse_query,
    run_query,
)
from repro.aws.simpledb import Attribute, SimpleDBService
from repro.errors import ProvisionedThroughputExceeded
from repro.units import (
    DDB_MAX_BATCH_WRITE_ITEMS,
    SDB_MAX_ATTRS_PER_CALL,
    SDB_MAX_BATCH_PUT_ITEMS,
)

#: Backend kind names, as used in placement maps and CLI knobs.
SDB_KIND = "sdb"
DDB_KIND = "ddb"
BACKEND_KINDS = (SDB_KIND, DDB_KIND)

#: What the ``"auto"`` spec enables: the two indexes the provenance
#: query workload wants — Q2 phase 1 keys on ``name``, Q2 phase 2 and
#: every Q3 BFS round key on ``input``; both project ``type`` so the
#: engine's predicates and projections evaluate entirely on the index.
DEFAULT_DDB_INDEXES = "name,input"

#: Projection included when a spec names only the key attribute.
DEFAULT_INDEX_INCLUDE = ("type",)

#: How stale (simulated seconds of replication lag) an index may run
#: before the adapter prefers a base-table Scan over querying it.
INDEX_STALENESS_BOUND = 5.0


def parse_index_specs(
    spec: str | tuple[IndexSpec, ...] | list[IndexSpec] | None = None,
) -> tuple[IndexSpec, ...]:
    """Normalise a GSI spec to a tuple of :class:`IndexSpec`.

    Accepted specs:

    * ``None`` / ``""`` / ``"none"`` / ``"off"`` — no indexes (the
      scan-only default);
    * ``"auto"`` / ``"default"`` / ``"on"`` — the provenance defaults
      (:data:`DEFAULT_DDB_INDEXES`);
    * ``"name,input"`` — one index per key attribute, projecting
      :data:`DEFAULT_INDEX_INCLUDE`;
    * ``"input+type+name"`` — explicit ``key+include+include`` parts;
    * ``"type+*"`` — a ``*`` include is DynamoDB's ``ALL`` projection
      (entries carry the whole item — what index-streamed migration
      reads need);
    * ``"name@40"`` / ``"input+type@40:20"`` — an ``@WCU[:RCU]`` suffix
      provisions the index's *own* capacity, so its maintenance writes
      (and Query reads, with ``:RCU``) throttle independently of the
      base table's window;
    * ``"name/nonce+*"`` / ``"type/nonce"`` — a ``hash/range`` key pair
      declares a **composite** index (DynamoDB's hash+range schema):
      entries sort by the range attribute within each hash partition
      and ``query_index`` can serve range conditions
      (``between``/``>=``/``<=``) over one contiguous slice. Composite
      indexes are sparse on *both* attributes, so a query phase may only
      be served from one when its predicate constrains the range
      attribute (see :meth:`DynamoBackend.candidate_paths`);
    * a sequence of ready :class:`IndexSpec` objects (passed through).

    >>> [s.name for s in parse_index_specs("name,input")]
    ['gsi-name', 'gsi-input']
    >>> spec, = parse_index_specs("type+*@40:20")
    >>> (spec.project_all, spec.wcu, spec.rcu)
    (True, 40, 20)
    """
    if spec is None:
        return ()
    if not isinstance(spec, str):
        return tuple(spec)
    text = spec.strip()
    if not text or text.lower() in ("none", "off"):
        return ()
    if text.lower() in ("auto", "default", "on"):
        text = DEFAULT_DDB_INDEXES
    specs: list[IndexSpec] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        part, _, capacity = part.partition("@")
        wcu = rcu = None
        if capacity:
            wcu_text, _, rcu_text = capacity.partition(":")
            try:
                wcu = int(wcu_text)
                rcu = int(rcu_text) if rcu_text else None
            except ValueError:
                raise ValueError(f"bad DynamoDB index capacity {spec!r}") from None
        key, *include = [piece.strip() for piece in part.split("+")]
        if not key or not all(include):
            raise ValueError(f"bad DynamoDB index spec {spec!r}")
        key, slash, range_attr = key.partition("/")
        if slash and not (key and range_attr):
            raise ValueError(f"bad DynamoDB index spec {spec!r}")
        project_all = "*" in include
        include = tuple(piece for piece in include if piece != "*")
        specs.append(
            IndexSpec(
                name=f"gsi-{key}-{range_attr}" if range_attr else f"gsi-{key}",
                key_attribute=key,
                range_attribute=range_attr or None,
                include=include or (() if project_all else DEFAULT_INDEX_INCLUDE),
                project_all=project_all,
                wcu=wcu,
                rcu=rcu,
            )
        )
    return tuple(specs)


def _range_candidates(node: Node) -> dict[str, tuple[str | None, str | None]]:
    """Attributes a predicate constrains to an inclusive value range.

    For each returned ``attribute → (lo, hi)`` (either bound may be
    ``None`` = unbounded), *every* item matching the predicate carries
    at least one value of that attribute inside the range — both the
    presence guarantee a sparse composite index needs (an item lacking
    the range attribute has no entries, and also cannot match the
    predicate) and the slice-superset guarantee that makes a
    range-conditioned index Query sound (query the slice, then re-apply
    the full predicate). Strict bounds are relaxed to inclusive ones —
    a slightly wider slice is still a superset.
    """
    if isinstance(node, BracketPredicate):
        lo: str | None = None
        hi: str | None = None
        for group in node.conjunctions:
            # Only singleton groups constrain: an OR-group is satisfied
            # by any of its comparisons, so it pins nothing by itself.
            if len(group) != 1:
                continue
            comparison = group[0]
            if comparison.op in (">=", ">", "="):
                if lo is None or comparison.value > lo:
                    lo = comparison.value
            if comparison.op in ("<=", "<", "="):
                if hi is None or comparison.value < hi:
                    hi = comparison.value
        if lo is None and hi is None:
            return {}
        return {node.attribute: (lo, hi)}
    if isinstance(node, Comparison) and not node.every:
        if node.op in (">=", ">"):
            return {node.attribute: (node.value, None)}
        if node.op in ("<=", "<"):
            return {node.attribute: (None, node.value)}
        if node.op == "=":
            return {node.attribute: (node.value, node.value)}
        return {}
    if isinstance(node, BoolOp):
        left = _range_candidates(node.left)
        right = _range_candidates(node.right)
        if node.op == "and":
            # Both sides must hold: intersect bounds per attribute.
            merged = dict(left)
            for attribute, (lo, hi) in right.items():
                if attribute in merged:
                    mlo, mhi = merged[attribute]
                    if lo is None or (mlo is not None and mlo > lo):
                        lo = mlo
                    if hi is None or (mhi is not None and mhi < hi):
                        hi = mhi
                merged[attribute] = (lo, hi)
            return merged
        # OR: only attributes constrained on *both* sides stay
        # constrained, by the union (widest) of the two ranges.
        merged = {}
        for attribute in left:
            if attribute not in right:
                continue
            llo, lhi = left[attribute]
            rlo, rhi = right[attribute]
            lo = None if llo is None or rlo is None else min(llo, rlo)
            hi = None if lhi is None or rhi is None else max(lhi, rhi)
            if lo is not None or hi is not None:
                merged[attribute] = (lo, hi)
        return merged
    return {}  # Not / Null / MatchAll constrain nothing


def range_condition_for(bounds: tuple[str | None, str | None]) -> tuple[str, ...]:
    """Convert inclusive ``(lo, hi)`` bounds to a ``query_index`` range
    condition tuple."""
    lo, hi = bounds
    if lo is not None and hi is not None:
        return ("between", lo, hi)
    if lo is not None:
        return (">=", lo)
    assert hi is not None
    return ("<=", hi)


@dataclass(frozen=True)
class AccessPath:
    """One executable access path for a query phase on one shard store.

    ``kind`` is ``"sdb"`` (the SimpleDB native query — the only path
    that backend has), ``"scan"`` (paged base-table Scan + client-side
    filter), ``"gsi"`` (equality Query over a secondary index for
    ``values``), or ``"gsi-range"`` (composite-index Query for
    ``values`` with ``range_condition`` restricting the partition
    slice). Each backend lists the paths sound for a predicate through
    ``candidate_paths`` (native default first, then every usable index
    in declaration order — the first ``"gsi"`` entry is what
    ``plan_first_fit`` returns and ``query_pages(path=None)`` runs);
    the planner prices them and hands the winner back through
    ``query_pages(..., path=...)``.
    """

    kind: str
    index: IndexSpec | None = None
    values: tuple[str, ...] = ()
    range_condition: tuple[str, ...] | None = None


#: The backend-native default paths (module-level singletons so plan
#: comparisons are cheap identity checks).
SDB_PATH = AccessPath("sdb")
SCAN_PATH = AccessPath("scan")


def _referenced_attributes(node: Node) -> frozenset[str]:
    """Every attribute the predicate reads — all must be projected for
    the predicate to evaluate identically on index entries."""
    if isinstance(node, (BracketPredicate, Comparison, Null)):
        return frozenset((node.attribute,))
    if isinstance(node, BoolOp):
        return _referenced_attributes(node.left) | _referenced_attributes(node.right)
    if isinstance(node, Not):
        return _referenced_attributes(node.operand)
    return frozenset()


def _paged(fetch, token_attr: str = "next_token"):
    """Every page of one continuation-token read, lazily: ``fetch(token)``
    issues one request (``None`` = from the start) and the page's
    ``token_attr`` resumes it. A page is handed over before the next is
    requested, so a consumer that stops early pays for no further page."""
    token = None
    while True:
        page = fetch(token)
        yield page
        token = getattr(page, token_attr)
        if token is None:
            return


class ProvenanceBackend(Protocol):
    """What a shard store must provide to hold provenance items.

    A *store* is one shard's namespace: a SimpleDB domain or a DynamoDB
    style table, named identically on either backend (``pass-prov``,
    ``pass-prov-00``, ...). Items are ``name -> tuple-of-values``
    attribute maps — the shape the serialiser produces — and writes
    merge values as sets, so replaying any write is idempotent on every
    backend.
    """

    #: Short kind name ("sdb" / "ddb") — what placement maps reference.
    kind: str

    def provision(self, store: str) -> None:
        """Create the shard store (idempotent)."""
        ...

    def drop(self, store: str) -> None:
        """Delete the shard store and everything in it."""
        ...

    def put_provenance_item(
        self, store: str, item_name: str, attributes: list[tuple[str, str]]
    ) -> None:
        """Merge attribute values into one item, per backend limits."""
        ...

    def put_provenance_items(
        self, store: str, items: list[tuple[str, list[tuple[str, str]]]]
    ) -> None:
        """Merge many items in as few round trips as the backend's batch
        API allows. Same merge semantics as repeated
        :meth:`put_provenance_item` — replaying any batch is idempotent —
        but the request count (and therefore the per-request charges)
        amortises across the batch."""
        ...

    def delete_item(self, store: str, item_name: str) -> None:
        """Remove one whole item (idempotent)."""
        ...

    def get_item(self, store: str, item_name: str) -> dict[str, tuple[str, ...]]:
        """Point-read one item's attributes ({} when not visible)."""
        ...

    def query_pages(
        self,
        store: str,
        expression: str,
        select: str,
        select_mode: bool,
        attribute_names: list[str] | None,
        compiled: CompiledQuery | None = None,
        path: AccessPath | None = None,
    ) -> Iterator[tuple[str, dict[str, tuple[str, ...]]]]:
        """Matching (item name, projected attrs) pairs, paged through
        the backend's native read path.

        ``compiled`` is the pre-parsed form of ``expression`` — callers
        issuing the same query against many shards compile once and pass
        it through (parsing is client CPU, never metered, so this is
        meter-neutral). ``path`` pins a specific
        :class:`AccessPath` chosen by the query planner; ``None`` keeps
        the backend's native choice (SimpleDB Select / first-fit GSI).
        """
        ...

    def site_statistics(self, store: str) -> dict:
        """Metered store statistics for the query planner's cost model
        (DomainMetadata / DescribeTable — cheap, incrementally
        maintained by the service, never sampled)."""
        ...

    def enumerate_items(
        self, store: str
    ) -> Iterator[tuple[str, dict[str, tuple[str, ...]]]]:
        """Every item with full attributes, via the backend's natural
        full-read pattern (what Q1-over-everything costs here)."""
        ...

    def scan_pages(
        self, store: str
    ) -> Iterator[tuple[str, dict[str, tuple[str, ...]]]]:
        """Every item with full attributes, for migration/recovery scans."""
        ...

    def migration_pages(
        self, store: str
    ) -> tuple[bool, Iterator[tuple[str, dict[str, tuple[str, ...]]]]]:
        """Best full-item read stream for a migration: (via_index, pages).

        ``via_index`` is True when the stream comes off a covering
        (ALL-projection) secondary index instead of the base store —
        cheaper pages on the DynamoDB-style backend, impossible on
        SimpleDB.
        """
        ...

    def item_count(self, store: str) -> int:
        """Authoritative number of items (skew reporting; 0 if absent)."""
        ...

    def authoritative_item(
        self, store: str, item_name: str
    ) -> dict[str, tuple[str, ...]] | None:
        """Oracle read bypassing replication (tests/migration checks)."""
        ...

    def authoritative_item_names(self, store: str) -> list[str]:
        ...


class SimpleDBBackend:
    """The paper's backend: one SimpleDB domain per shard store.

    Request sequences are byte-identical to the pre-protocol code paths
    — the meter cannot tell this adapter from the historical inline
    calls (the baselines gate enforces exactly that).
    """

    kind = SDB_KIND

    def __init__(self, service: SimpleDBService):
        self.service = service

    def provision(self, store: str) -> None:
        self.service.create_domain(store)

    def drop(self, store: str) -> None:
        self.service.delete_domain(store)

    def put_provenance_item(
        self, store: str, item_name: str, attributes: list[tuple[str, str]]
    ) -> None:
        """PutAttributes in batches of ≤100 (§4.2 step 3 / §4.3 2(c))."""
        attrs = [Attribute(name, value) for name, value in attributes]
        for start in range(0, len(attrs), SDB_MAX_ATTRS_PER_CALL):
            call_with_retries(
                self.service.put_attributes,
                store,
                item_name,
                attrs[start : start + SDB_MAX_ATTRS_PER_CALL],
            )

    def put_provenance_items(
        self, store: str, items: list[tuple[str, list[tuple[str, str]]]]
    ) -> None:
        """BatchPutAttributes in calls of ≤25 entries.

        An item wider than the 100-attributes-per-entry limit becomes
        several entries for the same item name (the service merges
        repeated entries sequentially, so the result matches chunked
        PutAttributes calls); entries then pack into ≤25-entry batch
        calls. One batch call bills one box-usage charge where the
        single-item path would bill up to 25.
        """
        entries: list[tuple[str, list[Attribute]]] = []
        for item_name, attributes in items:
            attrs = [Attribute(name, value) for name, value in attributes]
            for start in range(0, len(attrs), SDB_MAX_ATTRS_PER_CALL):
                entries.append(
                    (item_name, attrs[start : start + SDB_MAX_ATTRS_PER_CALL])
                )
        for start in range(0, len(entries), SDB_MAX_BATCH_PUT_ITEMS):
            call_with_retries(
                self.service.batch_put_attributes,
                store,
                entries[start : start + SDB_MAX_BATCH_PUT_ITEMS],
            )

    def delete_item(self, store: str, item_name: str) -> None:
        self.service.delete_attributes(store, item_name)

    def get_item(self, store: str, item_name: str) -> dict[str, tuple[str, ...]]:
        return self.service.get_attributes(store, item_name)

    def query_pages(
        self,
        store,
        expression,
        select,
        select_mode,
        attribute_names,
        compiled=None,
        path=None,
    ):
        """Query/QueryWithAttributes (or SELECT) with result pagination
        — the §2.2 front-ends, projected server-side.

        ``compiled`` and ``path`` are accepted for protocol parity and
        ignored: SimpleDB evaluates the wire expression server-side and
        has exactly one access path, so the request sequence (and the
        meter) cannot depend on either.
        """
        if select_mode:
            pages = self._pages(self.service.select, select)
        else:
            pages = self._pages(
                self.service.query_with_attributes,
                store,
                expression,
                attribute_names=attribute_names,
            )
        for page in pages:
            yield from page.items

    def _pages(self, request, *args, **kwargs):
        """Every page of one ``next_token``-paged service read."""
        return _paged(lambda token: request(*args, next_token=token, **kwargs))

    def enumerate_items(self, store):
        """The §5 Q1-over-everything pattern: page every item *name*
        with Query, then one GetAttributes per item — SimpleDB cannot
        "generalise the query", so each item is its own round trip."""
        names = [
            name
            for page in self._pages(self.service.query, store, None)
            for name in page.item_names
        ]
        for item_name in names:
            yield item_name, self.service.get_attributes(store, item_name)

    def scan_pages(self, store):
        """Full-domain QueryWithAttributes paging (migration/recovery)."""
        for page in self._pages(self.service.query_with_attributes, store, None):
            yield from page.items

    def migration_pages(self, store):
        """SimpleDB has no secondary access path — always the scan."""
        return False, self.scan_pages(store)

    def site_statistics(self, store: str) -> dict:
        """One metered DomainMetadata call — item/byte counts plus
        per-attribute distinct-value aggregates."""
        return call_with_retries(self.service.domain_metadata, store)

    def plan_first_fit(self, store, compiled, wanted) -> AccessPath:
        """SimpleDB's first fit is its only fit."""
        return SDB_PATH

    def candidate_paths(self, store, compiled, wanted) -> list[AccessPath]:
        """The one access path this backend has: server-side Select."""
        return [SDB_PATH]

    def item_count(self, store: str) -> int:
        return self.service.item_count(store)

    def authoritative_item(self, store, item_name):
        return self.service.authoritative_item(store, item_name)

    def authoritative_item_names(self, store: str) -> list[str]:
        return self.service.authoritative_item_names(store)


class DynamoBackend:
    """A shard store on the DynamoDB-style service (one table each).

    ``consistent_reads=True`` upgrades point reads and scans to strongly
    consistent (double read units, no replica staleness) — per-backend
    the choice SimpleDB never offered. Index queries stay eventually
    consistent regardless (GSIs offer nothing stronger).

    ``index_specs`` (a spec string or ready :class:`IndexSpec` tuple;
    default none) declares the
    GSIs :meth:`provision` creates on every shard table; query phases
    whose predicate an index can serve then use it instead of scanning,
    unless the index's replication lag exceeds
    ``index_staleness_bound`` simulated seconds.
    """

    kind = DDB_KIND

    #: Simulated-clock seconds one throttled request backs off before
    #: retrying (a fresh admission window opens every second).
    backoff_seconds = 0.25
    #: Bounded backoff attempts: a table too small for even one request
    #: per window must surface the throttle, not spin forever.
    max_backoffs = 400

    def __init__(
        self,
        service: DynamoDBService,
        consistent_reads: bool = False,
        index_specs: str | tuple[IndexSpec, ...] | None = None,
        index_staleness_bound: float | None = INDEX_STALENESS_BOUND,
    ):
        self.service = service
        self.consistent_reads = consistent_reads
        self.index_specs = parse_index_specs(index_specs)
        self.index_staleness_bound = index_staleness_bound
        #: Throttle events ridden out (observability for benchmarks).
        self.throttled_requests = 0
        #: query_pages calls served by a GSI Query.
        self.gsi_queries = 0
        #: query_pages calls that fell back to Scan (no usable index).
        self.scan_fallbacks = 0
        #: Fallbacks caused specifically by the staleness bound.
        self.stale_index_fallbacks = 0
        #: Write units spent backfilling indexes at provision time.
        self.index_backfill_units = 0.0
        #: migration_pages calls served off an ALL-projection GSI.
        self.migration_index_streams = 0

    # Admission control: provisioned throughput is per simulated second,
    # so backing off means advancing the simulated clock — the client
    # *waits*, exactly like SDK exponential backoff against 400s.
    def _with_backoff(self, fn, *args, **kwargs):
        for _ in range(self.max_backoffs):
            try:
                return call_with_retries(fn, *args, **kwargs)
            except ProvisionedThroughputExceeded:
                self.throttled_requests += 1
                self.service.clock.advance(self.backoff_seconds)
        return call_with_retries(fn, *args, **kwargs)  # last try surfaces it

    def provision(self, store: str) -> None:
        """Create the shard table and its declared GSIs (idempotent).

        Creating an index on a table that already holds items backfills
        it; the backfill's metered write units accumulate on
        :attr:`index_backfill_units` (what a migration pays to make a
        destination queryable by index).
        """
        self.service.create_table(store)
        for spec in self.index_specs:
            self.index_backfill_units += self.service.create_index(store, spec)

    def drop(self, store: str) -> None:
        self.service.delete_table(store)

    def put_provenance_item(
        self, store: str, item_name: str, attributes: list[tuple[str, str]]
    ) -> None:
        """One string-set UpdateItem — no attribute batching limit."""
        self._with_backoff(self.service.update_item, store, item_name, list(attributes))

    def put_provenance_items(
        self, store: str, items: list[tuple[str, list[tuple[str, str]]]]
    ) -> None:
        """BatchWriteItem in calls of ≤25 put requests.

        Write units price the bytes either way — what the batch saves is
        the per-request charge. The service admits each entry against
        the provisioned window independently and hands back the rest as
        ``UnprocessedItems``; this loop retries exactly that remainder
        after the standard backoff, mirroring :meth:`_with_backoff`'s
        accounting (each retry round counts one throttle event and
        advances the simulated clock).
        """
        pending = [(name, list(attrs)) for name, attrs in items]
        while pending:
            chunk = pending[:DDB_MAX_BATCH_WRITE_ITEMS]
            rest = pending[DDB_MAX_BATCH_WRITE_ITEMS:]
            backoffs = 0
            while chunk:
                try:
                    chunk = call_with_retries(
                        self.service.batch_write_item, store, chunk
                    )
                except ProvisionedThroughputExceeded:
                    # Every entry throttled: nothing applied, nothing
                    # metered — retry the whole chunk (or surface it).
                    if backoffs >= self.max_backoffs:
                        raise
                if not chunk:
                    break
                if backoffs >= self.max_backoffs:
                    raise ProvisionedThroughputExceeded(
                        f"BatchWriteItem left {len(chunk)} unprocessed entries "
                        f"after {self.max_backoffs} backoffs"
                    )
                backoffs += 1
                self.throttled_requests += 1
                self.service.clock.advance(self.backoff_seconds)
            pending = rest

    def delete_item(self, store: str, item_name: str) -> None:
        self._with_backoff(self.service.delete_item, store, item_name)

    def get_item(self, store: str, item_name: str) -> dict[str, tuple[str, ...]]:
        return self._with_backoff(
            self.service.get_item, store, item_name, consistent=self.consistent_reads
        )

    def _pages(self, request, *args, **kwargs):
        """Every page of one paged service read, each request riding out
        throttles through :meth:`_with_backoff`."""
        return _paged(
            lambda key: self._with_backoff(
                request, *args, exclusive_start_key=key, **kwargs
            ),
            "last_evaluated_key",
        )

    def _scan_all(self, store: str):
        """Paged Scan over the whole table (the only read path there is)."""
        for page in self._pages(
            self.service.scan, store, consistent=self.consistent_reads
        ):
            yield from page.items

    def _stale(self, store: str, spec: IndexSpec) -> bool:
        """Whether the index lags its base table past the staleness bound."""
        return (
            self.index_staleness_bound is not None
            and self.service.index_lag_seconds(store, spec.name)
            > self.index_staleness_bound
        )

    def query_pages(
        self,
        store,
        expression,
        select,
        select_mode,
        attribute_names,
        compiled=None,
        path=None,
    ):
        """Serve one logical query from a GSI when possible, else Scan.

        The *same* compiled predicate SimpleDB evaluates server-side is
        used here (``select`` and ``select_mode`` are SimpleDB wire
        language choices and do not apply; callers that already compiled
        the expression pass it via ``compiled``); if it pins an indexed
        attribute to equality values and the index projection covers
        everything the predicate and the caller read, the phase becomes
        a paged index Query over those values — paying read units only
        for matching projected entries — with the predicate re-applied
        client-side (entries may be stale or partial mid-convergence)
        and items deduplicated across entry keys. Otherwise it is the
        scan path: every scanned item is paid for in read units; the
        projection trims only what the caller sees, not what the scan
        cost — DynamoDB's filter-expression accounting.

        ``path=None`` executes the first fit of :meth:`_usable_indexes`;
        a table with no indexes at all scans without counting a
        *fallback* — there was never an index to fall back from.
        ``path`` pins a planner-chosen :class:`AccessPath` instead. A
        pinned index path is re-checked against the staleness bound at
        execution time (plans are made from statistics that may have
        aged); a stale index falls back to the Scan path, counted like
        any other stale fallback.
        """
        if compiled is None:
            compiled = parse_query(expression)
        wanted = None if attribute_names is None else set(attribute_names)
        stale = False
        if path is None:
            for path in self._usable_indexes(store, compiled, wanted):
                if path is not None:
                    break
                stale = True
        elif path.index is not None and self._stale(store, path.index):
            path, stale = None, True
        if path is None:  # nothing usable: the Scan path
            path = SCAN_PATH
            if stale or self.service.list_indexes(store):
                self.scan_fallbacks += 1
            if stale:
                self.stale_index_fallbacks += 1
        if path.index is not None:
            self.gsi_queries += 1
            matches = self._index_items(
                self.service.query_index,
                store,
                path.index.name,
                list(path.values),
                range_condition=path.range_condition,
                keep=compiled.matches,
            )
        else:
            matches = run_query(list(self._scan_all(store)), compiled)
        for item_name, attrs in matches:
            yield item_name, {
                k: v for k, v in attrs.items() if wanted is None or k in wanted
            }

    def _usable_indexes(
        self, store: str, compiled: CompiledQuery, wanted: set[str] | None
    ) -> Iterator[AccessPath | None]:
        """Every sound index path for a compiled predicate, lazily, in
        index declaration order — the one eligibility rule first fit,
        the fallback counters and the cost planner all read.

        An index is usable when the predicate pins its key attribute to
        an equality value set (the superset guarantee of
        :func:`equality_candidates`), its projection covers every
        attribute the predicate references plus the caller's requested
        projection (an ``ALL``-projection index covers anything,
        including full-item reads), and its replication lag is inside
        the staleness bound. A *composite* index is additionally usable
        only when the predicate constrains its range attribute (the
        index is sparse on that attribute, so an unconstrained predicate
        could match items the index has no entries for).

        Each usable index yields its hash-equality ``"gsi"`` path; a
        composite one then yields the ``"gsi-range"`` twin over the
        predicate's slice (strictly fewer entries served — the cost
        planner's improvement, never the first fit). An index that is
        eligible but stale yields ``None`` instead, so the executing
        caller can tell a staleness fallback from "no index fits";
        counter-neutral itself.
        """
        specs = self.service.list_indexes(store)
        if not specs:
            return
        candidates = compiled.pinned
        ranges = _range_candidates(compiled.predicate)
        referenced = _referenced_attributes(compiled.predicate)
        for spec in specs:
            values = candidates.get(spec.key_attribute)
            if not values:
                continue
            if spec.range_attribute is not None and spec.range_attribute not in ranges:
                continue
            if not spec.covers(referenced):
                continue
            if not spec.project_all and (wanted is None or not spec.covers(wanted)):
                continue
            if self._stale(store, spec):
                yield None
                continue
            ordered = tuple(sorted(set(values)))
            yield AccessPath("gsi", spec, ordered)
            if spec.range_attribute is not None:
                yield AccessPath(
                    "gsi-range",
                    spec,
                    ordered,
                    range_condition_for(ranges[spec.range_attribute]),
                )

    def plan_first_fit(
        self, store: str, compiled: CompiledQuery, wanted: set[str] | None
    ) -> AccessPath:
        """What ``path=None`` would execute, without touching the
        fallback counters (the planner's baseline mode predicts this
        path's cost but execution still does its own accounting)."""
        usable = filter(None, self._usable_indexes(store, compiled, wanted))
        return next(usable, SCAN_PATH)

    def candidate_paths(
        self, store: str, compiled: CompiledQuery, wanted: set[str] | None
    ) -> list[AccessPath]:
        """Every sound access path for a compiled predicate, Scan first;
        the first ``"gsi"`` entry (if any) is the first fit."""
        return [SCAN_PATH, *filter(None, self._usable_indexes(store, compiled, wanted))]

    def _index_items(self, request, store: str, *args, keep=None, **kwargs):
        """Paged index read, deduplicated to one yield per item (the
        service hands out each page's entries as fresh copies).

        ``keep`` filters entries *before* they count as seen: an item
        holding two indexed values has two entries, and one whose
        replica still carries a stale projection failing the predicate
        must not mask the other.
        """
        seen: set[str] = set()
        for page in self._pages(request, store, *args, **kwargs):
            for item_name, attrs in page.entries:
                if item_name in seen or (keep is not None and not keep(attrs)):
                    continue
                seen.add(item_name)
                yield item_name, attrs

    def enumerate_items(self, store):
        """Scan pages already carry full items — no per-item round trip
        (the backend-appropriate Q1-over-everything read)."""
        yield from self._scan_all(store)

    def scan_pages(self, store):
        yield from self._scan_all(store)

    def migration_pages(self, store):
        """Stream a migration read off a covering GSI when one exists.

        Eligible indexes project ``ALL`` (entries carry the full item),
        are inside the staleness bound, and — because GSIs are sparse —
        demonstrably cover every item (the DescribeTable-style distinct
        entry count equals the table's item count). Pages then cost
        :data:`~repro.aws.billing.DDB_GSI` read units sized by compact
        index entries instead of base-table Scan units, and an index
        with its own ``rcu`` keeps the migration's read pressure off
        the base table's admission window entirely. Falls back to the
        base-table Scan otherwise — byte-identical to the pre-index
        migration read path.
        """
        spec = self._migration_index(store)
        if spec is None:
            return False, self._scan_all(store)
        self.migration_index_streams += 1
        return True, self._index_items(self.service.scan_index, store, spec.name)

    def _migration_index(self, store: str) -> IndexSpec | None:
        stale = False
        for spec in self.service.list_indexes(store):
            if not spec.project_all:
                continue
            if self._stale(store, spec):
                stale = True
                continue
            if self.service.index_distinct_item_count(
                store, spec.name
            ) != self.service.item_count(store):
                continue  # sparse: some item lacks the key attribute
            return spec
        if stale:
            # Counted only when the staleness actually forced a
            # base-table scan (same semantics as the query planner).
            self.stale_index_fallbacks += 1
        return None

    def site_statistics(self, store: str) -> dict:
        """One metered DescribeTable call — table and per-index stats
        (item counts, byte totals, distinct index keys) the planner's
        cost model consumes."""
        return self._with_backoff(self.service.describe_table, store)

    def composite_index(
        self,
        store: str,
        hash_attribute: str,
        range_attribute: str,
        project_all: bool = True,
    ) -> IndexSpec | None:
        """A fresh composite ``(hash, range)`` index on the store, or
        None — what ``version_history`` probes before replacing its
        per-version GetItem loop with one range Query. ``project_all``
        demands an ``ALL`` projection (full bundles must be decodable
        straight off the entries)."""
        stale = False
        for spec in self.service.list_indexes(store):
            if spec.key_attribute != hash_attribute:
                continue
            if spec.range_attribute != range_attribute:
                continue
            if project_all and not spec.project_all:
                continue
            if self._stale(store, spec):
                stale = True
                continue
            return spec
        if stale:
            self.stale_index_fallbacks += 1
        return None

    def index_range_entries(
        self,
        store: str,
        index_name: str,
        hash_value: str,
        range_condition: tuple[str, ...],
    ):
        """Paged range Query over one composite-index partition,
        deduplicated, in range-attribute order (composite entries sort
        by range value within the hash partition)."""
        return self._index_items(
            self.service.query_index,
            store,
            index_name,
            [hash_value],
            range_condition=range_condition,
        )

    def item_count(self, store: str) -> int:
        return self.service.item_count(store)

    def authoritative_item(self, store, item_name):
        return self.service.authoritative_item(store, item_name)

    def authoritative_item_names(self, store: str) -> list[str]:
        return self.service.authoritative_item_names(store)
