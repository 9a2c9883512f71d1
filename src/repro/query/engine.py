"""The Q1–Q4 query engines (paper §5, Table 3).

The paper's three representative queries, plus a version-range query:

* **Q1** — given an object and version, retrieve that version's
  provenance. (The paper runs it over *all* objects, since a single
  lookup cannot differentiate the backends.)
* **Q2** — find all files that were outputs of ``blast``: first find the
  blast process instances, then the objects listing one as an input.
* **Q3** — find all descendants of files derived from ``blast``:
  Q2's result set closed transitively over input edges. SimpleDB has no
  recursive queries or stored procedures, so the client iterates —
  one batched query per BFS frontier chunk.
* **Q4** — file versions inside a version window: one range predicate.

Q2–Q4 are declarations over one phase executor:
:meth:`SimpleDBEngine._scatter` takes a phase's queries — *(bracket
expression, SELECT where-clause)* pairs, two spellings of one predicate
— plus a row decoder, and owns site enumeration, compile-once-per-query,
planning, paging, wave dispatch, merging and memoisation.

Each engine method runs inside one :meth:`~repro.aws.billing.Meter.scoped`
block and returns a :class:`QueryMeasurement` whose operation and byte
counts are read from that scope — the queries are charged exactly what
the simulated AWS services metered, in time proportional to the query's
own requests.

Sharded domains (scatter-gather): when the provenance store is split
across N domains by a :class:`~repro.sharding.ShardRouter`, the engine
routes **Q1 to the single shard owning the object's path** (its cost is
independent of N) and **scatters Q2/Q3 across every shard**, merging the
result frontiers client-side between BFS rounds.

Heterogeneous placement: each shard's request stream goes through the
shard's *placed backend* (:mod:`repro.aws.backend`) — SimpleDB shards
answer Q2/Q3 phases with server-side ``Query``/``Select`` predicates and
Q1-over-everything with the §5 one-GetAttributes-per-item pattern, while
DynamoDB-style shards answer every phase with paged ``Scan`` + the same
predicate applied client-side (the service has no query language) and
enumerate items straight off the scan pages. Result sets are identical
across placements; the metered cost is each backend's honest price, and
``QueryMeasurement.per_shard`` / ``per_backend`` keep the exact split.

Waves and ``concurrency=N``: each scatter phase builds one *wave* of
per-shard request streams. The streams execute one after another, in
submission order, whatever the width — a wave is a single list, so a
seeded run issues one reproducible request sequence. Per-stream spend
is captured with a **nested meter scope** per stream, so
``QueryMeasurement.per_shard`` sums exactly to the query's own scope.
``concurrency`` is the width of the *modeled* dispatch: the
measurement's ``latency`` is the **critical path** — per wave, the
makespan of the streams list-scheduled onto ``concurrency`` workers
(``repro.query.latency``) — while ``sequential_latency`` keeps the
one-request-at-a-time sum. Refs, operation counts and ``per_shard``
triples are the same at every width. Caveat: there is no cross-shard
snapshot; each shard answers at its own replica time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, TypeVar

from repro.aws.account import AWSAccount
from repro.aws.billing import ELASTICACHE, MeterScope, Usage
from repro.aws.sdb_query import CompiledQuery, parse_query, quote_literal
from repro.core.base import DATA_BUCKET, fetch_overflow, read_provenance_item
from repro.devtools import sanitize
from repro.errors import NoSuchKey
from repro.knobs import positive_int
from repro.passlib.records import Attr, ObjectRef, ProvenanceBundle
from repro.passlib.serializer import (
    bundle_from_item,
    bundles_from_s3_metadata,
    parse_nonce,
)
from repro.migration.handle import RouterHandle, Site, as_handle, fresh_handle
from repro.query.latency import DEFAULT_LATENCY_MODEL, makespan
from repro.query.planner import QueryPlanner, resolve_planner
from repro.sharding import ShardRouter

T = TypeVar("T")

#: Cross-reference values packed into one bracket predicate (bounded by
#: SimpleDB's query-expression size limits).
REF_BATCH = 20


@dataclass(frozen=True)
class QueryMeasurement:
    """A query's result set plus what it cost to compute.

    ``per_shard`` breaks the spend down as ``(domain, operations,
    bytes_out)`` triples, one per shard domain touched — populated by the
    SimpleDB engine from scoped meter contexts opened around each
    shard's request stream (empty for the S3 scan engine, which has no
    shards). ``per_backend`` rolls the same exact triples up by backend
    kind (``"sdb"``/``"ddb"``) under heterogeneous placement, so the
    cost of a placement decision is auditable per query.

    ``latency`` is the modeled wall-clock of the query as dispatched:
    the sum over scatter phases of each wave's critical path at the
    engine's ``concurrency``; at width 1 it equals
    ``sequential_latency``, the plain sum of per-request round trips
    (see ``repro.query.latency``).

    Per-tier attribution: ``operations``/``bytes_out`` (and the
    ``per_shard``/``per_backend`` splits) count **backend** spend only —
    the requests that reached SimpleDB/DynamoDB/S3. When the read-cache
    tier is on, cache consults and fills are metered separately on
    ``cache_operations``/``cache_bytes_out`` with ``per_shard_cache``
    giving the same per-label split (point-read consults accrue to the
    shard whose stream issued them; memoised-closure consults accrue to
    the ``"elasticache"`` label, as they front a whole scatter phase
    rather than one shard). ``usage`` remains the union — the meter
    truth the bill is priced from. With the cache off every ``cache_*``
    field is zero and the backend counts are the historical totals.

    ``usage`` is read from the query's own meter scope
    (:meth:`~repro.aws.billing.Meter.spent`): every integer field
    equals the ``Meter.snapshot()`` delta around the call, and
    ``box_usage_hours`` is the exact sum of the query's own records
    (e.g. ``0.0006857000000000004``) where subtracting two large
    running totals gives it to ~1e-12 relative
    (``0.0006857000000001084``).
    """

    refs: tuple[ObjectRef, ...]
    operations: int
    bytes_out: int
    usage: Usage
    per_shard: tuple[tuple[str, int, int], ...] = ()
    per_backend: tuple[tuple[str, int, int], ...] = ()
    latency: float = 0.0
    sequential_latency: float = 0.0
    cache_operations: int = 0
    cache_bytes_out: int = 0
    per_shard_cache: tuple[tuple[str, int, int], ...] = ()
    #: The query planner's pre-execution USD estimate for the scatter
    #: phases it planned (chosen access paths plus its own statistics
    #: consults) — put next to the priced ``usage``, it makes the
    #: planner's honesty auditable per query. ``None`` when no planner
    #: ran (planner off, or a query class the planner does not cover).
    predicted_cost: float | None = None

    @property
    def result_count(self) -> int:
        return len(self.refs)

    @property
    def speedup(self) -> float:
        """Modeled sequential/dispatched latency ratio (1.0 when serial)."""
        return self.sequential_latency / self.latency if self.latency else 1.0


class _Metered:
    """Shared query-scope bookkeeping."""

    #: Where the architectures keep data objects and spilled values.
    bucket = DATA_BUCKET
    #: Per-request round-trip model behind ``latency``.
    latency_model = DEFAULT_LATENCY_MODEL

    def __init__(self, account: AWSAccount):
        self.account = account
        #: Resolves a spilled value's ``@s3:`` pointer (a metered GET).
        self._fetch_overflow = partial(fetch_overflow, account)

    def _spent(self, scope: MeterScope) -> tuple[Usage, int, int]:
        """What the query that ran inside ``scope`` spent, and the
        read-cache tier's share of its requests and bytes out (read off
        the scope: the one ``Usage`` a query builds is its own)."""
        return (
            self.account.meter.spent(scope),
            scope.request_count(ELASTICACHE),
            scope.transfer_out(ELASTICACHE),
        )


class S3ScanEngine(_Metered):
    """Queries against architecture A1: scan every object's metadata.

    "If we do not know the exact object whose provenance we seek, then we
    might need to iterate over the provenance of every object in the
    repository, which is so inefficient as to be impractical." (§4.1)
    """

    def __init__(self, account: AWSAccount):
        super().__init__(account)
        #: Objects the last scan skipped because their ``nonce`` metadata
        #: would not parse — a malformed item must not abort the scan.
        self.skipped_items = 0

    # -- scanning -----------------------------------------------------------

    def _data_keys(self) -> list[str]:
        keys: list[str] = []
        marker: str | None = None
        while True:
            page = self.account.s3.list_keys(self.bucket, marker=marker)
            keys.extend(k for k in page.keys if not k.startswith(".pass/"))
            if not page.is_truncated:
                break
            marker = page.next_marker
        return keys

    def scan_bundles(self) -> list[ProvenanceBundle]:
        """HEAD every object; decode its own + piggybacked bundles.

        Objects whose ``nonce`` metadata is malformed are skipped and
        counted on :attr:`skipped_items` instead of aborting the scan.
        """
        bundles: list[ProvenanceBundle] = []
        self.skipped_items = 0
        for key in self._data_keys():
            try:
                head = self.account.s3.head(self.bucket, key)
            except NoSuchKey:
                continue  # replica lag on a brand-new object
            version = parse_nonce(head.metadata.get("nonce", "v0001"))
            if version is None:
                self.skipped_items += 1
                continue
            subject = ObjectRef(key, version)
            own, ancestors = bundles_from_s3_metadata(
                subject, head.metadata, self._fetch_overflow
            )
            bundles.append(own)
            bundles.extend(ancestors)
        return bundles

    # -- the three queries ------------------------------------------------------

    def _measure(self, refs: set[ObjectRef], scope: MeterScope) -> QueryMeasurement:
        usage, cache_ops, cache_bytes = self._spent(scope)
        seconds = self.latency_model.stream_seconds(usage)
        return QueryMeasurement(
            refs=tuple(sorted(refs)),
            operations=scope.request_count() - cache_ops,
            bytes_out=scope.transfer_out() - cache_bytes,
            usage=usage,
            latency=seconds,
            sequential_latency=seconds,
            cache_operations=cache_ops,
            cache_bytes_out=cache_bytes,
        )

    def q1_all(self) -> QueryMeasurement:
        """Provenance of every object version (HEAD + overflow GETs)."""
        with self.account.meter.scoped() as scope:
            refs = {bundle.subject for bundle in self.scan_bundles()}
        return self._measure(refs, scope)

    def q2_outputs_of(self, program: str) -> QueryMeasurement:
        """Files that are outputs of ``program`` — via a full scan."""
        with self.account.meter.scoped() as scope:
            refs = _direct_outputs(self.scan_bundles(), program)
        return self._measure(refs, scope)

    def q3_descendants_of(self, program: str) -> QueryMeasurement:
        """Transitive descendants of files derived from ``program``.

        The scan is executed once and the closure computed from cache —
        the paper notes the second phase "can, of course, be executed
        from a cache".
        """
        with self.account.meter.scoped() as scope:
            bundles = self.scan_bundles()
            seeds = _direct_outputs(bundles, program)
            refs = _descendant_closure(bundles, seeds)
        return self._measure(refs, scope)


class SimpleDBEngine(_Metered):
    """Queries against architectures A2/A3: indexed SimpleDB lookups.

    ``select_mode=True`` issues the same logical queries through the
    SELECT front-end (§2.2 lists Query, QueryWithAttributes *and*
    SELECT); results are identical, only the wire language differs.

    ``router`` (or a store's ``.router``) selects the sharded layout:
    Q1 routes to the one shard owning the subject's path, while Q2/Q3
    scatter every phase across all shards and merge the frontiers
    client-side. The default router is the paper's single domain, under
    which every request sequence is identical to the unsharded engine.

    ``concurrency`` is the width at which each scatter wave's per-shard
    request streams are *modeled* to overlap (default 1; anything but an
    integer >= 1 raises here, naming the knob). Streams always
    execute sequentially in submission order, so results, spend and —
    for a fixed seed, replica choice included — the request sequence
    are the same at every width; only the measurement's ``latency``
    changes, from the sequential sum to the wave's list-scheduled
    critical path on ``concurrency`` workers.
    """

    def __init__(
        self,
        account: AWSAccount,
        ref_batch: int = REF_BATCH,
        select_mode: bool = False,
        router: ShardRouter | RouterHandle | None = None,
        concurrency: int | None = None,
        planner: str | None = None,
    ):
        super().__init__(account)
        #: Shared routing indirection: passing the cloud's handle (what
        #: ``Cloud.query_engine`` does) makes every scatter phase
        #: observe live-migration cutovers at the moment it dispatches —
        #: during a migration, phases cover the union of source stores
        #: and cut-over target stores.
        self.routing = as_handle(router) if router is not None else fresh_handle()
        #: Backend adapters by kind; each shard's stream reads through
        #: the adapter its placement names.
        self.backends = account.provenance_backends()
        #: Retained for single-shard callers (and select rendering when
        #: N=1); with ``shards > 1`` queries name per-shard domains.
        self.domain = self.routing.current.domains[0]
        self.ref_batch = ref_batch
        self.select_mode = select_mode
        self.concurrency = positive_int(
            1 if concurrency is None else concurrency, "concurrency"
        )
        #: The account's read-cache authority, or None when the tier is
        #: off. Point reads (Q1) consult it per item; the Q2/Q3 scatter
        #: phases memoise whole closure results through it, keyed by the
        #: routing epoch and fenced by the invalidation generation.
        self.cache = account.read_cache
        #: Access-path planning mode: ``"off"`` (default — request
        #: sequences byte-identical to the historical engine),
        #: ``"first-fit"`` (execute the default path but predict its
        #: cost), or ``"cost"`` (execute the cheapest estimated path).
        #: ``None`` means off.
        self.planner_mode = resolve_planner(planner)
        self.planner = (
            QueryPlanner(account.prices, self.planner_mode)
            if self.planner_mode != "off"
            else None
        )
        self._shard_spend: dict[str, tuple[int, int]] = {}
        self._cache_spend: dict[str, tuple[int, int]] = {}
        self._site_kinds: dict[str, str] = {}
        self._latency = 0.0
        self._sequential_latency = 0.0
        #: Accumulated planner prediction for the in-flight query, or
        #: None for query classes the planner does not cover (Q1).
        self._predicted: float | None = None
        #: Under the sanitizer, the sum of the in-flight query's stream
        #: and memo scopes, audited against the query's own scope when
        #: it ends; None (nothing accumulated) otherwise.
        self._attributed: Usage | None = None
        self._audited = sanitize.ACTIVE

    @property
    def router(self) -> ShardRouter:
        """The settled layout (kept for introspection call sites)."""
        return self.routing.current

    # -- scatter-gather dispatch ----------------------------------------------

    def _begin(self, planned: bool = False) -> None:
        """Start a measured query: reset its per-query accounting.

        ``planned`` arms the prediction accumulator — only the scatter
        query classes the planner covers (Q2/Q3/Q4) set it, so Q1's
        measurements keep ``predicted_cost=None`` instead of a
        misleading zero.
        """
        self._shard_spend = {}
        self._cache_spend = {}
        self._site_kinds = {}
        self._latency = 0.0
        self._sequential_latency = 0.0
        self._predicted = 0.0 if planned and self.planner is not None else None
        self._attributed = Usage.empty() if self._audited else None

    def _query_sites(self) -> list[tuple[str, Site]]:
        """(label, site) pairs a scatter phase must cover.

        Labels are the ``per_shard`` accounting keys — the store name,
        disambiguated with the backend kind in the one case two layouts
        put the same name on different backends mid-flip-migration.
        """
        sites = self.routing.query_sites()
        domains = [site.domain for site in sites]
        labelled = []
        for site in sites:
            label = (
                site.domain
                if domains.count(site.domain) == 1
                else f"{site.domain}[{site.kind}]"
            )
            self._site_kinds[label] = site.kind
            labelled.append((label, site))
        return labelled

    def _label(self, site: Site) -> str:
        """Accounting label for a single-site wave (never ambiguous)."""
        self._site_kinds[site.domain] = site.kind
        return site.domain

    def _run_wave(self, tasks: list[tuple[str, Callable[[], T]]]) -> list[T]:
        """Run one scatter wave of per-shard request streams.

        Each task is one shard-directed stream, run to completion in
        submission order; its spend is captured in a meter scope nested
        in the query's (including any S3 overflow GETs issued while
        decoding that shard's items), so per-shard spend sums to the
        query total. The stream's split and modeled duration are read
        straight off its scope, with no per-stream ``Usage`` snapshot
        (only the sanitizer's running sum takes one). The wave's
        modeled makespan at ``concurrency`` accrues to the query's
        critical-path latency; the plain sum accrues to its sequential
        latency.
        """
        meter = self.account.meter
        durations: list[float] = []
        results: list[T] = []
        for domain, fn in tasks:
            with meter.scoped() as scope:
                results.append(fn())
            cache_ops = scope.request_count(ELASTICACHE)
            cache_bytes = scope.transfer_out(ELASTICACHE)
            ops, nbytes = self._shard_spend.get(domain, (0, 0))
            self._shard_spend[domain] = (
                ops + scope.request_count() - cache_ops,
                nbytes + scope.transfer_out() - cache_bytes,
            )
            if cache_ops or cache_bytes:
                # Cache consults a shard stream issued (Q1 point reads)
                # accrue to that shard's label on the cache split.
                held, held_bytes = self._cache_spend.get(domain, (0, 0))
                self._cache_spend[domain] = (
                    held + cache_ops,
                    held_bytes + cache_bytes,
                )
            if self._attributed is not None:
                self._attributed += scope.usage()
            durations.append(self.latency_model.stream_seconds(scope))
        self._latency += makespan(durations, self.concurrency)
        self._sequential_latency += sum(durations)
        return results

    def _gather(self, tasks: list[tuple[str, Callable[[], Iterable[T]]]]) -> set[T]:
        """One wave's per-stream results, merged into one set."""
        found: set[T] = set()
        for part in self._run_wave(tasks):
            found.update(part)
        return found

    def _scatter(
        self,
        memo_key: tuple,
        queries: Iterable[tuple[str, str]],
        decode: Callable[[str, dict], T],
    ) -> set[T]:
        """One scatter phase: every query on every site, as one wave.

        ``queries`` are *(bracket expression, SELECT where-clause)*
        pairs — two spellings of the same predicate (``select_mode`` is
        a SimpleDB wire-language choice; a DynamoDB-placed shard
        evaluates the compiled predicate over an index Query or a Scan
        instead). Each expression is compiled once and shared across its
        shard streams — compilation is client CPU, never metered, so
        hoisting it is meter-neutral. The wave is built query-major,
        site-minor over the sites routing names *now*; the query x site
        streams are mutually independent reads. Each stream asks the
        planner for its access path (None = the backend's native
        choice) inside its own meter scope, so the statistics consult
        is billed to the right shard and the USD prediction accrues to
        the in-flight query, then pages the backend and decodes every
        ``(item name, attrs)`` row with ``decode``.

        Memoised through the cache authority: a repeated phase answers
        with zero backend reads until a write (or layout cutover)
        invalidates it. The memo key carries the routing epoch (a
        cutover makes old entries unreachable LRU garbage rather than
        wrong answers); the fill is fenced on the authority's
        invalidation generation, captured by the consult itself — any
        provenance write between consult and fill refuses the
        memoisation. Memo spend is scoped and
        credited to the ``"elasticache"`` label on the cache split,
        since a memo hit stands in for the whole phase, not any one
        shard's stream.
        """
        cache = self.cache
        if cache is not None:
            full_key = memo_key + (self.routing.epoch,)
            with self.account.meter.scoped() as scope:
                hit, value, fence = cache.memo_get(full_key)
            self._credit_cache_scope(scope)
            if hit:
                return value

        def stream(site: Site, expression: str, where: str, compiled: CompiledQuery):
            backend = self.backends[site.kind]
            path = None
            if self.planner is not None:
                path, predicted = self.planner.choose(
                    backend, site.domain, compiled, {Attr.TYPE}
                )
                if self._predicted is not None:
                    self._predicted += predicted
            return [
                decode(name, attrs)
                for name, attrs in backend.query_pages(
                    site.domain,
                    expression,
                    f"select type from {site.domain} where {where}",
                    self.select_mode,
                    [Attr.TYPE],
                    compiled=compiled,
                    path=path,
                )
            ]

        sites = self._query_sites()
        tasks = []
        for expression, where in queries:
            compiled = parse_query(expression)
            for label, site in sites:
                tasks.append((label, partial(stream, site, expression, where, compiled)))
        value = self._gather(tasks)
        if cache is not None:
            with self.account.meter.scoped() as scope:
                cache.memo_put(full_key, fence, value, _memo_nbytes(value))
            self._credit_cache_scope(scope)
        return value

    def _credit_cache_scope(self, scope: MeterScope) -> None:
        """Accrue one scoped memo consult/fill to the cache split.

        Its modeled round trips accrue to both latency totals (a memo
        consult is one more sequential step, never overlapped), keeping
        the latency model linear: pricing the query's global usage still
        agrees with the per-stream accumulation.
        """
        ops = scope.request_count()
        nbytes = scope.transfer_out()
        if ops or nbytes:
            held, held_bytes = self._cache_spend.get("elasticache", (0, 0))
            self._cache_spend["elasticache"] = (held + ops, held_bytes + nbytes)
            if self._attributed is not None:
                self._attributed += scope.usage()
            seconds = self.latency_model.stream_seconds(scope)
            self._latency += seconds
            self._sequential_latency += seconds

    def _measure_sharded(
        self, refs: set[ObjectRef], scope: MeterScope
    ) -> QueryMeasurement:
        """The measurement of the query that just ran inside ``scope``."""
        usage, cache_ops, cache_bytes = self._spent(scope)
        if self._attributed is not None:
            sanitize.audit_spend(usage, self._attributed)
        per_shard = tuple(
            (domain, ops, nbytes)
            for domain, (ops, nbytes) in sorted(self._shard_spend.items())
        )
        by_backend: dict[str, tuple[int, int]] = {}
        for domain, ops, nbytes in per_shard:
            kind = self._site_kinds.get(domain) or self.router.backend_for(domain)
            total_ops, total_bytes = by_backend.get(kind, (0, 0))
            by_backend[kind] = (total_ops + ops, total_bytes + nbytes)
        return QueryMeasurement(
            refs=tuple(sorted(refs)),
            operations=scope.request_count() - cache_ops,
            bytes_out=scope.transfer_out() - cache_bytes,
            usage=usage,
            per_shard=per_shard,
            per_backend=tuple(
                (kind, ops, nbytes)
                for kind, (ops, nbytes) in sorted(by_backend.items())
            ),
            latency=self._latency,
            sequential_latency=self._sequential_latency,
            cache_operations=cache_ops,
            cache_bytes_out=cache_bytes,
            per_shard_cache=tuple(
                (domain, ops, nbytes)
                for domain, (ops, nbytes) in sorted(self._cache_spend.items())
            ),
            predicted_cost=self._predicted,
        )

    # -- Q1 -------------------------------------------------------------------

    def q1(self, ref: ObjectRef) -> QueryMeasurement:
        """Provenance of one object version: a single indexed lookup.

        Routed to the shard owning ``ref.path`` — its operation count is
        independent of how many shards the domain is split into (during
        a live migration, the source shard until the owning target
        shard cuts over, then the target). With the read-cache tier on,
        the point read consults the authority first.
        """
        self._begin()
        site = self.routing.read_site(ref.path)

        def lookup() -> list[ObjectRef]:
            attrs = read_provenance_item(self.account, site, ref.item_name)
            if not attrs:
                return []
            bundle = bundle_from_item(ref.item_name, attrs, self._fetch_overflow)
            return [bundle.subject]

        with self.account.meter.scoped() as scope:
            refs = self._gather([(self._label(site), lookup)])
        return self._measure_sharded(refs, scope)

    def q1_all(self) -> QueryMeasurement:
        """Q1 over every item, via each shard's natural full read (§5's
        72K ops on SimpleDB).

        SimpleDB cannot "generalise the query", so its shards page item
        names and issue one GetAttributes per item (plus a GET per
        spilled value); DynamoDB-style shards page a Scan whose items
        already carry their attributes. The N per-shard streams are
        independent — one wave.
        """
        self._begin()

        def scan_shard(site: Site) -> list[ObjectRef]:
            items = self.backends[site.kind].enumerate_items(site.domain)
            return [
                bundle_from_item(item_name, attrs, self._fetch_overflow).subject
                for item_name, attrs in items
                if attrs
            ]

        with self.account.meter.scoped() as scope:
            refs = self._gather(
                [
                    (label, partial(scan_shard, site))
                    for label, site in self._query_sites()
                ]
            )
        return self._measure_sharded(refs, scope)

    # -- Q2 -------------------------------------------------------------------------

    def _program_instances(self, program: str) -> set[ObjectRef]:
        """Phase 1: all process versions of ``program`` — every site."""
        literal = quote_literal(program)
        return self._scatter(
            ("instances", program),
            [
                (
                    f"['type' = 'process'] intersection ['name' = {literal}]",
                    f"type = 'process' and name = {literal}",
                )
            ],
            _decode_ref,
        )

    def _objects_with_inputs(self, inputs: set[ObjectRef]) -> set[tuple[ObjectRef, str]]:
        """All items listing any of ``inputs`` as an input, with their type.

        An item's ``input`` edges can point at objects on *other* shards,
        so every ``ref_batch``-sized chunk of references is its own
        query, scattered across all domains. Memoised per frontier:
        repeated Q2/Q3 replay the same BFS rounds, so each round's whole
        chunk-x-shard wave collapses to one cache consult while its memo
        entry stays valid.
        """
        encoded = [ref.encode() for ref in sorted(inputs)]

        def chunk_queries():  # built only when the memo misses
            for start in range(0, len(encoded), self.ref_batch):
                literals = [
                    quote_literal(value)
                    for value in encoded[start : start + self.ref_batch]
                ]
                disjunction = " or ".join(f"'input' = {lit}" for lit in literals)
                yield f"[{disjunction}]", f"input in ({', '.join(literals)})"

        return self._scatter(
            ("inputs", *encoded), chunk_queries(), _decode_ref_and_kind
        )

    def q2_outputs_of(self, program: str) -> QueryMeasurement:
        """Files that are outputs of ``program`` — two indexed phases (§5),
        each phase scattered across every shard."""
        self._begin(planned=True)
        with self.account.meter.scoped() as scope:
            instances = self._program_instances(program)
            refs: set[ObjectRef] = set()
            if instances:
                refs = {
                    ref
                    for ref, kind in self._objects_with_inputs(instances)
                    if kind == "file"
                }
        return self._measure_sharded(refs, scope)

    # -- Q3 ------------------------------------------------------------------------------

    def q3_descendants_of(self, program: str) -> QueryMeasurement:
        """Transitive descendants — client-side BFS, batched queries.

        "SimpleDB ... does not support recursive queries or stored
        procedures. Hence, for ancestry queries, it has to retrieve each
        item ... then lookup further ancestors." (§5)

        Under sharding each BFS round scatters the frontier's reference
        chunks across all shards and merges the children into the next
        frontier before continuing — the frontier is global, the lookups
        are per-shard. Rounds are sequential barriers (each frontier
        depends on the last), so the modeled critical path is the sum of
        per-round wave makespans.
        """
        self._begin(planned=True)
        with self.account.meter.scoped() as scope:
            instances = self._program_instances(program)
            results = {
                ref
                for ref, kind in self._objects_with_inputs(instances)
                if kind == "file"
            }
            visited = set(results)
            frontier = set(results)
            while frontier:
                children = self._objects_with_inputs(frontier)
                frontier = set()
                for ref, kind in children:
                    if ref in visited:
                        continue
                    visited.add(ref)
                    frontier.add(ref)
                    if kind == "file":
                        results.add(ref)
        return self._measure_sharded(results, scope)

    # -- Q4 ------------------------------------------------------------------------------

    def q4_time_range(self, lo_version: int, hi_version: int) -> QueryMeasurement:
        """File versions in ``[lo_version, hi_version]`` — a time-range
        query over the version axis.

        Version nonces are zero-padded (``v0002``), so lexicographic
        order is version order and the phase is one range predicate
        scattered across every shard. On a SimpleDB shard the range
        evaluates server-side like any other predicate; on a
        DynamoDB-placed shard this is the query class composite
        hash+range indexes exist for — with a ``type/nonce`` index
        declared, the cost planner serves the slice from one
        range-conditioned Query, where first-fit reads the whole
        ``type = 'file'`` partition and the no-index path scans the
        table. Memoised like the other scatter phases.
        """
        self._begin(planned=True)
        lo, hi = ObjectRef.nonce_of(lo_version), ObjectRef.nonce_of(hi_version)
        lo_literal, hi_literal = quote_literal(lo), quote_literal(hi)
        with self.account.meter.scoped() as scope:
            refs = self._scatter(
                ("range", lo, hi),
                [
                    (
                        f"['type' = 'file'] intersection "
                        f"['nonce' >= {lo_literal} and 'nonce' <= {hi_literal}]",
                        f"type = 'file' and nonce between {lo_literal} and {hi_literal}",
                    )
                ],
                _decode_ref,
            )
        return self._measure_sharded(set(refs), scope)


# ---------------------------------------------------------------------------
# Shared closure helpers (also used by the scan engine)
# ---------------------------------------------------------------------------

def _decode_ref(item_name: str, attrs: dict) -> ObjectRef:
    """Row decoder for phases that want the matching object versions."""
    return ObjectRef.from_item_name(item_name)


def _decode_ref_and_kind(item_name: str, attrs: dict) -> tuple[ObjectRef, str]:
    """Row decoder for cross-reference phases: the match and its type."""
    return ObjectRef.from_item_name(item_name), (attrs.get(Attr.TYPE) or ("file",))[0]


def _memo_nbytes(value) -> int:
    """Node-memory estimate (UTF-8 bytes) for a memoised scatter-phase
    result — a set of :class:`ObjectRef` (phase 1) or ``(ref, kind)``
    pairs (matches). A ref is itself a tuple, so dispatch on the ref."""
    total = 0
    for element in value:
        ref, kind = (element, "") if isinstance(element, ObjectRef) else element
        total += len(ref.encode().encode()) + len(kind.encode())
    return total

def _direct_outputs(bundles: list[ProvenanceBundle], program: str) -> set[ObjectRef]:
    """Files whose inputs include a process instance of ``program``."""
    instances = {
        bundle.subject
        for bundle in bundles
        if bundle.kind == "process" and program in bundle.attribute_values(Attr.NAME)
    }
    return {
        bundle.subject
        for bundle in bundles
        if bundle.kind == "file" and any(ref in instances for ref in bundle.inputs())
    }


def _descendant_closure(
    bundles: list[ProvenanceBundle], seeds: set[ObjectRef]
) -> set[ObjectRef]:
    """Transitive descendants of ``seeds`` (files only), via input edges."""
    children: dict[ObjectRef, set[ObjectRef]] = {}
    kind_of: dict[ObjectRef, str] = {}
    for bundle in bundles:
        kind_of[bundle.subject] = bundle.kind
        for parent in bundle.inputs():
            children.setdefault(parent, set()).add(bundle.subject)
    visited = set(seeds)
    results = set(seeds)
    frontier = list(seeds)
    while frontier:
        node = frontier.pop()
        for child in children.get(node, ()):
            if child in visited:
                continue
            visited.add(child)
            frontier.append(child)
            if kind_of.get(child) == "file":
                results.add(child)
    return results
