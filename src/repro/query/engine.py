"""The Q1–Q4 query engine (paper §5, Table 3).

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
:meth:`SimpleDBEngine._scatter` takes a phase's queries (bracket
expressions) plus a row decoder, and owns site enumeration,
compile-once-per-query, planning, paging, wave dispatch, merging and
memoisation.

One engine serves all three architectures; what differs is the sites
:meth:`repro.sim.Cloud.query_engine` hands it. A2/A3 query their
provenance domain's shards. A1 (§4.1) has one site, the data bucket
(:class:`~repro.core.s3_standalone.BucketScan`), whose only access path
is a full metadata scan: the first phase of a query to reach it pays
the LIST, a HEAD per object and a GET per spilled value, and every later
phase of that query filters the scanned rows for free — Table 3 charges
A1 one scan for each of Q1, Q2 and Q3.

Each engine method runs inside one :meth:`~repro.aws.billing.Meter.scoped`
block and returns a :class:`QueryMeasurement` whose operation and byte
counts are read from that scope — the queries are charged exactly what
the simulated AWS services metered, in time proportional to the query's
own requests. The measurement is an immutable record of the query:
its scope, the stored levels when it ended, and the ordered steps it
ran (each scatter wave's ``(label, stream scope)`` list, each memo
scope). The result refs, the planner's prediction and the counts read
in one :meth:`~repro.aws.billing.MeterScope.totals` pass, which splits
backend from read-cache spend, are eager; the ``Usage``, the per-shard,
per-backend and cache splits and both modeled latencies are priced from
the record when first read, so a Q1 probe that reads only its refs and
counts builds none of them.

Sharded domains (scatter-gather): when the provenance store is split
across N domains by a :class:`~repro.sharding.ShardRouter`, the engine
routes **Q1 to the single shard owning the object's path** (its cost is
independent of N) and **scatters Q2/Q3 across every shard**, merging the
result frontiers client-side between BFS rounds.

Heterogeneous placement: each shard's request stream goes through the
shard's *placed backend* (:mod:`repro.aws.backend`) — SimpleDB shards
answer Q2/Q3 phases with server-side bracket-language ``Query`` /
``QueryWithAttributes`` predicates and Q1-over-everything with the §5
one-GetAttributes-per-item pattern, while DynamoDB-style shards answer
every phase with paged ``Scan`` + the same predicate applied
client-side (the service has no query language) and enumerate items
straight off the scan pages. Result sets are identical
across placements; the metered cost is each backend's honest price, and
``QueryMeasurement.per_shard`` / ``per_backend`` keep the exact split.

Waves and ``concurrency=N``: each scatter phase builds one *wave* of
per-shard request streams. The streams execute one after another, in
submission order, whatever the width — a wave is a single list, so a
seeded run issues one reproducible request sequence. Per-stream spend
is captured with a **nested meter scope** per stream, so
``QueryMeasurement.per_shard`` sums exactly to the query's own scope.
``concurrency`` is the width of the *modeled* dispatch: the
measurement's ``latency`` is the **critical path** — per recorded wave,
the makespan of the streams list-scheduled onto ``concurrency`` workers
(``repro.query.latency``), priced when it is read — while
``sequential_latency`` keeps the one-request-at-a-time sum. Refs, operation counts and ``per_shard``
triples are the same at every width. Caveat: there is no cross-shard
snapshot; each shard answers at its own replica time.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Callable, Iterable, TypeVar

from repro.aws.account import AWSAccount
from repro.aws.billing import ELASTICACHE, Meter, MeterScope, Usage
from repro.aws.sdb_query import CompiledQuery, parse_query, quote_literal
from repro.core.base import DATA_BUCKET, read_provenance_item
from repro.core.s3_standalone import BucketScan
from repro.devtools import sanitize
from repro.deployment import positive_int, resolve_planner
from repro.passlib.records import Attr, ObjectRef
from repro.passlib.serializer import overflow_keys
from repro.migration.handle import RouterHandle, Site, as_handle, fresh_handle
from repro.query.latency import DEFAULT_LATENCY_MODEL, QueryLatencyModel, makespan
from repro.query.planner import QueryPlanner
from repro.sharding import ShardRouter

T = TypeVar("T")

#: Cross-reference values packed into one bracket predicate (bounded by
#: SimpleDB's query-expression size limits).
REF_BATCH = 20


class QueryMeasurement:
    """A query's result set plus what it cost to compute.

    An immutable record of the query, built when it ends: its meter
    scope, the stored levels at that moment, and the ordered steps it
    ran — each scatter wave's ``(label, stream scope)`` list and each
    memo consult or fill scope. ``refs``, ``predicted_cost`` and the
    counts one :meth:`~repro.aws.billing.MeterScope.totals` pass gives
    (``operations``, ``bytes_out``, ``cache_operations``,
    ``cache_bytes_out``) are set eagerly; ``usage``, ``per_shard``,
    ``per_backend``, ``per_shard_cache``, ``latency`` and
    ``sequential_latency`` are priced from the record on first read and
    kept, so a caller that reads only the result and the counts (every
    Q1 probe) builds no bill. Fields are read by name; two measurements
    are equal when every public field is.

    ``per_shard`` breaks the spend down as ``(domain, operations,
    bytes_out)`` triples, one per site touched — populated from scoped
    meter contexts opened around each site's request stream (on A1, the
    data bucket's one entry). ``per_backend`` rolls the same exact
    triples up by backend kind (``"sdb"``/``"ddb"``; ``"s3"`` on A1)
    under heterogeneous placement, so the cost of a placement decision
    is auditable per query.

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
    (:meth:`~repro.aws.billing.Meter.spent`, at the levels captured when
    the query ended): every integer field equals the
    ``Meter.snapshot()`` delta around the call, and ``box_usage_hours``
    is the exact sum of the query's own records (e.g.
    ``0.0006857000000000004``) where subtracting two large running
    totals gives it to ~1e-12 relative (``0.0006857000000001084``).

    ``predicted_cost`` is the query planner's pre-execution USD estimate
    for the scatter phases it planned (chosen access paths plus its own
    statistics consults) — put next to the priced ``usage``, it makes
    the planner's honesty auditable per query. ``None`` when no planner
    ran (planner off, or a query class the planner does not cover).
    """

    #: The public fields, in the order ``==`` and ``repr`` read them.
    _fields = (
        "refs", "operations", "bytes_out", "usage", "per_shard", "per_backend",
        "latency", "sequential_latency", "cache_operations", "cache_bytes_out",
        "per_shard_cache", "predicted_cost",
    )

    def __init__(
        self,
        refs: tuple[ObjectRef, ...],
        scope: MeterScope,
        levels: dict[str, int],
        steps: list,
        kinds: dict[str, str],
        model: QueryLatencyModel,
        width: int,
        predicted_cost: float | None = None,
    ):
        requests, out_bytes, cache_ops, cache_bytes = scope.totals()
        record = vars(self)  # written directly: __setattr__ refuses
        record["refs"] = refs
        record["operations"] = requests - cache_ops
        record["bytes_out"] = out_bytes - cache_bytes
        record["cache_operations"] = cache_ops
        record["cache_bytes_out"] = cache_bytes
        record["predicted_cost"] = predicted_cost
        # What the lazy fields are priced from: the query scope and the
        # stored levels at its end; the steps (waves of ``(label, stream
        # scope)`` and memo scopes) with each wave label's backend kind;
        # the latency model and the modeled wave width.
        record["_scope"] = scope
        record["_levels"] = levels
        record["_steps"] = steps
        record["_kinds"] = kinds
        record["_model"] = model
        record["_width"] = width

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"QueryMeasurement is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"QueryMeasurement is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        return isinstance(other, QueryMeasurement) and all(
            getattr(self, f) == getattr(other, f) for f in self._fields
        )

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"QueryMeasurement({fields})"

    # -- priced on first read -------------------------------------------

    @cached_property
    def usage(self) -> Usage:
        return Meter.spent(self._scope, self._levels)

    def _streams(self) -> Iterable[tuple[str | None, MeterScope]]:
        """``(label, scope)`` of every step in run order; a step no
        shard's stream ran (a memo consult or fill) has no label."""
        for step in self._steps:
            if isinstance(step, MeterScope):
                yield None, step
            else:
                yield from step

    @cached_property
    def per_shard(self) -> tuple[tuple[str, int, int], ...]:
        split = []
        for label, scope in self._streams():
            if label is not None:
                requests, out_bytes, cache_ops, cache_bytes = scope.totals()
                split.append((label, requests - cache_ops, out_bytes - cache_bytes))
        return _tally(split)

    @cached_property
    def per_backend(self) -> tuple[tuple[str, int, int], ...]:
        return _tally((self._kinds[label], ops, nbytes) for label, ops, nbytes in self.per_shard)

    @cached_property
    def per_shard_cache(self) -> tuple[tuple[str, int, int], ...]:
        split = []
        for label, scope in self._streams():
            _, _, cache_ops, cache_bytes = scope.totals()
            if cache_ops or cache_bytes:
                # Memo consults front a whole scatter phase, not one shard.
                split.append((label or ELASTICACHE, cache_ops, cache_bytes))
        return _tally(split)

    def _seconds(self, width: int) -> float:
        """Modeled wall-clock at ``width``: per wave, the makespan of its
        streams; a memo step is one more sequential step."""
        seconds = self._model.stream_seconds
        total = 0.0
        for step in self._steps:
            if isinstance(step, MeterScope):
                total += seconds(step)
            else:
                total += makespan([seconds(scope) for _, scope in step], width)
        return total

    @cached_property
    def latency(self) -> float:
        return self._seconds(self._width)

    @cached_property
    def sequential_latency(self) -> float:
        return self._seconds(1)

    @property
    def result_count(self) -> int:
        return len(self.refs)

    @property
    def speedup(self) -> float:
        """Modeled sequential/dispatched latency ratio (1.0 when serial)."""
        return self.sequential_latency / self.latency if self.latency else 1.0


def _tally(entries: Iterable[tuple[str, int, int]]) -> tuple[tuple[str, int, int], ...]:
    """``(key, operations, bytes)`` entries summed per key, in key order."""
    totals: dict[str, tuple[int, int]] = {}
    for key, ops, nbytes in entries:
        held_ops, held_bytes = totals.get(key, (0, 0))
        totals[key] = (held_ops + ops, held_bytes + nbytes)
    return tuple((key, ops, nbytes) for key, (ops, nbytes) in sorted(totals.items()))


class SimpleDBEngine:
    """The one query engine: Q1–Q4 as phases over a layout's sites.

    ``router`` (or a store's ``.router``) selects the sharded layout:
    Q1 routes to the one shard owning the subject's path, while Q2/Q3
    scatter every phase across all shards and merge the frontiers
    client-side. The default router is the paper's single domain, under
    which every request sequence is identical to the unsharded engine.
    A :class:`~repro.core.s3_standalone.BucketScan` in its place is
    architecture A1's one site, the data bucket, whose only access path
    is a full metadata scan taken once per query: the same phases then
    run over the scanned rows.

    ``concurrency`` is the width at which each scatter wave's per-shard
    request streams are *modeled* to overlap (default 1; anything but an
    integer >= 1 raises here, naming the knob). Streams always
    execute sequentially in submission order, so results, spend and —
    for a fixed seed, replica choice included — the request sequence
    are the same at every width; only the measurement's ``latency``
    changes, from the sequential sum to the wave's list-scheduled
    critical path on ``concurrency`` workers.
    """

    #: Where the architectures keep data objects and spilled values.
    bucket = DATA_BUCKET
    #: Per-request round-trip model behind ``latency``.
    latency_model = DEFAULT_LATENCY_MODEL

    def __init__(
        self,
        account: AWSAccount,
        ref_batch: int = REF_BATCH,
        router: ShardRouter | RouterHandle | BucketScan | None = None,
        concurrency: int | None = None,
        planner: str | None = None,
    ):
        self.account = account
        #: A1's bucket when it is the one site (its own routing and
        #: backend), else None.
        self.scan = router if isinstance(router, BucketScan) else None
        #: Shared routing indirection: passing the cloud's handle (what
        #: ``Cloud.query_engine`` does) makes every scatter phase
        #: observe live-migration cutovers at the moment it dispatches —
        #: during a migration, phases cover the union of source stores
        #: and cut-over target stores.
        self.routing = self.scan or (as_handle(router) if router is not None else fresh_handle())
        #: Backend adapters by kind; each site's stream reads through
        #: the adapter its placement names.
        self.backends = {self.scan.kind: self.scan} if self.scan else account.provenance_backends()
        self.ref_batch = ref_batch
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
        #: The in-flight query's record: the backend kind of every wave
        #: label, and its steps — each wave's ``(label, stream scope)``
        #: list and each memo scope, in the order they ran.
        self._site_kinds: dict[str, str] = {}
        self._steps: list[list[tuple[str, MeterScope]] | MeterScope] = []
        #: Accumulated planner prediction for the in-flight query, or
        #: None for query classes the planner does not cover (Q1).
        self._predicted: float | None = None
        #: Whether each query's stream and memo scopes are audited
        #: against its own scope when it ends.
        self._audited = sanitize.ACTIVE

    @property
    def skipped_items(self) -> int:
        """Objects the last A1 scan skipped because their ``nonce``
        metadata or bundle object would not parse (0 without a scan)."""
        return self.scan.skipped_items if self.scan is not None else 0

    # -- scatter-gather dispatch ----------------------------------------------

    def _begin(self, planned: bool = False) -> None:
        """Start a measured query: a fresh record.

        ``planned`` arms the prediction accumulator — only the scatter
        query classes the planner covers (Q2/Q3/Q4) set it, so Q1's
        measurements keep ``predicted_cost=None`` instead of a
        misleading zero. A1's bucket forgets the last query's scan.
        """
        self._site_kinds = {}
        self._steps = []
        self._predicted = 0.0 if planned and self.planner is not None else None
        if self.scan is not None:
            self.scan.forget()

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
        query total. The wave's ``(label, scope)`` list goes on the
        query's record, which prices its split and its makespan at
        ``concurrency`` only when the measurement is read.
        """
        meter = self.account.meter
        wave: list[tuple[str, MeterScope]] = []
        results: list[T] = []
        for label, fn in tasks:
            with meter.scoped() as scope:
                results.append(fn())
            wave.append((label, scope))
        self._steps.append(wave)
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
        queries: Iterable[str],
        decode: Callable[[str, dict], T],
    ) -> set[T]:
        """One scatter phase: every query on every site, as one wave.

        ``queries`` are bracket expressions: a SimpleDB shard evaluates
        one server-side, a DynamoDB-placed shard evaluates its compiled
        predicate over an index Query or a Scan. Each expression is
        compiled once and shared across its shard streams — compilation
        is client CPU, never metered, so hoisting it is meter-neutral.
        The wave is built query-major, site-minor over the sites routing
        names *now*; the query x site streams are mutually independent
        reads. Each stream asks the planner for its access path (None =
        the backend's native choice) inside its own meter scope, so the
        statistics consult is billed to the right shard and the USD
        prediction accrues to the in-flight query, then pages the
        backend and decodes every ``(item name, attrs)`` row with
        ``decode``.

        Memoised through the cache authority: a repeated phase answers
        with zero backend reads until a write (or layout cutover)
        invalidates it. The memo key carries the routing epoch (a
        cutover makes old entries unreachable LRU garbage rather than
        wrong answers); the fill is fenced on the authority's
        invalidation generation, captured by the consult itself — any
        provenance write between consult and fill refuses the
        memoisation. Each memo consult and fill is a scoped step of the
        query's record (priced as one sequential step, on the
        ``"elasticache"`` label of the cache split, since a memo hit
        stands in for the whole phase, not any one shard's stream).
        """
        cache = self.cache
        if cache is not None:
            full_key = memo_key + (self.routing.epoch,)
            with self.account.meter.scoped() as scope:
                hit, value, fence = cache.memo_get(full_key)
            self._steps.append(scope)
            if hit:
                return value

        def stream(site: Site, expression: str, compiled: CompiledQuery):
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
                    site.domain, expression, [Attr.TYPE], compiled=compiled, path=path
                )
            ]

        sites = self._query_sites()
        tasks = []
        for expression in queries:
            compiled = parse_query(expression)
            for label, site in sites:
                tasks.append((label, partial(stream, site, expression, compiled)))
        value = self._gather(tasks)
        if cache is not None:
            with self.account.meter.scoped() as scope:
                cache.memo_put(full_key, fence, value, _memo_nbytes(value))
            self._steps.append(scope)
        return value

    def _measure_sharded(
        self, refs: set[ObjectRef], scope: MeterScope
    ) -> QueryMeasurement:
        """The record of the query that just ran inside ``scope``; under
        the sanitizer, its step scopes are audited against it now."""
        measurement = QueryMeasurement(
            tuple(sorted(refs)), scope, self.account.meter.levels(), self._steps,
            self._site_kinds, self.latency_model, self.concurrency, self._predicted,
        )
        if self._audited:
            sanitize.audit_spend(
                measurement.usage,
                sum((step.usage() for _, step in measurement._streams()), Usage.empty()),
            )
        return measurement

    # -- Q1 -------------------------------------------------------------------

    def _item_ref(self, item_name: str, attrs: dict[str, tuple[str, ...]]) -> ObjectRef:
        """One read item's ref, after GETting its spilled values in decode
        order (§5 charges Q1 one S3 GET per ``@s3:`` pointer). The
        bodies are fetched and billed, not decoded: Q1 returns refs."""
        subject = ObjectRef.from_item_name(item_name)
        for key in overflow_keys(attrs):
            self.account.s3.get(self.bucket, key)
        return subject

    def q1(self, ref: ObjectRef) -> QueryMeasurement:
        """Provenance of one object version: a single indexed lookup.

        Routed to the shard owning ``ref.path`` — its operation count is
        independent of how many shards the domain is split into (during
        a live migration, the source shard until the owning target
        shard cuts over, then the target). With the read-cache tier on,
        the point read consults the authority first. Fetches the item
        and each of its spilled values; returns the item's ref without
        decoding its records. On A1 the item is the object's metadata (one
        HEAD), found only while the object still holds ``ref.version``.
        """
        self._begin()
        site = self.routing.read_site(ref.path)

        def lookup() -> list[ObjectRef]:
            attrs = read_provenance_item(
                self.account, self.backends[site.kind], site.domain, ref.item_name
            )
            return [self._item_ref(ref.item_name, attrs)] if attrs else []

        with self.account.meter.scoped() as scope:
            refs = self._gather([(self._label(site), lookup)])
        return self._measure_sharded(refs, scope)

    def q1_all(self) -> QueryMeasurement:
        """Q1 over every item, via each shard's natural full read (§5's
        72K ops on SimpleDB).

        SimpleDB cannot "generalise the query", so its shards page item
        names and issue one GetAttributes per item (plus a GET per
        spilled value); DynamoDB-style shards page a Scan whose items
        already carry their attributes; A1's bucket hands over its
        scan's rows, their spilled values already fetched. The N
        per-shard streams are independent — one wave. Every item and
        spilled value is fetched; records are not decoded (except by
        A1's scan), since the measurement returns refs only.
        """
        self._begin()

        def scan_shard(site: Site) -> list[ObjectRef]:
            items = self.backends[site.kind].enumerate_items(site.domain)
            return [self._item_ref(item_name, attrs) for item_name, attrs in items if attrs]

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
            [f"['type' = 'process'] intersection ['name' = {literal}]"],
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
                disjunction = " or ".join(
                    f"'input' = {quote_literal(value)}"
                    for value in encoded[start : start + self.ref_batch]
                )
                yield f"[{disjunction}]"

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
                    f"['type' = 'file'] intersection "
                    f"['nonce' >= {lo_literal} and 'nonce' <= {hi_literal}]"
                ],
                _decode_ref,
            )
        return self._measure_sharded(set(refs), scope)


# ---------------------------------------------------------------------------
# Row decoders and memo sizing
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
