"""Shared machinery for the three provenance-aware cloud architectures.

Each architecture is a :class:`ProvenanceCloudStore`: it accepts PASS
flush events (``store``), serves consistent reads of data + provenance
(``read``), and exposes enough structure for the property checkers and
the Figure 1–3 diagram renderer.

Common conventions (§4):

* file data lives in the S3 bucket :data:`DATA_BUCKET` under the file's
  path, overwritten in place as versions advance (each PASS file maps to
  an S3 object);
* spilled >1 KB record values live under ``.pass/overflow/`` in the same
  bucket, keyed by object version (so they are never overwritten by a
  later version);
* provenance-in-SimpleDB architectures use the domain
  :data:`PROV_DOMAIN` with one item per object version — or, when a
  :class:`~repro.sharding.ShardRouter` with ``shards > 1`` is supplied,
  N domains with items routed by consistent hash of the object's path
  (every store carries a router; the default ``shards=1`` router
  degenerates to :data:`PROV_DOMAIN` and is byte-identical to the
  paper's deployment);
* reads go through a :class:`RetryPolicy` — under eventual consistency a
  correct client must be prepared to re-issue requests until data and
  provenance agree (§4.2's "reissue the query ... until we get
  consistent provenance and data").

Shard routing protocol and its caveats: every store holds a
:class:`~repro.migration.RouterHandle` (the routing-epoch indirection)
rather than a bare router — writes follow the handle's *write plan*
(the owning shard store; during a live migration possibly a mirrored
second site or a WAL capture), reads for a known path are single-site
(the source layout until that shard cuts over), and domain-wide
operations (orphan recovery, Q2/Q3) scatter across the handle's query
sites — all current stores, plus cut-over target stores mid-migration —
and gather, with no cross-shard snapshot: each shard answers at its own
replica time, so the usual eventual-consistency retry discipline
applies per shard. Each shard's store
lives on the backend its router placement names (SimpleDB or the
DynamoDB-style service) and every store access goes through the
:mod:`repro.aws.backend` protocol, so the architecture protocols are
backend-agnostic; the snapshot-isolation gap above applies *per
backend* too — a mixed placement reads each store at that service's own
replica time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from repro.aws.account import AWSAccount
from repro.aws.faults import FaultPlan
from repro.blob import Blob
from repro.errors import (
    BucketAlreadyExists,
    NoSuchKey,
    ReadCorrectnessViolation,
    ServiceUnavailable,
)
from repro.migration.handle import RouterHandle, Site, as_handle, fresh_handle
from repro.passlib.records import FlushEvent, ObjectRef, ProvenanceBundle
from repro.sharding import DEFAULT_BASE_DOMAIN, ShardRouter

DATA_BUCKET = "pass-data"
PROV_DOMAIN = DEFAULT_BASE_DOMAIN
#: Keys the store protocols keep beside the data objects (WAL temp
#: copies, spilled values): never a PASS file.
PASS_PREFIX = ".pass/"
TEMP_PREFIX = PASS_PREFIX + "tmp/"


@dataclass(frozen=True)
class ReadResult:
    """A read that satisfied the architecture's correctness protocol.

    ``data`` is ``None`` when only provenance survives for the requested
    version (S3 keeps one object per file, so superseded versions keep
    their provenance but not their bytes). ``retries`` counts how many
    extra round trips eventual consistency cost this read.
    """

    subject: ObjectRef
    data: Blob | None
    bundle: ProvenanceBundle
    consistent: bool
    retries: int = 0


@dataclass(frozen=True)
class RetryPolicy:
    """How a client rides out eventual consistency on the read path.

    ``attempts`` bounds the re-issue loop; ``wait`` (if given) runs
    between attempts — in simulation it typically advances the simulated
    clock, giving replicas a chance to converge, exactly like a real
    client sleeping between retries.
    """

    attempts: int = 8
    wait: Callable[[], None] | None = None

    def run(self, action: Callable[[], "ReadResult"]) -> "ReadResult":
        """Run ``action`` until it stops raising retryable errors."""
        failures: list[str] = []
        for attempt in range(self.attempts):
            try:
                result = action()
            except (NoSuchKey, ServiceUnavailable, _InconsistentRead) as exc:
                failures.append(f"attempt {attempt + 1}: {exc}")
                if self.wait is not None:
                    self.wait()
                continue
            if attempt:
                return ReadResult(
                    subject=result.subject,
                    data=result.data,
                    bundle=result.bundle,
                    consistent=result.consistent,
                    retries=attempt,
                )
            return result
        raise ReadCorrectnessViolation(
            "read did not converge after "
            f"{self.attempts} attempts: {'; '.join(failures[-3:])}"
        )


class _InconsistentRead(Exception):
    """Internal: data/provenance mismatch detected; retry may fix it."""


@dataclass(frozen=True)
class Component:
    """A box in the architecture diagram (Figures 1–3)."""

    name: str
    role: str


@dataclass(frozen=True)
class Flow:
    """An arrow in the architecture diagram."""

    source: str
    target: str
    label: str


class ProvenanceCloudStore:
    """Abstract base for the three architectures."""

    #: Paper name, e.g. ``"s3+simpledb"``.
    name: str = "abstract"
    #: Whether provenance lives in a domain of its own. A1 keeps it in
    #: object metadata instead, so it has no provenance domain to shard,
    #: batch writes into, migrate, or query by index — the one difference
    #: every driver reads here instead of testing the architecture name.
    has_provenance_domain: bool = True

    def __init__(self, account: AWSAccount, faults: FaultPlan | None = None,
                 retry: RetryPolicy | None = None, shards: int = 1,
                 router: ShardRouter | RouterHandle | None = None,
                 client_id: str = "client-0"):
        self.account = account
        #: The client host this store runs on (A3 names its WAL queue after it).
        self.client_id = client_id
        #: This client's own crash points (a fresh inert plan by default).
        self.faults = faults if faults is not None else FaultPlan()
        self.retry = retry or RetryPolicy()
        #: Shared routing-epoch indirection over the provenance shard
        #: layout. ``shards=1`` (the default) is the paper's single
        #: :data:`PROV_DOMAIN` deployment; passing an existing
        #: :class:`RouterHandle` (what :meth:`repro.sim.Cloud.add_client`
        #: does) makes every consumer observe the same epoch — and the
        #: same live migration — simultaneously.
        self.routing = as_handle(router) if router is not None else fresh_handle(shards)
        #: Resolves a spilled value's ``@s3:`` pointer (a metered GET).
        self._fetch_overflow = partial(fetch_overflow, account)
        self.stores_completed = 0
        self._provisioned = False

    @property
    def router(self) -> ShardRouter:
        """The settled shard layout (the source during a live migration).

        Kept for introspection call sites and operational scripts; the
        store protocols themselves route through :attr:`routing` so a
        migration can redirect them mid-flight.
        """
        return self.routing.current

    # -- provisioning ----------------------------------------------------

    def provision(self) -> None:
        """Create buckets/domains/queues; idempotent."""
        if self._provisioned:
            return
        self._do_provision()
        self._provisioned = True

    def _do_provision(self) -> None:
        raise NotImplementedError

    def _ensure_bucket(self, name: str) -> None:
        """CreateBucket, tolerating a bucket we already own.

        Several clients share the account's data bucket (the usage model
        has many clients writing different objects), so provisioning must
        be idempotent across clients.
        """
        try:
            self.account.s3.create_bucket(name)
        except BucketAlreadyExists:
            pass

    # -- the store protocol ------------------------------------------------

    def store(self, event: FlushEvent) -> None:
        """Persist one flush event per this architecture's §4 protocol."""
        self.provision()
        self._do_store(event)
        self.stores_completed += 1

    def _do_store(self, event: FlushEvent) -> None:
        raise NotImplementedError

    def store_trace(self, events: Iterable[FlushEvent]) -> int:
        """Store a whole trace in causal order; returns events stored."""
        count = 0
        for event in events:
            self.store(event)
            count += 1
        return count

    def pump(self) -> int:
        """Apply what the store has logged but not yet committed; returns
        applies. Only A3 logs ahead of its writes, so by default there is
        nothing to apply."""
        return 0

    def wal_backlog(self) -> int:
        """Messages still on the store's write-ahead log (0 without one)."""
        return 0

    def restart(self) -> None:
        """Model a host reboot: drop the store's in-memory state. Only
        A3's commit daemon keeps any, so by default there is none."""

    # -- the read protocol ------------------------------------------------------

    def read(self, name: str, version: int | None = None) -> ReadResult:
        """Read data + provenance with this architecture's guarantees."""
        self.provision()
        return self.retry.run(lambda: self._do_read(name, version))

    def _do_read(self, name: str, version: int | None) -> ReadResult:
        raise NotImplementedError

    def provenance(self, ref: ObjectRef) -> ProvenanceBundle:
        """Fetch the provenance bundle of one object version."""
        return self.read(ref.name, ref.version).bundle

    # -- the oracle --------------------------------------------------------------

    def stored_bundles(self) -> dict[ObjectRef, ProvenanceBundle]:
        """The provenance the cloud durably holds, decoded: each object
        version's bundle, keyed by its subject.

        Read from the services' authoritative state (``@s3:`` pointers
        too, through :func:`authoritative_text`), unmetered and past
        every replica: the oracle the Table 1 checks judge atomicity and
        causal closure against, and what the §7 advisor hydrates from,
        on any layout and backend. Two stored copies of one version's
        provenance that disagree (A1 may find one ancestor piggybacked on
        several objects) raise :class:`ReadCorrectnessViolation`: a
        fault, never a merge.
        """
        raise NotImplementedError

    def stored_provenance(self) -> set[ObjectRef]:
        """The object versions whose provenance the cloud durably holds:
        the keys of :meth:`stored_bundles`."""
        return set(self.stored_bundles())

    # -- introspection -----------------------------------------------------------

    def components(self) -> list[Component]:
        """Diagram boxes (see Figures 1–3)."""
        raise NotImplementedError

    def flows(self) -> list[Flow]:
        """Diagram arrows (see Figures 1–3)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(stores={self.stores_completed})"


def backend_for_site(account: AWSAccount, site: Site):
    """The backend adapter hosting one routed site."""
    return account.provenance_backends()[site.kind]


def fetch_overflow(account: AWSAccount, key: str, bucket: str = DATA_BUCKET) -> str:
    """The text of one spilled >1 KB record value (a metered S3 GET) —
    what every decoder passes to the serializer to resolve ``@s3:``
    pointers."""
    return account.s3.get(bucket, key).bytes().decode("utf-8")


def authoritative_text(account: AWSAccount, key: str) -> str:
    """:func:`fetch_overflow` read from the authoritative record instead,
    unmetered: how :meth:`ProvenanceCloudStore.stored_bundles` resolves
    ``@s3:`` pointers."""
    return account.s3.authoritative_record(DATA_BUCKET, key).blob.read().decode("utf-8")


def read_provenance_item(
    account: AWSAccount, backend, store: str, item_name: str
) -> dict[str, tuple[str, ...]]:
    """Point-read one provenance item from ``store`` on ``backend``.

    SimpleDB shards read a replica via GetAttributes; DynamoDB-style
    shards issue an eventually consistent GetItem — either way the
    read may be stale or empty ({}), which is exactly what the
    MD5‖nonce retry discipline exists to absorb.

    When the read-cache tier is on, the authority is consulted first; a
    miss falls through to the backend and fills the cache, fenced
    against invalidations that land during the read. Empty results are
    never cached — a replica that has not seen the item yet must not
    suppress the next probe.
    """
    cache = account.read_cache
    if cache is not None:
        hit, attrs = cache.get_item(item_name)
        if hit:
            return attrs
        fence = cache.fence()
    attrs = backend.get_item(store, item_name)
    if cache is not None and attrs:
        cache.put_item(item_name, attrs, fence)
    return attrs


def put_provenance_items(
    account: AWSAccount,
    routing: RouterHandle | ShardRouter,
    items: Iterable[tuple[str, Iterable[tuple[str, str]]]],
    batched: bool,
) -> None:
    """Store provenance items per the handle's current write plan.

    The single implementation of §4.2 step 3 / §4.3 step 2(c): the A2
    client (through its coalescer) and the A3 commit daemon both land
    here, so a sharded deployment's two write paths route, group, and
    place identically. Each item is routed through its own write plan
    (shard placement, migration double-writes, and WAL capture are all
    per-item decisions), then the per-site groups go to their backend.

    ``batched`` is the caller's width, never the size of the call at
    hand. Width 1 (``batched=False``) is a batch of one: every item is
    its own group and lands, in caller order, as single-item requests
    (SimpleDB PutAttributes in ≤100-attribute calls, one DynamoDB-style
    UpdateItem) — the paper's protocol. Width > 1 (``batched=True``)
    makes the whole call one group sent through the backends' batch
    APIs (BatchPutAttributes / BatchWriteItem), so N items to one shard
    cost one-ish round trips instead of N, while a call spanning
    shards, backends, or a migration window degrades gracefully into
    one batch per site — and a trailing one-item call at width 8 is
    still a one-entry batch request. Every shape is an idempotent
    set-merge.

    During a live migration a plan may name a second site (the
    double-write window: the write is mirrored to the target layout,
    its spend captured in a scoped meter context and attributed to the
    migration's overhead, never to the client's own bill analysis) or
    ask for WAL capture (the copy phase: the bulk copy may already have
    passed this item, so the write is queued for catch-up replay).

    Ordering within a group: primaries land site-by-site in
    first-appearance order, with items in caller order within each site
    — all the same-object ordering argument needs (one object's
    versions always hash to one site). Mirrors run after the primaries,
    each site inside its own scoped meter so the double-write
    accounting stays attributed per site, then captures.

    Being the single choke point also makes it the write-through
    invalidation hook: when the account runs the read-cache tier, a
    group's cached entries are dropped *after* its writes land on every
    planned site — covering the A2 client, the A3 commit daemon, and
    migration double-writes alike.
    """
    routing = as_handle(routing)
    migration = routing.migration
    cache = account.read_cache

    def put(site: Site, members: list) -> None:
        backend = backend_for_site(account, site)
        if batched:
            backend.put_provenance_items(site.domain, members)
        else:
            for item_name, attrs in members:
                backend.put_provenance_item(site.domain, item_name, attrs)

    items = [(item_name, list(attributes)) for item_name, attributes in items]
    for group in [items] if batched else [[item] for item in items]:
        primaries: dict[tuple[str, str], tuple[Site, list]] = {}
        mirrors: dict[tuple[str, str], tuple[Site, list]] = {}
        captures: list[tuple[str, list[tuple[str, str]]]] = []
        for item in group:
            plan = routing.write_plan(item[0])
            primary, *rest = plan.sites
            primaries.setdefault(primary.key, (primary, []))[1].append(item)
            for site in rest:
                mirrors.setdefault(site.key, (site, []))[1].append(item)
            if plan.capture and migration is not None:
                captures.append(item)
        for site, members in primaries.values():
            put(site, members)
        for site, members in mirrors.values():
            with account.meter.scoped() as scope:
                put(site, members)
            if migration is not None:
                migration.note_double_write(site, scope.usage())
        for item_name, attrs in captures:
            migration.capture_write(item_name, attrs)
        if cache is not None:
            cache.invalidate_many([item_name for item_name, _ in group])


def data_key(name: str) -> str:
    """S3 key holding a file's current data (PASS file ↔ S3 object)."""
    return name


def temp_key(txn_id: str, name: str) -> str:
    """S3 key for a WAL transaction's temporary copy of a file."""
    return f"{TEMP_PREFIX}{txn_id}/{name}"
