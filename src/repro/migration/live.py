"""Online shard migration: copy → double-write → catch-up → cutover → drop.

The offline :func:`repro.sharding.rebalance` is documented as safe only
in a write-quiet window: it reads through replicas and *moves* items,
so a concurrent writer can race it into losing updates. This module is
the production path — a migration that runs **under live traffic**, the
layout changing while clients keep writing, with no recorded provenance
lost or duplicated. The protocol, phase by phase (driven by
:meth:`LiveMigration.step` so callers can interleave work):

1. **copy** — bulk scan-copy every source shard's items to their
   target-layout store (idempotent set-merge puts, so a crashed copy
   re-runs safely). Client writes keep landing on the source layout;
   writes whose item routes differently under the target are *also
   captured* to a migration WAL — an SQS queue of ``prov`` records in
   the :mod:`repro.core.wal` chunk format — because the bulk copy may
   already have passed their position.
2. **double-write** — the copy is complete; the window opens where
   fresh writes land on **both** layouts synchronously (reads are still
   served from the source). From here the WAL backlog is bounded: no
   new records accumulate.
3. **catch-up** — replay the WAL records accumulated during the copy
   against the target layout until the lag (queue depth) drains to
   :data:`LAG_BOUND`. Replays are set-merge puts: replaying an old write
   after a newer double-write of the same item cannot lose values.
4. **cutover** — after a final drain to zero lag, flip reads to the
   target **per shard**: each flip issues metered verification reads
   against the target store, bumps the shared routing epoch, and from
   then on writes for paths owned by that shard go to the target only.
   A long migration flips incrementally; queries scatter over the
   union of source stores and cut-over target stores in the interim
   (set-gather semantics make the union exact).
5. **drop** — with every shard cut over, scrub surviving source stores
   of items that no longer route to them and drop source stores absent
   from the target layout — each item first *verified* present at its
   target site via the authoritative oracle (replica lag during the
   copy scan can hide items; stragglers are repaired from the
   authoritative state before anything is destroyed).

Every phase's overhead is metered exactly via scoped meter contexts:
:class:`MigrationReport` carries per-category :class:`~repro.aws.billing.Usage`
(copy / double-write / catch-up / verification / drop), the counters the
acceptance tests pin (``double_writes``, ``replayed_records``,
``cutover_epochs``), and the per-backend split of migration writes —
:meth:`MigrationReport.cost_lines` turns them into the
``migration.*`` billing lines ``bench_migration_live.py`` reports.

Consistency caveats: reads served from the source are exactly as fresh
as before the migration started; a cut-over shard serves the target
replicas instead (same eventual-consistency discipline). Deletes issued
mid-migration (orphan recovery) are mirrored to both layouts
immediately rather than WAL-captured; a stale WAL record can therefore
postdate a delete of its item, so catch-up replays only the captured
values still present in the source's authoritative state (dropped
records are counted on ``MigrationReport.skipped_replays``) — a
recovered orphan stays recovered. A replica-lagged copy *scan* can
still transiently resurrect an item deleted mid-copy, the same replica
caveat the offline path documents; the next recovery scan re-deletes
it — an extra copy for a while, never a lost item.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.aws.billing import DDB_GSI, Usage
from repro.core.wal import parse_record, prov_records
from repro.errors import NoSuchDomain, NoSuchTable
from repro.migration.handle import RouterHandle, Site, WritePlan
from repro.passlib.records import ObjectRef
from repro.passlib.serializer import SdbItemPayload
from repro.sharding import RebalanceReport, ShardRouter, item_attribute_pairs

# Phase names, in protocol order.
PENDING = "pending"
COPY = "copy"
DOUBLE_WRITE = "double_write"
CATCH_UP = "catch_up"
CUTOVER = "cutover"
DROP = "drop"
DONE = "done"
PHASES = (PENDING, COPY, DOUBLE_WRITE, CATCH_UP, CUTOVER, DROP, DONE)

#: Distinguishes migration incarnations (their WAL queues must never
#: merge records across crashed runs).
_MIGRATION_IDS = itertools.count(1)

#: WAL depth at which catch-up hands over to cutover: drain it all.
LAG_BOUND = 0
#: Copied items per target store re-read (metered) at that shard's flip.
VERIFY_SAMPLE = 4
#: Messages asked for per WAL ReceiveMessage — the SQS maximum.
RECEIVE_BATCH = 10
#: How long a received WAL record stays locked to the drain (seconds).
VISIBILITY_TIMEOUT = 60.0
#: Receive rounds one drain may spend before the migration gives up.
MAX_DRAIN_ROUNDS = 400


class MigrationError(RuntimeError):
    """The migration cannot proceed safely (an invariant failed)."""


def resolve_target_router(
    current: ShardRouter,
    shards: int | None = None,
    placement=None,
    router: ShardRouter | None = None,
) -> ShardRouter:
    """The one way a migration target layout is specified.

    Either a ready ``router``, or ``shards=``/``placement=`` knobs
    resolved against the current layout via
    :meth:`~repro.sharding.ShardRouter.resized` — which tiles the
    current placement pattern when none is given, so a shards-only
    migration never resets the deployment's backend choice to the
    all-SimpleDB default.
    """
    if router is not None:
        if shards is not None or placement is not None:
            raise ValueError("pass shards=/placement= or router=, not both")
        return router
    return current.resized(shards, placement)


def begin_live_migration(
    account,
    routing: RouterHandle,
    shards: int | None = None,
    placement=None,
    router: ShardRouter | None = None,
) -> LiveMigration:
    """Resolve the target and start a migration on the shared handle —
    the bootstrap behind :meth:`repro.sim.Cloud.start_migration`."""
    migration = LiveMigration(
        account,
        routing,
        resolve_target_router(routing.current, shards, placement, router),
    )
    migration.start()
    return migration


def parse_migration_spec(text: str) -> dict:
    """Parse a ``repro demo --migrate`` spec into migrate() kwargs.

    Grammar: comma-separated ``key=value`` pairs — ``shards=8``,
    ``placement=mixed`` (any :func:`repro.sharding.parse_placement`
    string), ``online=false`` (default true, the point of this module).

    >>> parse_migration_spec("shards=8,placement=mixed")
    {'shards': 8, 'placement': 'mixed'}
    """
    kwargs: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ValueError(f"bad migration spec part {part!r} in {text!r}")
        if key == "shards":
            if not value.isdigit() or int(value) < 1:
                raise ValueError(
                    f"bad shard count {value!r} in {text!r} (expected an integer >= 1)"
                )
            kwargs["shards"] = int(value)
        elif key == "placement":
            kwargs["placement"] = value
        elif key == "online":
            lowered = value.lower()
            if lowered not in ("true", "false", "1", "0", "yes", "no"):
                raise ValueError(f"bad online flag {value!r} in {text!r}")
            kwargs["online"] = lowered in ("true", "1", "yes")
        else:
            raise ValueError(f"unknown migration knob {key!r} in {text!r}")
    if not kwargs:
        raise ValueError(f"empty migration spec {text!r}")
    return kwargs


@dataclass
class MigrationReport(RebalanceReport):
    """What an online migration did — the offline report plus the
    live-window accounting.

    The inherited counters keep their meanings (``items_moved`` counts
    bulk-copied items — online they are *copied*, with the source scrub
    deferred to the drop phase). Each ``*_usage`` field is the exact
    metered spend of one protocol category, captured in scoped meter
    contexts so concurrent client traffic is never misattributed;
    :meth:`cost_lines` prices them as distinct ``migration.*`` billing
    lines.
    """

    #: Client writes mirrored synchronously to the target layout during
    #: the double-write window (the write amplification clients pay).
    double_writes: int = 0
    #: WAL records captured during the copy phase.
    wal_records: int = 0
    #: WAL records replayed against the target during catch-up.
    replayed_records: int = 0
    #: WAL records dropped at replay because their item (or every
    #: captured value) had been deleted from the source since capture —
    #: orphan recovery mid-migration must not be undone by a stale
    #: record.
    skipped_replays: int = 0
    #: Per-shard routing-epoch bumps performed at cutover.
    cutover_epochs: int = 0
    #: Metered reads issued against target stores at each shard's flip.
    verification_reads: int = 0
    #: Items deleted from *surviving* source stores in the drop phase
    #: (they route elsewhere under the target layout).
    scrub_deletes: int = 0
    #: Items the drop-phase verification found missing (or incomplete)
    #: at their target site and re-copied from the authoritative state.
    repair_copies: int = 0
    #: Migration-issued writes per backend kind ("sdb"/"ddb"): bulk
    #: copies + double-writes + replays + repairs.
    writes_by_backend: dict[str, int] = field(default_factory=dict)
    #: Phases completed, in order (for operators and the state tests).
    phases_completed: list[str] = field(default_factory=list)
    copy_usage: Usage = field(default_factory=Usage.empty)
    double_write_usage: Usage = field(default_factory=Usage.empty)
    catch_up_usage: Usage = field(default_factory=Usage.empty)
    verification_usage: Usage = field(default_factory=Usage.empty)
    drop_usage: Usage = field(default_factory=Usage.empty)

    def overhead_usage(self) -> Usage:
        """Everything the migration itself spent (not client traffic)."""
        return (
            self.copy_usage
            + self.double_write_usage
            + self.catch_up_usage
            + self.verification_usage
            + self.drop_usage
        )

    def cost_lines(self, prices) -> list[tuple[str, float]]:
        """USD per protocol category — the new migration billing lines."""
        return [
            ("migration.copy", prices.cost(self.copy_usage).total),
            ("migration.double_write", prices.cost(self.double_write_usage).total),
            ("migration.catch_up", prices.cost(self.catch_up_usage).total),
            ("migration.verification", prices.cost(self.verification_usage).total),
            ("migration.drop", prices.cost(self.drop_usage).total),
        ]

    def overhead_cost(self, prices) -> float:
        return sum(amount for _, amount in self.cost_lines(prices))


class LiveMigration:
    """The online-migration state machine (see module doc for protocol).

    Drive it with :meth:`step` (one bounded unit of work — a shard
    copy, a WAL drain round, one shard flip — so callers interleave
    client traffic between steps) or :meth:`run` (to completion). The
    migration registers itself on the shared :class:`RouterHandle` at
    :meth:`start`, which is how every store/daemon/query consumer
    observes the double-write window and per-shard cutovers without
    holding migration state themselves.
    """

    def __init__(self, account, routing: RouterHandle, target: ShardRouter):
        self.account = account
        self.routing = routing
        self.source = routing.current
        self.target = target
        self.phase = PENDING
        self.report = MigrationReport()
        self.migration_id = next(_MIGRATION_IDS)
        self._wal_url: str | None = None
        self._wal_seq = itertools.count(1)
        self._cut_over: set[str] = set()
        self._pending_copies: list[str] = []
        self._pending_cutovers: list[str] = []
        #: Per target domain: sample of copied item names to verify at flip.
        self._verify_names: dict[str, list[str]] = {}

    # -- routing hooks (called via the RouterHandle) -----------------------

    def read_site(self, path: str) -> Site:
        target_domain = self.target.domain_for(path)
        if target_domain in self._cut_over:
            return Site(self.target, target_domain)
        return Site(self.source, self.source.domain_for(path))

    def write_plan(self, item_name: str) -> WritePlan:
        path = ObjectRef.from_item_name(item_name).path
        source_site = Site(self.source, self.source.domain_for(path))
        target_site = Site(self.target, self.target.domain_for(path))
        if target_site.key == source_site.key:
            return WritePlan(sites=(source_site,))
        if target_site.domain in self._cut_over:
            return WritePlan(sites=(target_site,))
        if self.phase == COPY:
            return WritePlan(sites=(source_site,), capture=True)
        return WritePlan(sites=(source_site, target_site))

    def delete_sites(self, item_name: str) -> tuple[Site, ...]:
        path = ObjectRef.from_item_name(item_name).path
        source_site = Site(self.source, self.source.domain_for(path))
        target_site = Site(self.target, self.target.domain_for(path))
        if target_site.key == source_site.key:
            return (source_site,)
        return (source_site, target_site)

    def query_sites(self) -> tuple[Site, ...]:
        sites = [Site(self.source, domain) for domain in self.source.domains]
        keys = {site.key for site in sites}
        for domain in self.target.domains:
            if domain not in self._cut_over:
                continue  # partially copied stores must never serve reads
            site = Site(self.target, domain)
            if site.key not in keys:
                sites.append(site)
                keys.add(site.key)
        return tuple(sites)

    # -- write-path callbacks (from core.base.put_provenance_items) --------

    def capture_write(self, item_name: str, attributes: list[tuple[str, str]]) -> None:
        """Log one copy-phase write to the migration WAL for catch-up."""
        txn_id = f"mig-{self.migration_id:04d}-{next(self._wal_seq):06d}"
        payload = SdbItemPayload(
            item_name=item_name, attributes=tuple(attributes), overflow=()
        )
        with self.account.meter.scoped() as scope:
            for body in prov_records(txn_id, payload):
                self.account.sqs.send_message(self._wal_url, body)
                self.report.wal_records += 1
        self.report.catch_up_usage += scope.usage()

    def note_double_write(self, site: Site, usage: Usage) -> None:
        """Account one mirrored client write (already performed)."""
        self.report.double_writes += 1
        self._count_write(site.kind)
        self.report.double_write_usage += usage

    def _count_write(self, kind: str) -> None:
        self.report.writes_by_backend[kind] = (
            self.report.writes_by_backend.get(kind, 0) + 1
        )

    def _invalidate_cached(self, item_name: str) -> None:
        """Write-through invalidation for the migration's own writes.

        WAL replays, repair copies, and scrub deletes bypass the
        :func:`~repro.core.base.put_provenance_items` choke point (they
        talk to backends directly), so they notify the read-cache
        authority themselves; invalidations are unmetered, so the
        migration's scoped overhead accounting is unperturbed. Cutovers
        need no hook — the routing epoch is part of every memo key.
        """
        if self.account.read_cache is not None:
            self.account.read_cache.invalidate(item_name)

    # -- the state machine -------------------------------------------------

    def start(self) -> None:
        """Provision the target layout, open the WAL, enter the copy phase.

        Registration on the shared handle happens *last*: if target
        provisioning or the WAL queue creation fails, no client write
        ever routes toward the half-built target, and a fresh
        migration can be started cleanly.
        """
        if self.phase != PENDING:
            raise MigrationError(f"cannot start from phase {self.phase!r}")
        if self.routing.migration is not None:
            raise RuntimeError("a migration is already in progress")
        with self.account.meter.scoped() as scope:
            # Creating DDB-placed destination stores also creates (and
            # backfills) their declared GSIs — overhead of the move.
            self.target.provision(self.account.provenance_backends())
        self.report.copy_usage += scope.usage()
        self._wal_url = self.account.sqs.create_queue(
            f"migration-wal-{self.migration_id:04d}"
        )
        self._pending_copies = list(self.source.domains)
        self.routing.begin_migration(self)
        self.phase = COPY

    def step(self) -> bool:
        """One bounded unit of migration work; False when fully done."""
        if self.phase == PENDING:
            self.start()
            return True
        if self.phase == COPY:
            if self._pending_copies:
                self._copy_next_shard()
            if not self._pending_copies:
                self._advance(DOUBLE_WRITE)
            return True
        if self.phase == DOUBLE_WRITE:
            # The window is open the moment the phase is entered (the
            # handle consults ``self.phase``); one step later the WAL
            # backlog — now bounded — starts draining.
            self._advance(CATCH_UP)
            return True
        if self.phase == CATCH_UP:
            self._drain_wal(LAG_BOUND)
            if self.wal_lag() <= LAG_BOUND:
                self._pending_cutovers = list(self.target.domains)
                self._advance(CUTOVER)
            return True
        if self.phase == CUTOVER:
            if self.wal_lag() > 0:
                # Below-bound stragglers must land before any flip.
                self._drain_wal(0)
            self._cutover_next_shard()
            if not self._pending_cutovers:
                self._advance(DROP)
            return True
        if self.phase == DROP:
            self._drop_and_scrub()
            self._advance(DONE)
            self.routing.finish_migration(self.target)
            return False
        return False

    def run(self) -> MigrationReport:
        """Drive the migration to completion; returns its report."""
        limit = 10_000  # generous backstop against a stuck phase
        for _ in range(limit):
            if not self.step():
                return self.report
        raise MigrationError(f"migration did not complete in {limit} steps")

    def _advance(self, phase: str) -> None:
        self.report.phases_completed.append(self.phase)
        self.phase = phase

    # -- copy --------------------------------------------------------------

    def _backends(self):
        return self.account.provenance_backends()

    def _copy_next_shard(self) -> None:
        source_domain = self._pending_copies.pop(0)
        source_kind = self.source.backend_for(source_domain)
        backends = self._backends()
        source_backend = backends[source_kind]
        with self.account.meter.scoped() as scope:
            try:
                via_index, pages = source_backend.migration_pages(source_domain)
                for item_name, attrs in pages:
                    self.report.items_scanned += 1
                    if via_index:
                        self.report.index_streamed_items += 1
                    target_domain = self.target.domain_for_item(item_name)
                    target_kind = self.target.backend_for(target_domain)
                    if (target_domain, target_kind) == (source_domain, source_kind):
                        self.report.items_kept += 1
                        continue
                    backends[target_kind].put_provenance_item(
                        target_domain, item_name, item_attribute_pairs(attrs)
                    )
                    self.report.items_moved += 1
                    self._count_write(target_kind)
                    if target_kind != source_kind:
                        self.report.cross_backend_moves += 1
                    self.report.moves_by_domain[target_domain] = (
                        self.report.moves_by_domain.get(target_domain, 0) + 1
                    )
                    sample = self._verify_names.setdefault(target_domain, [])
                    if len(sample) < VERIFY_SAMPLE:
                        sample.append(item_name)
            except (NoSuchDomain, NoSuchTable):
                # A re-run after a crashed drop phase: the store was
                # already verified empty and dropped — nothing to copy.
                pass
        self.report.copy_usage += scope.usage()

    # -- catch-up ----------------------------------------------------------

    def wal_lag(self) -> int:
        """Records still queued on the migration WAL (the catch-up lag).

        The exact depth — the CloudWatch queue-depth analogue — used
        for phase control; the drain's receives are what get metered.
        """
        if self._wal_url is None:
            return 0
        return self.account.sqs.exact_message_count(self._wal_url)

    def _drain_wal(self, target_lag: int) -> int:
        """Replay WAL records against the target until lag <= target."""
        backends = self._backends()
        applied = 0
        stuck_rounds = 0
        rounds = 0
        with self.account.meter.scoped() as scope:
            while self.wal_lag() > target_lag:
                rounds += 1
                if rounds > MAX_DRAIN_ROUNDS:
                    raise MigrationError(
                        f"WAL did not drain to {target_lag} in "
                        f"{MAX_DRAIN_ROUNDS} rounds"
                    )
                batch = self.account.sqs.receive_message(
                    self._wal_url,
                    max_messages=RECEIVE_BATCH,
                    visibility_timeout=VISIBILITY_TIMEOUT,
                )
                if not batch:
                    stuck_rounds += 1
                    if stuck_rounds >= 4:
                        # Sampling (or a crashed drain's locks) is hiding
                        # messages; let the visibility timeout lapse.
                        self.account.clock.advance(VISIBILITY_TIMEOUT + 1.0)
                        stuck_rounds = 0
                    continue
                stuck_rounds = 0
                for message in batch:
                    record = parse_record(message.body)
                    item_name = record["item"]
                    source_domain = self.source.domain_for_item(item_name)
                    source_kind = self.source.backend_for(source_domain)
                    authoritative = backends[source_kind].authoritative_item(
                        source_domain, item_name
                    )
                    # Replay transports writes the copy may have missed —
                    # only what *survives* in the source. An item (or
                    # value) deleted since capture (orphan recovery runs
                    # mid-migration and deletes from both layouts) must
                    # not be resurrected into the target by a stale WAL
                    # record; the authoritative read is the simulation's
                    # stand-in for the strongly consistent check a real
                    # replayer would issue.
                    pairs = [
                        (name, value)
                        for name, value in record["attrs"]
                        if authoritative is not None
                        and value in authoritative.get(name, ())
                    ]
                    if pairs:
                        target_domain = self.target.domain_for_item(item_name)
                        target_kind = self.target.backend_for(target_domain)
                        backends[target_kind].put_provenance_item(
                            target_domain, item_name, pairs
                        )
                        self.report.replayed_records += 1
                        self._count_write(target_kind)
                        self._invalidate_cached(item_name)
                    else:
                        self.report.skipped_replays += 1
                    self.account.sqs.delete_message(
                        self._wal_url, message.receipt_handle
                    )
                    applied += 1
        self.report.catch_up_usage += scope.usage()
        return applied

    # -- cutover -----------------------------------------------------------

    def _cutover_next_shard(self) -> None:
        target_domain = self._pending_cutovers.pop(0)
        target_kind = self.target.backend_for(target_domain)
        backend = self._backends()[target_kind]
        with self.account.meter.scoped() as scope:
            for item_name in self._verify_names.get(target_domain, ()):
                attrs = backend.get_item(target_domain, item_name)
                self.report.verification_reads += 1
                if not attrs and backend.authoritative_item(
                    target_domain, item_name
                ) is None:
                    raise MigrationError(
                        f"cutover verification: {item_name!r} missing from "
                        f"{target_domain!r} ({target_kind})"
                    )
        self.report.verification_usage += scope.usage()
        self._cut_over.add(target_domain)
        self.routing.bump_epoch()
        self.report.cutover_epochs += 1

    # -- drop / scrub ------------------------------------------------------

    def _covers(self, existing, attrs) -> bool:
        """True when every (attribute, value) of ``attrs`` is present in
        ``existing`` (set-merge writes mean the target may hold more)."""
        if existing is None:
            return False
        for attribute, values in attrs.items():
            have = set(existing.get(attribute, ()))
            if not set(values) <= have:
                return False
        return True

    def _drop_and_scrub(self) -> None:
        backends = self._backends()
        target_sites = {
            (domain, self.target.backend_for(domain))
            for domain in self.target.domains
        }
        with self.account.meter.scoped() as scope:
            for source_domain in self.source.domains:
                source_kind = self.source.backend_for(source_domain)
                backend = backends[source_kind]
                survivor = (source_domain, source_kind) in target_sites
                for item_name in backend.authoritative_item_names(source_domain):
                    target_domain = self.target.domain_for_item(item_name)
                    target_kind = self.target.backend_for(target_domain)
                    if survivor and (target_domain, target_kind) == (
                        source_domain,
                        source_kind,
                    ):
                        continue  # stays put under the target layout
                    attrs = backend.authoritative_item(source_domain, item_name)
                    target_backend = backends[target_kind]
                    existing = target_backend.authoritative_item(
                        target_domain, item_name
                    )
                    if not self._covers(existing, attrs or {}):
                        # Replica lag hid this item (or some values)
                        # from the copy scan; repair before destroying
                        # the only complete copy.
                        target_backend.put_provenance_item(
                            target_domain, item_name, item_attribute_pairs(attrs)
                        )
                        self.report.repair_copies += 1
                        self._count_write(target_kind)
                        self._invalidate_cached(item_name)
                    if survivor:
                        backend.delete_item(source_domain, item_name)
                        self.report.scrub_deletes += 1
                        self._invalidate_cached(item_name)
                if not survivor:
                    backend.drop(source_domain)
                    self.report.domains_deleted.append(source_domain)
            # Teardown: the (fully drained) migration WAL queue. A
            # *crashed* run's abandoned queue has no one to delete it —
            # its records lapse under SQS retention, the queue object
            # lingers, and the re-run opens a fresh queue; the re-run's
            # copy scan makes the stale records redundant (copy-window
            # writes always also landed on the source).
            self.account.sqs.delete_queue(self._wal_url)
            self._wal_url = None
        self.report.drop_usage += scope.usage()
        self.report.index_write_units = self.report.overhead_usage().write_units(
            DDB_GSI
        )
