"""One-stop simulation wiring: cloud + architecture + workload + queries.

:class:`Simulation` is the highest-level entry point — what the README
quickstart uses::

    sim = Simulation(architecture="s3+simpledb+sqs", seed=42)
    sim.run_workload(BlastWorkload(), scale=0.2)
    result = sim.store.read("blast/out/run0/q0000.blast")
    outputs = sim.query_engine().q2_outputs_of("blast")

One cloud
---------

The paper's deployment is one cloud shared by *N* clients (§2.5), so
the deployment is declared once, in :class:`Cloud`: the
:class:`~repro.aws.account.AWSAccount` (clock, meter, services), the
architecture name, the routing handle every consumer shares, the seven
knobs, and the four things done *to* a deployment — build a client
store (:meth:`Cloud.new_store`), hand out the matching query engine
(:meth:`Cloud.query_engine`), start a live layout migration
(:meth:`Cloud.start_migration`) and let daemons and replication
converge (:meth:`Cloud.settle`). The two drivers differ only in client
count and scheduling: :class:`Simulation` is that cloud with one store
and a pump-every-N event loop; :class:`~repro.fleet.ClientFleet` is
that cloud with N stores and a round-robin scheduler.

There is one event loop, too: an untimed stream is a timed stream whose
inter-arrival delays are all zero, so :meth:`Simulation.store_events`
is :meth:`Simulation.store_timed_events` over ``(0.0, event)`` pairs.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.faults import FaultPlan, NO_FAULTS
from repro.core import architecture_class, make_architecture
from repro.core.base import ProvenanceCloudStore, ReadResult
from repro.migration.handle import as_handle, fresh_handle
from repro.migration.live import LiveMigration, MigrationReport, begin_live_migration
from repro.passlib.records import FlushEvent
from repro.query.engine import S3ScanEngine, SimpleDBEngine
from repro.sharding import ShardRouter
from repro.workloads.base import TraceStats, Workload

#: Daemon-drain rounds :meth:`Cloud.settle` spends before giving up on a
#: WAL that will not empty (a crashed client's abandoned records stay
#: until SQS retention reaps them).
SETTLE_ROUNDS = 10


class Cloud:
    """One provenance-aware deployment, shared by every client of it."""

    def __init__(
        self,
        architecture: str,
        seed: int,
        consistency: ConsistencyConfig | None,
        *,
        shards: int,
        placement: str | dict[int, str] | None,
        concurrency: int | None,
        ddb_indexes: str | tuple | None,
        write_batch: int | None,
        read_cache: str | bool | int | None,
        planner: str | None,
        router=None,
    ):
        """The seven knobs — the only documentation of them, set here or
        by their ``repro demo`` flag and nowhere else. Every one is
        optional, and ``None`` (or the default) is the paper's
        deployment, byte-identical on the meter:

        ``shards``/``placement`` pick the provenance layout: N stores
        routed by consistent hash, each placed on the backend the
        placement spec names (``"sdb"``, ``"ddb"``, ``"mixed"``,
        ``"0:sdb,1:ddb"``, or a ``{index: kind}`` map — default
        all-SimpleDB); a ready
        ``router`` (a :class:`~repro.sharding.ShardRouter` or a shared
        :class:`~repro.migration.RouterHandle`) replaces both.
        ``concurrency`` is the wave width of the query engines handed
        out — how many of a scatter wave's per-shard request streams the
        *modeled* list schedule overlaps when it prices the query's
        ``latency`` (an integer >= 1, default 1);
        execution is sequential in submission order at every width, so
        results, spend and the request sequence do not depend on it.
        ``ddb_indexes`` declares global
        secondary indexes on DynamoDB-placed shards (``"name,input"``,
        ``"auto"``, ``""`` for none — default none), so
        Q2/Q3 phases on those shards are index Queries instead of
        Scans. ``write_batch`` is every client coalescer's and commit
        daemon's group-commit width (an integer >= 1, default 1): one
        write path at every width, and the
        width picks the request shape — 1 is a batch of one sent as
        single-item requests, the paper's one-request-per-item
        protocol; above it the batch APIs. ``read_cache`` enables the
        account-wide ElastiCache-style read-cache tier fronting the
        provenance backends (``"on"``, a spec like
        ``"capacity=65536"``, default off) —
        one authority per cloud, so any client's write invalidates what
        another client cached. ``planner`` is the query engines'
        access-path planning mode (``"off"``/``"first-fit"``/``"cost"``,
        default off).
        """
        #: The architecture's store class; what a driver needs to know
        #: about the architecture, it reads off this class.
        self.store_class = architecture_class(architecture)
        if router is None:
            router = fresh_handle(shards, placement=placement)
        elif shards != 1 or placement is not None:
            raise ValueError("pass shards=N/placement=... or router=..., not both")
        self.architecture = architecture
        self.seed = seed
        self.account = AWSAccount(
            seed=seed,
            consistency=consistency or ConsistencyConfig.strong(),
            ddb_indexes=ddb_indexes,
            read_cache=read_cache,
        )
        #: The one *routing handle* over the shard layout (and backend
        #: placement) of the provenance domain — shared by every store,
        #: commit daemon and query engine of this cloud, so a live
        #: migration redirects all of them simultaneously, epoch by epoch.
        self.routing = as_handle(router)
        self.concurrency = concurrency
        self.planner = planner
        self.write_batch = write_batch

    # -- the deployment's parts --------------------------------------------

    def new_store(self, **store_kwargs) -> ProvenanceCloudStore:
        """One more client of this cloud: a provisioned store of the
        cloud's architecture on the shared routing handle."""
        return make_architecture(
            self.architecture, self.account, router=self.routing,
            write_batch=self.write_batch, **store_kwargs,
        )

    def stores(self) -> list[ProvenanceCloudStore]:
        """Every live client store (what :meth:`settle` drains)."""
        raise NotImplementedError

    def query_engine(self) -> S3ScanEngine | SimpleDBEngine:
        """The Table 3 query engine matching this architecture — the one
        place the choice is made.

        An architecture without a provenance domain (A1) is answered by
        scanning object metadata. The indexed engine shares the cloud's
        routing handle, so queries scatter-gather across exactly the
        domains the stores wrote, their waves modeled
        ``self.concurrency`` streams wide, planned by ``self.planner``.
        """
        if not self.store_class.has_provenance_domain:
            return S3ScanEngine(self.account)
        return SimpleDBEngine(
            self.account, router=self.routing,
            concurrency=self.concurrency, planner=self.planner,
        )

    def start_migration(
        self,
        shards: int | None = None,
        placement: str | dict[int, str] | None = None,
        router: ShardRouter | None = None,
    ) -> LiveMigration:
        """Begin an online migration to a new shard layout/placement.

        Returns the started :class:`LiveMigration`; drive it with
        ``step()`` between batches of live traffic (or ``run()`` to
        completion). Every consumer sharing the routing handle —
        stores, commit daemons, query engines from :meth:`query_engine`
        — observes the double-write window and per-shard cutovers as
        they happen.
        """
        if not self.store_class.has_provenance_domain:
            raise ValueError(
                f"the {self.architecture} architecture has no provenance shards to migrate"
            )
        return begin_live_migration(
            self.account, self.routing, shards, placement, router
        )

    def settle(self) -> None:
        """Run daemons and let eventual consistency fully converge.

        Under an adversarial consistency window a commit daemon can
        legitimately *defer* transactions (the temp object has not
        reached any sampled replica yet) — their messages stay locked
        until the visibility timeout. Settling models the passage of
        real time: drain every client's daemon, quiesce replication,
        let timeouts lapse, and go again until every WAL is empty (or
        :data:`SETTLE_ROUNDS` have passed).
        """
        stores = self.stores()
        for _ in range(SETTLE_ROUNDS):
            for store in stores:
                store.pump()
            self.account.quiesce()
            if not any(store.wal_backlog() for store in stores):
                return
            self.account.clock.advance(150.0)  # past the visibility timeout


class Simulation(Cloud):
    """A :class:`Cloud` with one client: one store, one event loop."""

    def __init__(
        self,
        architecture: str = "s3+simpledb+sqs",
        seed: int = 0,
        consistency: ConsistencyConfig | None = None,
        faults: FaultPlan = NO_FAULTS,
        pump_every: int = 25,
        shards: int = 1,
        placement: str | dict[int, str] | None = None,
        concurrency: int | None = None,
        ddb_indexes: str | tuple | None = None,
        write_batch: int | None = None,
        read_cache: str | bool | int | None = None,
        planner: str | None = None,
        router=None,
        **architecture_kwargs,
    ):
        """The knobs are :class:`Cloud`'s. ``faults`` arms the client's
        protocol crash points, ``pump_every`` is how many stores pass
        between drains of the A3 commit daemon, and
        ``architecture_kwargs`` go to the store's constructor
        (``commit_threshold``, ``daemon_faults``, …)."""
        super().__init__(
            architecture, seed, consistency, shards=shards, placement=placement,
            concurrency=concurrency, ddb_indexes=ddb_indexes,
            write_batch=write_batch, read_cache=read_cache, planner=planner,
            router=router,
        )
        self.store = self.new_store(faults=faults, **architecture_kwargs)
        self._pump_every = pump_every
        self.events_stored = 0
        self.stats = TraceStats()

    def stores(self) -> list[ProvenanceCloudStore]:
        return [self.store]

    # -- storing ------------------------------------------------------------

    def store_events(self, events: Iterable[FlushEvent], collect: bool = True) -> int:
        """Stream flush events through the architecture's store protocol
        (a timed stream whose delays are all zero)."""
        return self.store_timed_events(((0.0, event) for event in events), collect)

    def store_timed_events(
        self,
        timed_events: Iterable[tuple[float, FlushEvent]],
        collect: bool = True,
    ) -> int:
        """Store ``(inter_arrival_seconds, event)`` pairs, advancing the
        simulated clock by each delay first — the rate-enveloped capture
        path of bursty workloads; a zero delay leaves the clock alone.
        The commit daemon is pumped every ``pump_every`` stores and the
        cloud settled at the end.
        """
        count = 0
        for delay, event in timed_events:
            if delay > 0:
                self.account.clock.advance(delay)
            self.store.store(event)
            if collect:
                self.stats.add_event(event)
            count += 1
            if count % self._pump_every == 0:
                self.pump()
        self.settle()
        return count

    def run_workload(
        self, workload: Workload, scale: float = 1.0, seed: int | None = None
    ) -> int:
        """Generate and store a workload trace; returns events stored."""
        rng = random.Random(f"{workload.name}:{self.seed if seed is None else seed}")
        stored = self.store_timed_events(workload.iter_timed_events(rng, scale))
        self.events_stored += stored
        return stored

    def pump(self) -> None:
        """Drain the store's commit daemon (no-op without a WAL)."""
        self.store.pump()

    # -- reading ------------------------------------------------------------

    def read(self, name: str, version: int | None = None) -> ReadResult:
        return self.store.read(name, version)

    # -- layout migration ---------------------------------------------------

    def migrate(
        self,
        shards: int | None = None,
        placement: str | dict[int, str] | None = None,
        router: ShardRouter | None = None,
        online: bool = True,
    ) -> MigrationReport:
        """Reshape the provenance layout; returns the migration report.

        Runs the live protocol of :meth:`start_migration` to completion
        — the one way a layout changes — with no client writes
        interleaved: the quiet-window case :mod:`repro.migration.live`
        prices. ``online`` is accepted for existing callers; only
        ``True`` is valid.
        """
        if not online:
            raise ValueError(
                "the offline migration path was removed; every layout "
                "change runs the live protocol (omit online=)"
            )
        return self.start_migration(shards, placement, router).run()

    # -- accounting ------------------------------------------------------------

    def usage(self):
        return self.account.meter.snapshot()

    def bill(self) -> str:
        return self.account.bill()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulation({self.architecture!r}, events={self.events_stored}, "
            f"now={self.account.clock.now:.0f}s)"
        )
