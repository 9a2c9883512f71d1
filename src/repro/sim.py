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
architecture name, the routing handle every consumer shares, the
cloud's settings (one :class:`~repro.deployment.Deployment`, parsed
once — the one place they are documented), and the four things done
*to* a deployment — add a client host (:meth:`Cloud.add_client`), hand
out the query engine over its sites (:meth:`Cloud.query_engine`), start a
live layout migration (:meth:`Cloud.start_migration`) and let daemons
and replication converge (:meth:`Cloud.settle`). The two drivers differ only in client
count and scheduling: :class:`Simulation` is that cloud with one store
and a pump-every-N event loop; :class:`~repro.fleet.ClientFleet` is
that cloud with N stores and a round-robin scheduler.

One fault schedule
------------------

A cloud's clients are named hosts (``client-0``, ``client-1``, …), each
with its store and a backlog of pending events. Every store, crash,
reboot, daemon round, clock advance, migration step and settle of a run
is a step of a :mod:`fault schedule <repro.schedule>`, executed by
:meth:`Cloud.apply` — the only place a step runs and the only place a
crash is caught — and recorded in :attr:`Cloud.schedule`. Every driver
runs through it, :class:`Simulation`'s event loop included, so every
run can be written to a run file (:func:`repro.schedule.dumps`) and
rebuilt and replayed from that file alone (:meth:`Cloud.from_run`).
Only the daemons' own ``run_once``/``drain`` inside a ``pump`` stay
below the interpreter.

There is one event loop, too: an untimed stream is a timed stream whose
inter-arrival delays are all zero, so :meth:`Simulation.store_events`
is :meth:`Simulation.store_timed_events` over ``(0.0, event)`` pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.core import architecture_class, make_architecture
from repro.core.base import ProvenanceCloudStore, ReadResult
from repro.core.s3_standalone import BucketScan
from repro.deployment import Deployment
from repro.errors import ClientCrash, ScheduleFormatError
from repro.migration.handle import fresh_handle
from repro.migration.live import LiveMigration, MigrationReport, begin_live_migration
from repro.migration.live import parse_migration_spec
from repro.passlib.records import FlushEvent
from repro.query.engine import SimpleDBEngine
from repro.schedule import SETTLE, Run, Step, check_step
from repro.sharding import ShardRouter
from repro.workloads.base import TraceStats, Workload

#: The one client of a :class:`Simulation`, and the steps its event loop
#: applies.
CLIENT = "client-0"
STORE = Step(CLIENT, "store")
PUMP = Step("daemon-0", "pump")

#: Daemon-drain rounds :meth:`Cloud.settle` spends before giving up on a
#: WAL that will not empty (a crashed client's abandoned records stay
#: until SQS retention reaps them).
SETTLE_ROUNDS = 10


@dataclass
class Client:
    """One client host: its store (the current incarnation) and pending
    work. ``stored`` counts this incarnation's stores; ``crashes`` the
    reboots the host has gone through."""

    name: str
    store: ProvenanceCloudStore
    pending: list[FlushEvent] = field(default_factory=list)
    stored: int = 0
    crashes: int = 0

    @property
    def backlog(self) -> int:
        return len(self.pending)


class Cloud:
    """One provenance-aware deployment, shared by every client of it.

    Its settings are :attr:`deployment`, one
    :class:`~repro.deployment.Deployment` — the one place they are
    documented — which the routing handle, the account, every client
    store and every query engine read."""

    def __init__(
        self,
        architecture: str,
        seed: int,
        consistency: ConsistencyConfig | None = None,
        deployment: Deployment | None = None,
        **knobs,
    ):
        """The cloud's settings are one :class:`~repro.deployment.Deployment`
        (documented there): ``deployment`` (default: the paper's), with
        any ``knobs`` — its field names — replacing its fields."""
        #: The architecture's store class; what a driver needs to know
        #: about the architecture, it reads off this class.
        self.store_class = architecture_class(architecture)
        self.architecture = architecture
        self.seed = seed
        #: Every setting of this cloud, parsed once.
        self.deployment = settings = replace(deployment or Deployment(), **knobs)
        # The cache fronts, and the planner prices the access paths of, a
        # provenance domain: no A1 write would invalidate a memo entry.
        needs_domain = settings.read_cache or settings.planner != "off"
        if needs_domain and not self.store_class.has_provenance_domain:
            raise ValueError(
                f"the {architecture} architecture has no provenance domain for "
                "read_cache or planner"
            )
        self.account = AWSAccount(
            seed=seed,
            consistency=consistency or ConsistencyConfig.strong(),
            ddb_indexes=settings.ddb_indexes,
            read_cache=settings.read_cache,
        )
        #: The one *routing handle* over the shard layout (and backend
        #: placement) of the provenance domain — shared by every store,
        #: commit daemon and query engine of this cloud, so a live
        #: migration redirects all of them simultaneously, epoch by epoch.
        self.routing = fresh_handle(settings.shards, placement=settings.placement)
        #: The client hosts by name (``client-0``, ``client-1``, …).
        self.clients: dict[str, Client] = {}
        #: Every step :meth:`apply` ran, in order — ready for
        #: :func:`repro.schedule.dumps` and :meth:`replay`.
        self.schedule: list[Step] = []

    @staticmethod
    def from_run(run: Run) -> "Cloud":
        """The cloud a run file describes (:func:`repro.schedule.loads`),
        after its run: built from the file's header with one client per
        backlog, each backlog submitted, and every step replayed. A step
        that cannot run, or a replay that leaves other pending counts
        than the file records, raises :class:`ScheduleFormatError`."""
        cloud = Cloud(run.architecture, run.seed, run.consistency, run.deployment)
        for events in run.backlogs.values():
            cloud.submit(cloud.add_client(), events)
        for index, step in enumerate(run.steps):
            try:
                cloud.apply(step)
            except ValueError as exc:
                raise ScheduleFormatError(f"step {index}: {exc}") from None
        left = {name: client.backlog for name, client in cloud.clients.items()}
        if left != run.pending:
            raise ScheduleFormatError(
                f"the replay leaves {left} events pending, the file records {run.pending}"
            )
        return cloud

    # -- the deployment's parts --------------------------------------------

    def add_client(self) -> str:
        """One more client host (``client-<k>``) of this cloud; returns
        its name."""
        return self._spawn(f"client-{len(self.clients)}").name

    def _spawn(self, name: str) -> Client:
        """A client host's incarnation: a provisioned store of the
        cloud's architecture on the shared routing handle, running as
        the client (an A3 client logs to its own WAL queue, named after
        it) and owning its fault plan."""
        store = make_architecture(
            self.architecture, self.account, router=self.routing, client_id=name,
            write_batch=self.deployment.write_batch,
            commit_threshold=self.deployment.commit_threshold,
        )
        self.clients[name] = client = Client(name, store)
        return client

    def stores(self) -> list[ProvenanceCloudStore]:
        """Every live client store (what :meth:`settle` drains)."""
        return [client.store for client in self.clients.values()]

    def submit(self, client_name: str, events: list[FlushEvent]) -> None:
        """Queue a client's flush events (its own namespace of objects)."""
        self.clients[client_name].pending.extend(events)

    def read(self, name: str, version: int | None = None) -> ReadResult:
        """Read through the first client (they all share the cloud)."""
        return self.stores()[0].read(name, version)

    # -- the fault schedule --------------------------------------------------

    def apply(self, step) -> str | None:
        """Execute and record one schedule step (the actors and actions
        are listed in :mod:`repro.schedule`) — the one place a step runs.
        Returns the fault point if a ``store`` step crashed its client:
        the event stays pending for the host's next incarnation. Any
        other crash (a commit daemon's, even inside a store) propagates."""
        number = len(self.schedule)
        actor, action, arg = step = check_step(step, number)
        kind, _, index = actor.partition("-")
        client = self.clients.get(f"client-{index}") if index else None
        if index and client is None:
            raise ScheduleFormatError(f"step {number}: this cloud has no {actor}")
        if action == "store" and not client.pending:
            raise ScheduleFormatError(f"step {number}: {actor} has no pending event")
        migration = self.routing.migration
        if action == "migrate" and migration is not None:
            layout = self.routing.current.resized(**parse_migration_spec(arg))
            if (layout.shards, layout.placement) != (
                migration.target.shards, migration.target.placement
            ):
                raise ScheduleFormatError(
                    f"step {number}: {arg!r} is not the running migration's layout"
                )
        self.schedule.append(step)
        if action == "store":
            store = client.store
            try:
                store.store(client.pending[0])
            except ClientCrash as crash:
                if crash.plan is not store.faults:
                    raise
                return crash.point
            client.pending.pop(0)
            client.stored += 1
        elif action == "crash":
            plan = client.store.faults
            (plan.crash_at_call if isinstance(arg, int) else plan.crash_at)(arg)
        elif action == "pump":
            client.store.pump()
        elif action == "reboot" and kind == "daemon":
            client.store.restart()
        elif action == "reboot":
            # The grid scheduler resubmits the interrupted job to a
            # fresh incarnation over the same backlog.
            reborn = self._spawn(client.name)
            reborn.pending, reborn.crashes = client.pending, client.crashes + 1
        elif action == "advance":
            self.account.clock.advance(arg)
        elif action == "settle":
            self.settle()
        elif migration is None:
            self.start_migration(**parse_migration_spec(arg))
        else:
            migration.step()
        return None

    def replay(self, schedule: Iterable) -> int:
        """Apply every step of ``schedule`` in order (a lazy generator is
        consulted after each step lands); returns the events stored."""
        stored = 0
        for step in schedule:
            if self.apply(step) is None and step[1] == "store":
                stored += 1
        return stored

    def query_engine(self) -> SimpleDBEngine:
        """The Table 3 query engine over this cloud's sites — the one
        place they are chosen.

        An architecture with a provenance domain is queried on the
        cloud's routing handle, so queries scatter-gather across exactly
        the domains the stores wrote; A1's one site is the data bucket,
        whose only access path is a full metadata scan
        (:class:`~repro.core.s3_standalone.BucketScan`). Waves are
        modeled and planned as the deployment's ``concurrency`` and
        ``planner`` say.
        """
        sites = self.routing if self.store_class.has_provenance_domain else BucketScan(self.account)
        return SimpleDBEngine(
            self.account, router=sites,
            concurrency=self.deployment.concurrency, planner=self.deployment.planner,
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
        pump_every: int = 25,
        **knobs,
    ):
        """The ``knobs`` (``deployment=`` or its fields) are
        :class:`Cloud`'s. ``pump_every`` is how
        many stores pass between drains of the A3 commit daemon. The
        store arms its own crash points (``sim.store.faults``; a
        schedule's ``crash`` step arms them)."""
        super().__init__(architecture, seed, consistency, **knobs)
        self.add_client()
        self._pump_every = pump_every
        self.events_stored = 0
        #: What the loop stored, counted by :meth:`TraceStats.add_event`:
        #: the A1-metadata and WAL sizing fields read 0 (they are
        #: ``collect_stats``'s; the run's own traffic is on its meter),
        #: and on A1, which writes no SimpleDB item, the item figures.
        self.stats = TraceStats()

    @property
    def store(self) -> ProvenanceCloudStore:
        """The client's store (``client-0``'s current incarnation)."""
        return self.clients[CLIENT].store

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
        cloud settled at the end. Each of these is a step through
        :meth:`~Cloud.apply`, so the run's :attr:`~Cloud.schedule` holds
        them all; the events themselves are not kept. A crash of the
        client's store propagates as its :class:`ClientCrash`. The
        client's backlog must be empty: the loop stores each event as
        the backlog's only one. With ``collect`` each stored event is
        counted into :attr:`stats` (:meth:`TraceStats.add_event`, which
        reads the SimpleDB items an A2/A3 store has already memoised, on
        A1 counts none, and sizes no A1-metadata or WAL encoding).
        """
        client = self.clients[CLIENT]
        if client.pending:
            raise ValueError(f"{CLIENT} has {client.backlog} events pending before the loop")
        count = 0
        for delay, event in timed_events:
            if delay > 0:
                self.apply(Step("cloud", "advance", delay))
            client.pending.append(event)
            point = self.apply(STORE)
            if point is not None:
                client.pending.pop()
                raise ClientCrash(point, client.store.faults)
            if collect:
                self.stats.add_event(event, self.store_class.has_provenance_domain)
            count += 1
            if count % self._pump_every == 0:
                self.apply(PUMP)
        self.apply(SETTLE)
        return count

    def run_workload(
        self, workload: Workload, scale: float = 1.0, seed: int | None = None
    ) -> int:
        """Generate and store a workload trace; returns events stored."""
        rng = random.Random(f"{workload.name}:{self.seed if seed is None else seed}")
        stored = self.store_timed_events(workload.iter_timed_events(rng, scale))
        self.events_stored += stored
        return stored

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
