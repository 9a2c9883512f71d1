"""One-stop simulation wiring: cloud + architecture + workload + queries.

:class:`Simulation` is the highest-level entry point — what the README
quickstart uses::

    sim = Simulation(architecture="s3+simpledb+sqs", seed=42)
    sim.run_workload(BlastWorkload(), scale=0.2)
    result = sim.store.read("blast/out/run0/q0000.blast")
    outputs = sim.query_engine().q2_outputs_of("blast")

It owns the :class:`~repro.aws.account.AWSAccount` (clock, meter,
services), constructs the requested architecture with a clock-advancing
retry policy, streams workload events through the store protocol
(pumping the A3 commit daemon as it goes), and hands out the matching
query engine.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.aws.faults import FaultPlan, NO_FAULTS
from repro.core.base import ProvenanceCloudStore, ReadResult, RetryPolicy
from repro.core.s3_simpledb import S3SimpleDB
from repro.core.s3_simpledb_sqs import S3SimpleDBSQS
from repro.core.s3_standalone import S3Standalone
from repro.migration.live import (
    LiveMigration,
    begin_live_migration,
    resolve_target_router,
)
from repro.passlib.records import FlushEvent
from repro.query.engine import S3ScanEngine, SimpleDBEngine
from repro.migration.handle import fresh_handle
from repro.sharding import RebalanceReport, ShardRouter, rebalance
from repro.workloads.base import TraceStats, Workload

_FACTORIES = {
    "s3": S3Standalone,
    "s3+simpledb": S3SimpleDB,
    "s3+simpledb+sqs": S3SimpleDBSQS,
}


class Simulation:
    """A wired-up provenance-aware cloud."""

    def __init__(
        self,
        architecture: str = "s3+simpledb+sqs",
        seed: int = 0,
        consistency: ConsistencyConfig | None = None,
        faults: FaultPlan = NO_FAULTS,
        retry_attempts: int = 10,
        pump_every: int = 25,
        shards: int = 1,
        placement: str | dict[int, str] | None = None,
        concurrency: int | None = None,
        ddb_indexes: str | tuple | None = None,
        write_batch: int | None = None,
        read_cache: str | bool | int | None = None,
        planner: str | None = None,
        **architecture_kwargs,
    ):
        """``shards``/``placement`` pick the provenance layout: N stores
        routed by consistent hash, each placed on the backend the
        placement spec names (``"sdb"``, ``"ddb"``, ``"mixed"``,
        ``"0:sdb,1:ddb"``, or a ``{index: kind}`` map — default
        all-SimpleDB, or the ``REPRO_BACKEND_PLACEMENT`` environment
        spec). ``ddb_indexes`` declares global secondary indexes on
        DynamoDB-placed shards (``"name,input"``, ``"auto"``, ``""`` for
        none — default the ``REPRO_DDB_INDEXES`` environment spec), so
        Q2/Q3 phases on those shards are index Queries instead of
        Scans. ``write_batch`` sets the client coalescer's and commit
        daemon's group-commit width (default 1, or the
        ``REPRO_WRITE_BATCH`` environment override): one write path at
        every width, and the width picks the request shape — 1 is a
        batch of one sent as single-item requests, the paper's
        one-request-per-item protocol; above it the batch APIs.
        ``read_cache`` enables the
        ElastiCache-style read-cache tier fronting the provenance
        backends (``"on"``, a spec like ``"capacity=65536"``, or the
        ``REPRO_READ_CACHE`` environment override — default off,
        byte-identical on the meter). ``planner`` picks the query
        engines' access-path planning mode (``"off"``/``"first-fit"``/
        ``"cost"``, default the ``REPRO_QUERY_PLANNER`` environment
        spec or off — off is byte-identical on the meter)."""
        if architecture not in _FACTORIES:
            raise ValueError(
                f"unknown architecture {architecture!r}; "
                f"expected one of {sorted(_FACTORIES)}"
            )
        self.architecture = architecture
        self.seed = seed
        self.account = AWSAccount(
            seed=seed,
            consistency=consistency or ConsistencyConfig.strong(),
            ddb_indexes=ddb_indexes,
            read_cache=read_cache,
        )
        retry = RetryPolicy(
            attempts=retry_attempts,
            wait=lambda: self.account.clock.advance(0.5),
        )
        if architecture_kwargs.get("router") is None:
            architecture_kwargs["router"] = fresh_handle(shards, placement=placement)
        elif shards != 1 or placement is not None:
            raise ValueError("pass shards=N/placement=... or router=..., not both")
        if architecture != "s3":
            architecture_kwargs.setdefault("write_batch", write_batch)
        elif write_batch is not None:
            raise ValueError("the s3 architecture has no provenance write path to batch")
        self.store: ProvenanceCloudStore = _FACTORIES[architecture](
            self.account, faults=faults, retry=retry, **architecture_kwargs
        )
        self.store.provision()
        #: Scatter-gather worker-pool width for query engines handed out
        #: by :meth:`query_engine` (None → sequential, or the
        #: ``REPRO_QUERY_CONCURRENCY`` environment override).
        self.concurrency = concurrency
        #: Access-path planning mode for query engines handed out by
        #: :meth:`query_engine` (None → the ``REPRO_QUERY_PLANNER``
        #: environment spec, default off).
        self.planner = planner
        self._pump_every = pump_every
        self.events_stored = 0
        self.stats = TraceStats()

    # -- storing ------------------------------------------------------------

    def store_events(self, events: Iterable[FlushEvent], collect: bool = True) -> int:
        """Stream flush events through the architecture's store protocol."""
        count = 0
        for event in events:
            self.store.store(event)
            if collect:
                self.stats.add_event(event)
            count += 1
            if count % self._pump_every == 0:
                self.pump()
        self.settle()
        return count

    def store_timed_events(
        self,
        timed_events: Iterable[tuple[float, FlushEvent]],
        collect: bool = True,
    ) -> int:
        """Store ``(inter_arrival_seconds, event)`` pairs, advancing the
        simulated clock by each delay first — the rate-enveloped capture
        path bursty workloads (``workload.timed``) drive. A zero delay
        takes exactly the :meth:`store_events` store path, so untimed
        streams stay byte-identical on the meter either way.
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

    def settle(self, max_rounds: int = 12) -> None:
        """Run daemons and let eventual consistency fully converge.

        Under an adversarial consistency window the commit daemon can
        legitimately *defer* transactions (the temp object has not
        reached any sampled replica yet) — their messages stay locked
        until the visibility timeout. Settling models the passage of
        real time: quiesce replication, let timeouts lapse, re-run the
        daemon, until the WAL is empty.
        """
        self.pump()
        self.account.quiesce()
        if not isinstance(self.store, S3SimpleDBSQS):
            return
        for _ in range(max_rounds):
            if self.account.sqs.exact_visible_count(self.store.queue_url) == 0:
                remaining = self.account.sqs.exact_message_count(self.store.queue_url)
                if remaining == 0:
                    return
            self.account.clock.advance(150.0)  # past the visibility timeout
            self.pump()
            self.account.quiesce()

    def run_workload(
        self, workload: Workload, scale: float = 1.0, seed: int | None = None
    ) -> int:
        """Generate and store a workload trace; returns events stored."""
        rng = random.Random(f"{workload.name}:{self.seed if seed is None else seed}")
        if workload.timed:
            stored = self.store_timed_events(workload.iter_timed_events(rng, scale))
        else:
            stored = self.store_events(workload.iter_events(rng, scale))
        self.events_stored += stored
        return stored

    def pump(self) -> None:
        """Drain the A3 commit daemon (no-op for the other architectures)."""
        if isinstance(self.store, S3SimpleDBSQS):
            self.store.pump()

    # -- reading / querying ---------------------------------------------------

    def read(self, name: str, version: int | None = None) -> ReadResult:
        return self.store.read(name, version)

    def query_engine(self):
        """The Table 3 query engine matching this architecture.

        SimpleDB engines share the store's shard router, so queries
        scatter-gather across exactly the domains the store wrote —
        dispatched on a worker pool of ``self.concurrency`` streams
        (1 = the sequential paper behaviour).
        """
        if self.architecture == "s3":
            return S3ScanEngine(self.account)
        return SimpleDBEngine(
            self.account,
            router=self.store.routing,
            concurrency=self.concurrency,
            planner=self.planner,
        )

    # -- layout migration -------------------------------------------------------

    def start_migration(
        self,
        shards: int | None = None,
        placement: str | dict[int, str] | None = None,
        router: ShardRouter | None = None,
        **knobs,
    ) -> LiveMigration:
        """Begin an online migration to a new shard layout/placement.

        Returns the started :class:`LiveMigration`; drive it with
        ``step()`` between batches of live traffic (or ``run()`` to
        completion). Every consumer sharing the store's routing handle
        — stores, the commit daemon, query engines from
        :meth:`query_engine` — observes the double-write window and
        per-shard cutovers as they happen.
        """
        if self.architecture == "s3":
            raise ValueError("the s3 architecture has no provenance shards to migrate")
        return begin_live_migration(
            self.account, self.store.routing, shards, placement, router, **knobs
        )

    def migrate(
        self,
        shards: int | None = None,
        placement: str | dict[int, str] | None = None,
        router: ShardRouter | None = None,
        online: bool = True,
        **knobs,
    ) -> RebalanceReport:
        """Reshape the provenance layout; returns the migration report.

        ``online=True`` (default) runs the live protocol — safe under
        concurrent writers, at the metered cost of double-writes,
        WAL catch-up, and cutover verification. ``online=False`` runs
        the offline :func:`~repro.sharding.rebalance` (cheaper: one
        write per moved item) and swaps the layout atomically — correct
        only in a write-quiet window.
        """
        if online:
            return self.start_migration(shards, placement, router, **knobs).run()
        if self.architecture == "s3":
            raise ValueError("the s3 architecture has no provenance shards to migrate")
        target = resolve_target_router(
            self.store.routing.current, shards, placement, router
        )
        report = rebalance(self.account, self.store.routing.current, target)
        self.store.routing.swap(target)
        return report

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
