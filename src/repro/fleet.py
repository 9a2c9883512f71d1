"""A fleet of PASS clients sharing one provenance-aware cloud.

The paper's usage model (§2.5) is inherently multi-client: *"multiple
clients can concurrently update different objects at the same time"* —
many research groups sharing one S3 bucket and one provenance domain,
each with its own PASS cache and (for A3) its own WAL queue and commit
daemon.

:class:`ClientFleet` models that deployment: each client owns a
namespace (so the no-concurrent-same-object rule holds by construction),
clients' stores interleave round-robin, any client can crash and a new
incarnation take over, and the shared provenance domain answers
queries spanning everybody's work — the cross-group sharing the paper's
introduction motivates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.aws.account import ConsistencyConfig
from repro.aws.faults import FaultPlan
from repro.errors import ClientCrash
from repro.migration.live import MigrationReport
from repro.passlib.records import FlushEvent
from repro.sharding import ShardRouter
from repro.sim import Cloud
from repro.workloads.trace import TraceDocument


@dataclass
class FleetClient:
    """One client host: its store instance and pending work."""

    name: str
    store: object
    pending: list[FlushEvent] = field(default_factory=list)
    stored: int = 0
    crashes: int = 0

    @property
    def backlog(self) -> int:
        return len(self.pending)


class ClientFleet(Cloud):
    """A :class:`~repro.sim.Cloud` with N clients: interleaved stores,
    crash/restart support."""

    def __init__(
        self,
        n_clients: int = 3,
        architecture: str = "s3+simpledb+sqs",
        seed: int = 0,
        consistency: ConsistencyConfig | None = None,
        shards: int = 1,
        placement: str | dict[int, str] | None = None,
        concurrency: int | None = None,
        ddb_indexes: str | tuple | None = None,
        write_batch: int | None = None,
        read_cache: str | bool | int | None = None,
        planner: str | None = None,
        record_trace: bool = False,
    ):
        """The knobs are :class:`~repro.sim.Cloud`'s, shared by the
        whole fleet like the shard layout itself. ``record_trace`` makes
        the round-robin drain record its op log — ``(client, event)`` in
        exact store order — in :attr:`trace`, ready for
        :func:`repro.workloads.trace.dump_trace` and byte-identical
        replay via :meth:`replay_trace`."""
        super().__init__(
            architecture, seed, consistency, shards=shards, placement=placement,
            concurrency=concurrency, ddb_indexes=ddb_indexes,
            write_batch=write_batch, read_cache=read_cache, planner=planner,
        )
        #: One seeded stream drives every fleet-level random choice —
        #: never the module-level ``random`` state, which other tests
        #: (or pytest-xdist workers) would perturb. Same seed, same run.
        self._rng = random.Random(f"fleet:{seed}")
        #: When ``record_trace``: the fleet's op log — ``(client_name,
        #: event)`` in the exact order the round-robin drain stored
        #: them. Only *successful* stores are recorded (a crashed
        #: attempt is re-recorded when its retry lands), so a replay of
        #: a fault-free run reproduces the meter byte for byte.
        self.record_trace = record_trace
        self.trace: list[tuple[str, FlushEvent]] = []
        self.clients: dict[str, FleetClient] = {}
        for index in range(n_clients):
            self._spawn(f"client-{index}")

    # -- client lifecycle ----------------------------------------------------

    def _spawn(self, name: str) -> FleetClient:
        # Each store runs as its client (an A3 client logs to its own
        # WAL queue, named after it).
        client = FleetClient(name, self.new_store(faults=FaultPlan(), client_id=name))
        self.clients[name] = client
        return client

    def stores(self) -> list:
        return [client.store for client in self.clients.values()]

    def crash_client(self, name: str) -> None:
        """The host dies: in-flight work is lost; backlog survives only
        because the *workload generator* can resubmit it (a real grid
        scheduler would)."""
        client = self.clients[name]
        client.crashes += 1
        pending = client.pending
        replacement = self._spawn(name)
        replacement.pending = pending
        replacement.crashes = client.crashes

    # -- work distribution -------------------------------------------------------

    def submit(self, client_name: str, events: list[FlushEvent]) -> None:
        """Queue a client's flush events (its own namespace of objects)."""
        self.clients[client_name].pending.extend(events)

    def scatter(self, traces: list[list[FlushEvent]]) -> dict[str, int]:
        """Deal whole traces across clients using the fleet's seeded RNG.

        Each trace (one job's causally ordered flush events) goes to a
        single client, chosen from the fleet's own ``random.Random``
        stream — deterministic for a given fleet seed regardless of what
        other code did to the global RNG. Returns events-per-client.
        """
        names = sorted(self.clients)
        assigned: dict[str, int] = {name: 0 for name in names}
        for trace in traces:
            name = names[self._rng.randrange(len(names))]
            self.submit(name, trace)
            assigned[name] += len(trace)
        return assigned

    def _store_round(self, batch: int, crash_schedule: dict | None = None) -> int:
        """One round-robin round: each client stores up to ``batch`` of
        its backlog; returns events stored. The single drain protocol
        both :meth:`run_round_robin` and :meth:`run_live_migration`
        interleave their work with — crash handling included."""
        stored = 0
        for name in sorted(self.clients):
            client = self.clients[name]
            for _ in range(min(batch, client.backlog)):
                event = client.pending[0]
                if crash_schedule and crash_schedule.get(name) == client.stored:
                    del crash_schedule[name]
                    client.store.faults.crash_at_call(
                        len(client.store.faults.log) + 3
                    )
                    try:
                        client.store.store(event)
                    except ClientCrash:
                        self.crash_client(name)
                        break  # next incarnation picks the event up
                client.store.store(event)
                client.pending.pop(0)
                client.stored += 1
                stored += 1
                if self.record_trace:
                    self.trace.append((name, event))
        return stored

    def run_round_robin(self, batch: int = 5, crash_schedule: dict | None = None) -> int:
        """Interleave stores across clients until every backlog drains.

        ``crash_schedule`` maps client name → the store count at which
        that host dies mid-protocol. The fleet restarts the client (a
        fresh incarnation over the same backlog — the grid scheduler
        resubmits the interrupted job) and continues; store protocols
        are idempotent under such resubmission.
        """
        crash_schedule = dict(crash_schedule or {})
        total = 0
        while True:
            stored = self._store_round(batch, crash_schedule)
            total += stored
            if not stored and not any(
                client.backlog for client in self.clients.values()
            ):
                break
        self.settle()
        return total

    # -- trace capture / replay --------------------------------------------------

    def trace_document(self):
        """The recorded op log as a serialisable
        :class:`~repro.workloads.trace.TraceDocument` (JSONL-ready)."""
        return TraceDocument(
            workload=f"fleet:{self.architecture}",
            events=[event for _, event in self.trace],
            clients=[name for name, _ in self.trace],
        )

    def replay_trace(self, trace) -> int:
        """Re-execute a captured fleet op log, store for store.

        ``trace`` is either a list of ``(client_name, event)`` pairs
        (the :attr:`trace` of a recording fleet) or a loaded
        :class:`~repro.workloads.trace.TraceDocument` whose ``clients``
        column was captured. Each event is stored through the named
        client in the recorded order, then the cloud settles — so a
        fresh fleet with the same constructor arguments as the capture
        run ends with a byte-identical meter (fault-free runs; a crash's
        partial protocol spend is not part of the op log).
        """
        if hasattr(trace, "events") and hasattr(trace, "clients"):
            pairs = list(zip(trace.clients, trace.events))
        else:
            pairs = list(trace)
        count = 0
        for name, event in pairs:
            if name is None or name not in self.clients:
                raise ValueError(
                    f"trace names unknown client {name!r}; replay needs a fleet "
                    f"shaped like the capture run (clients: {sorted(self.clients)})"
                )
            client = self.clients[name]
            client.store.store(event)
            client.stored += 1
            count += 1
            if self.record_trace:
                self.trace.append((name, event))
        self.settle()
        return count

    # -- live layout migration ---------------------------------------------------

    def run_live_migration(
        self,
        shards: int | None = None,
        placement: str | dict[int, str] | None = None,
        router: ShardRouter | None = None,
        batch: int = 5,
    ) -> MigrationReport:
        """The live-migration scenario: migrate *while* the fleet writes.

        Interleaves the fleet's round-robin store protocol with
        migration steps: every round, each client stores up to
        ``batch`` of its backlog, then the migration advances one
        step (a shard copy, a WAL drain round, a per-shard cutover).
        Whichever finishes first, the other is driven to completion —
        the fleet keeps writing straight through every phase
        transition, which is the whole point. Returns the
        :class:`MigrationReport`; client backlogs are fully drained and
        the cloud settled on return.
        """
        migration = self.start_migration(shards, placement, router)
        migrating = True
        while True:
            stored = self._store_round(batch)
            migrating = migrating and migration.step()
            if not stored and not migrating:
                break
        self.settle()
        return migration.report

    # -- shared queries ---------------------------------------------------------------

    @property
    def router(self) -> ShardRouter:
        """The settled shard layout (the source during a live migration)."""
        return self.routing.current

    def read(self, name: str):
        """Read through any client (they share the cloud)."""
        first = next(iter(sorted(self.clients)))
        return self.clients[first].store.read(name)

    def total_stored(self) -> int:
        return sum(client.stored for client in self.clients.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClientFleet({self.architecture!r}, clients={len(self.clients)}, "
            f"stored={self.total_stored()})"
        )
