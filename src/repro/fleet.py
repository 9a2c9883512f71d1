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

Its drivers are step generators over the cloud's one interpreter
(:meth:`~repro.sim.Cloud.apply`): :meth:`ClientFleet.round_robin` yields
the drain's ``store`` steps (and a ``reboot`` after any store that
crashed its client), :meth:`ClientFleet.run_live_migration` interleaves
``migrate`` steps, and :meth:`ClientFleet.replay_trace` stores a
captured op log. A crash is injected as a ``crash`` step — applied
before a run, or spliced into the lazy :meth:`round_robin` stream — and
the recorded :attr:`~repro.sim.Cloud.schedule` replays the whole run,
crashes included.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.aws.account import ConsistencyConfig
from repro.migration.live import MigrationReport
from repro.passlib.records import FlushEvent
from repro.schedule import Step
from repro.sharding import ShardRouter
from repro.sim import Cloud
from repro.workloads.trace import TraceDocument

SETTLE = Step("cloud", "settle")


class ClientFleet(Cloud):
    """A :class:`~repro.sim.Cloud` with N clients: interleaved stores,
    crash/restart support."""

    def __init__(
        self,
        n_clients: int = 3,
        architecture: str = "s3+simpledb+sqs",
        seed: int = 0,
        consistency: ConsistencyConfig | None = None,
        **knobs,
    ):
        """The ``knobs`` are :class:`~repro.sim.Cloud`'s (``shards=``,
        ``placement=``, …), shared by the whole fleet like the shard
        layout itself."""
        super().__init__(architecture, seed, consistency, **knobs)
        #: One seeded stream drives every fleet-level random choice —
        #: never the module-level ``random`` state, which other tests
        #: (or pytest-xdist workers) would perturb. Same seed, same run.
        self._rng = random.Random(f"fleet:{seed}")
        for _ in range(n_clients):
            self.add_client()

    # -- work distribution -------------------------------------------------------

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

    def round_robin(self, batch: int = 5, migrate: str | None = None) -> Iterator[Step]:
        """The round-robin drain as a lazy step stream, until every
        backlog drains: each round, every client stores up to ``batch``
        of its backlog; a store that crashes its client ends that
        client's round with a ``reboot`` (a fresh incarnation over the
        same backlog — the grid scheduler resubmits the interrupted
        job). With ``migrate`` (a layout spec), one ``migrate`` step
        follows every round until the migration is done. Each step is
        generated from the fleet as the previous one left it."""
        migrating = migrate is not None
        while True:
            stored = 0
            for name in sorted(self.clients):
                for _ in range(min(batch, self.clients[name].backlog)):
                    backlog = self.clients[name].backlog
                    yield Step(name, "store")
                    if self.clients[name].backlog == backlog:  # it crashed
                        yield Step(name, "reboot")
                        break
                    stored += 1
            if migrating:
                yield Step("cloud", "migrate", migrate)
                migrating = self.routing.migration is not None
            if not (stored or migrating or any(c.backlog for c in self.clients.values())):
                return

    def run_round_robin(self, batch: int = 5) -> int:
        """Apply :meth:`round_robin`, then settle; returns events stored."""
        total = self.replay(self.round_robin(batch))
        self.apply(SETTLE)
        return total

    # -- trace capture / replay --------------------------------------------------

    def trace_document(self):
        """The op log (:attr:`~repro.sim.Cloud.trace`) as a serialisable
        :class:`~repro.workloads.trace.TraceDocument` (JSONL-ready)."""
        return TraceDocument(
            workload=f"fleet:{self.architecture}",
            events=[event for _, event in self.trace],
            clients=[name for name, _ in self.trace],
        )

    def replay_trace(self, document: TraceDocument) -> int:
        """Re-execute a captured fleet op log, store for store.

        ``document`` is a loaded :class:`~repro.workloads.trace.
        TraceDocument` whose ``clients`` column was captured (see
        :meth:`trace_document`). The events are queued on the named
        clients, stored one ``store`` step at a time in the recorded
        order, and the cloud settles — so a fresh fleet with the same
        constructor arguments as a fault-free capture run ends with a
        byte-identical meter.
        """
        unknown = set(document.clients) - set(self.clients)
        if unknown or any(client.backlog for client in self.clients.values()):
            raise ValueError(
                f"replay needs a fleet shaped like the capture run, with empty "
                f"backlogs (unknown clients: {sorted(unknown, key=str)})"
            )
        for name, event in zip(document.clients, document.events):
            self.submit(name, [event])
        count = self.replay(Step(name, "store") for name in document.clients)
        self.apply(SETTLE)
        return count

    # -- live layout migration ---------------------------------------------------

    def run_live_migration(
        self,
        shards: int | None = None,
        placement: str | None = None,
        batch: int = 5,
    ) -> MigrationReport:
        """The live-migration scenario: migrate *while* the fleet writes.

        A ``migrate`` step starts the migration to the new layout; then
        every :meth:`round_robin` round of stores is followed by one
        more ``migrate`` step (a shard copy, a WAL drain round, a
        per-shard cutover). Whichever finishes first, the other is
        driven to completion — the fleet keeps writing straight through
        every phase transition, which is the whole point. Returns the
        :class:`MigrationReport`; client backlogs are fully drained and
        the cloud settled on return.
        """
        layout = {"shards": shards, "placement": placement}
        spec = ",".join(f"{key}={value}" for key, value in layout.items() if value is not None)
        self.apply(Step("cloud", "migrate", spec))
        migration = self.routing.migration
        self.replay(self.round_robin(batch, migrate=spec))
        self.apply(SETTLE)
        return migration.report

    # -- shared queries ---------------------------------------------------------------

    @property
    def router(self) -> ShardRouter:
        """The settled shard layout (the source during a live migration)."""
        return self.routing.current

    def total_stored(self) -> int:
        return sum(client.stored for client in self.clients.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClientFleet({self.architecture!r}, clients={len(self.clients)}, "
            f"stored={self.total_stored()})"
        )
