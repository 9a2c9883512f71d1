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
crashed its client), and :meth:`ClientFleet.run_live_migration`
interleaves ``migrate`` steps. A crash is injected as a ``crash`` step —
applied before a run, or spliced into the lazy :meth:`round_robin`
stream. The backlogs :meth:`ClientFleet.scatter` dealt and the recorded
:attr:`~repro.sim.Cloud.schedule` make the run file
(:func:`repro.schedule.dumps`) that replays the whole run, crashes
included.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.aws.account import ConsistencyConfig
from repro.migration.live import MigrationReport
from repro.passlib.records import FlushEvent
from repro.schedule import SETTLE, Step
from repro.sharding import ShardRouter
from repro.sim import Cloud


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

    def scatter(self, traces: list[list[FlushEvent]]) -> dict[str, list[FlushEvent]]:
        """Deal whole traces across clients using the fleet's seeded RNG.

        Each trace (one job's causally ordered flush events) goes to a
        single client, chosen from the fleet's own ``random.Random``
        stream — deterministic for a given fleet seed regardless of what
        other code did to the global RNG. Returns the backlog dealt to
        each client (the run file's backlogs for a run that starts here).
        """
        names = sorted(self.clients)
        dealt: dict[str, list[FlushEvent]] = {name: [] for name in names}
        for trace in traces:
            name = names[self._rng.randrange(len(names))]
            self.submit(name, trace)
            dealt[name].extend(trace)
        return dealt

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
