"""Routing-epoch indirection: the one router reference everything shares.

Before online migration, every store, daemon, and query engine held a
:class:`~repro.sharding.ShardRouter` directly — fine while the layout
never changed underneath them. :class:`RouterHandle` is the level of
indirection that lets the layout change *while clients write*: all
consumers of routing (the A2/A3 stores, the commit daemon, recovery
scans, and every Q1/Q2/Q3 query phase) share one handle, and the handle
answers three questions per request:

* **where do I read?** (:meth:`RouterHandle.read_site`) — one
  :class:`Site` (layout router + store name). Outside a migration it is
  the current layout's answer; during one, reads are served from the
  *source* layout until the shard owning the path has **cut over**, at
  which point they flip to the target — per shard, so a long migration
  flips incrementally;
* **where do I write?** (:meth:`RouterHandle.write_plan`) — one or two
  sites plus a capture flag. During a migration's copy phase, writes
  land on the source and are *captured* to the migration WAL; during
  the double-write window they land on **both** layouts synchronously;
  after the owning shard cuts over, only on the target;
* **where do I scatter?** (:meth:`RouterHandle.query_sites`) — the
  union of the source layout's stores and every cut-over target store,
  deduplicated by physical identity ``(name, backend kind)``. Result
  sets gather into ref sets, and both copies of a migrating item hold
  identical values (set-merge writes), so the union is always correct;
  the extra reads during the window are honest migration overhead.

``epoch`` counts layout changes: every per-shard cutover bumps it, as
does the migration's final collapse to the target layout — consumers
that cache anything derived from the layout can invalidate on epoch
change.

The handle itself knows no migration mechanics; it delegates to the
active :class:`~repro.migration.live.LiveMigration` when one is
registered. With no migration active every method degenerates to the
current router's answer, byte-identical to holding the router directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sharding import ShardRouter


@dataclass(frozen=True)
class Site:
    """One physical shard store: the layout that names it + its name.

    Two sites are the *same store* iff their :attr:`key` matches — a
    backend flip migration keeps the domain name but changes the kind,
    so identity must include both.
    """

    router: ShardRouter
    domain: str

    @property
    def kind(self) -> str:
        """Backend kind ("sdb"/"ddb") hosting this store."""
        return self.router.backend_for(self.domain)

    @property
    def key(self) -> tuple[str, str]:
        """Physical store identity: (store name, backend kind)."""
        return (self.domain, self.kind)


@dataclass(frozen=True)
class WritePlan:
    """Where one provenance write must land.

    ``sites[0]`` is the primary (what a non-migrating deployment would
    write); any further sites are migration double-writes, metered as
    overhead. ``capture`` asks the caller to also log the write to the
    migration WAL (copy phase: the bulk copy may already have passed
    this item's position, so the write is replayed during catch-up).
    """

    sites: tuple[Site, ...]
    capture: bool = False


class RouterHandle:
    """Shared, epoch-versioned routing indirection (see module doc)."""

    def __init__(self, router: ShardRouter):
        self._current = router
        #: Bumped on every layout change: each per-shard cutover of a
        #: live migration, and its final collapse to the target.
        self.epoch = 0
        self._migration = None

    # -- layout state -----------------------------------------------------

    @property
    def current(self) -> ShardRouter:
        """The settled layout (the source while a migration runs)."""
        return self._current

    @property
    def migration(self):
        """The active :class:`LiveMigration`, or ``None``."""
        return self._migration

    @property
    def migrating(self) -> bool:
        return self._migration is not None

    def begin_migration(self, migration) -> None:
        """Register a live migration (one at a time)."""
        if self._migration is not None:
            raise RuntimeError("a migration is already in progress")
        self._migration = migration

    def bump_epoch(self) -> None:
        self.epoch += 1

    def finish_migration(self, target: ShardRouter) -> None:
        """Collapse to the target layout; the migration is complete.

        This is itself a layout change — query sites shrink from the
        source∪cut-over union to the target alone — so it bumps the
        epoch like every cutover does.
        """
        self._current = target
        self._migration = None
        self.bump_epoch()

    def abort_migration(self) -> None:
        """Drop the migration registration (a crashed migrator).

        Routing reverts to the source layout; a re-run of the migration
        converges (copies are idempotent set-merges and the source was
        never mutated before the drop phase). Writes that already cut
        over live only in the target until the re-run completes.
        """
        self._migration = None

    # -- routing ----------------------------------------------------------

    def read_site(self, path: str) -> Site:
        """The store serving point reads of ``path`` right now."""
        migration = self._migration
        if migration is not None:
            return migration.read_site(path)
        return Site(self._current, self._current.domain_for(path))

    def write_plan(self, item_name: str) -> WritePlan:
        """Where a provenance item write must land (see :class:`WritePlan`)."""
        migration = self._migration
        if migration is not None:
            return migration.write_plan(item_name)
        router = self._current
        return WritePlan(sites=(Site(router, router.domain_for_item(item_name)),))

    def delete_sites(self, item_name: str) -> tuple[Site, ...]:
        """Every store a delete of ``item_name`` must reach.

        During a migration an item may exist in both layouts (copied
        but not yet scrubbed); deleting only one copy would resurrect
        the other at cutover.
        """
        migration = self._migration
        if migration is not None:
            return migration.delete_sites(item_name)
        router = self._current
        return (Site(router, router.domain_for_item(item_name)),)

    def query_sites(self) -> tuple[Site, ...]:
        """Every store a scatter query must cover (physical dedup)."""
        migration = self._migration
        if migration is not None:
            return migration.query_sites()
        router = self._current
        return tuple(Site(router, domain) for domain in router.domains)

    # -- provisioning / introspection -------------------------------------

    def provision(self, cloud) -> None:
        self._current.provision(cloud)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        migrating = ", migrating" if self._migration is not None else ""
        return f"RouterHandle(epoch={self.epoch}, {self._current!r}{migrating})"


def fresh_handle(shards: int = 1, *, placement=None) -> RouterHandle:
    """A new :class:`RouterHandle` over a freshly built layout.

    This is how consumers obtain routing when no shared handle was
    handed to them: stores, daemons, engines, and fleets ask the routing
    layer for a handle instead of constructing a bare
    :class:`~repro.sharding.ShardRouter` themselves (provlint PL005
    keeps router construction inside ``repro.sharding`` /
    ``repro.migration``, so layout policy — placement defaults, domain
    naming — stays in one place).
    """
    return RouterHandle(ShardRouter(shards, placement=placement))


def as_handle(router) -> RouterHandle:
    """Coerce a router-or-handle into a :class:`RouterHandle`.

    A handle passes through unchanged (so every consumer given the same
    handle shares epoch and migration state); a bare
    :class:`ShardRouter` — the pre-migration calling convention, still
    used by operational scripts and tests — gets a fresh handle with no
    migration, which behaves byte-identically to the router itself.
    """
    if isinstance(router, RouterHandle):
        return router
    if isinstance(router, ShardRouter):
        return RouterHandle(router)
    raise TypeError(
        f"expected a ShardRouter or RouterHandle, got {type(router).__name__}"
    )
