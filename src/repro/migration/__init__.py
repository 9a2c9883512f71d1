"""Online shard migration: routing epochs, double-writes, WAL catch-up.

Two layers:

* :mod:`repro.migration.handle` — :class:`RouterHandle`, the shared
  routing-epoch indirection every store/daemon/query consumer holds
  instead of a bare :class:`~repro.sharding.ShardRouter`;
* :mod:`repro.migration.live` — :class:`LiveMigration`, the
  copy/double-write/catch-up/cutover/drop state machine, and
  :class:`MigrationReport`, its exact-metered accounting.

``live`` is imported lazily (PEP 562): it depends on the WAL record
formats in :mod:`repro.core`, which itself imports the handle — the
laziness is what keeps the layering acyclic.
"""

from repro.migration.handle import RouterHandle, Site, WritePlan, as_handle

_LIVE_EXPORTS = (
    "LiveMigration",
    "MigrationError",
    "MigrationReport",
    "PHASES",
    "parse_migration_spec",
)

__all__ = ["RouterHandle", "Site", "WritePlan", "as_handle", *_LIVE_EXPORTS]


def __getattr__(name):
    if name in _LIVE_EXPORTS:
        from repro.migration import live

        return getattr(live, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
