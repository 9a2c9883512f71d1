"""Sharded provenance domains: consistent-hash routing + rebalancing.

The paper's §6 discussion concedes that one SimpleDB domain bounds both
provenance capacity and query throughput. :class:`ShardRouter` lifts
that limit by partitioning the provenance store across **N SimpleDB
domains**, routed by a consistent hash of the object's *path* (its PASS
file name) so that:

* every version of one object lands on the same shard — Q1 lookups and
  ``version_history`` stay single-shard no matter how large N grows;
* growing N → N' (N ≥ 2) moves only the ``~(N'-N)/N'`` of the keyspace
  claimed by the new shards — never a key between two surviving shards
  (the consistent-hashing property :func:`rebalance` exploits). The one
  exception is leaving the N=1 layout, which uses the original
  single-domain name: every item migrates off ``pass-prov``;
* with ``shards=1`` the router degenerates to the single paper domain
  (:data:`DEFAULT_BASE_DOMAIN`) and every store/query code path is
  byte-identical to the unsharded reproduction.

Routing must be stable across processes and Python versions, so the hash
is MD5 of the UTF-8 path — never the interpreter's randomised ``hash()``.

Heterogeneous placement: each shard may live on a *named backend* — the
paper's SimpleDB (``"sdb"``) or the DynamoDB-style service (``"ddb"``,
:mod:`repro.aws.dynamo`) — via the router's ``placement`` map (see
:func:`parse_placement`; default all-SimpleDB, byte-identical to the
paper's deployment). The router stays pure routing: it answers *which
store and which backend kind*, while the actual service adapters come
from :meth:`repro.aws.account.AWSAccount.provenance_backends` (any
helper here accepts the account or a ready backend mapping).

Consistency caveats (documented here, tested in
``tests/properties/test_prop_sharding.py``):

* cross-shard queries (Q2/Q3 scatter-gather) offer no snapshot
  isolation: each shard is read at its own replica time, exactly like
  issuing the N queries by hand against N separate domains;
* :func:`rebalance` here is the **offline** path: it copies through the
  public read APIs (replica state) and moves items in place, so it is
  correct only in a write-quiet window — but in that window it is the
  cheapest possible migration (one write per moved item, no mirroring,
  no WAL). Under live traffic use the **online** protocol in
  :mod:`repro.migration` instead: every routing consumer goes through a
  shared :class:`~repro.migration.RouterHandle` (the routing-epoch
  indirection), and :class:`~repro.migration.LiveMigration` reshapes
  the layout in phases — bulk copy with WAL capture, a double-write
  window, WAL catch-up replay, per-shard cutover (one epoch bump each),
  and verified drop — at the metered cost of the double-writes, replays
  and verification reads its :class:`~repro.migration.MigrationReport`
  itemises. Rule of thumb: offline when you can quiesce, online when
  you cannot.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.passlib.records import ObjectRef

#: The paper's single provenance domain (§4.2) — what ``shards=1`` uses.
DEFAULT_BASE_DOMAIN = "pass-prov"

#: Backend kinds a placement may name (must match the adapter kinds in
#: ``repro.aws.backend``; kept literal here so routing stays AWS-free).
SDB_KIND = "sdb"
DDB_KIND = "ddb"
_KINDS = (SDB_KIND, DDB_KIND)


def parse_placement(
    spec: str | Mapping[int, str] | Sequence[str] | None, shards: int
) -> tuple[str, ...]:
    """Normalise a placement spec to one backend kind per shard index.

    Accepted specs:

    * ``None`` — all-SimpleDB (the paper's deployment);
    * ``"sdb"`` / ``"ddb"`` — every shard on that backend;
    * ``"mixed"`` — even shard indices on SimpleDB, odd on the DynamoDB
      style store (shard 0 — and thus ``shards=1`` — stays SimpleDB);
    * ``"0:sdb,3:ddb"`` — explicit index:kind pairs, unlisted indices
      defaulting to SimpleDB;
    * a mapping ``{index: kind}`` or a sequence of ``shards`` kinds.

    >>> parse_placement("mixed", 4)
    ('sdb', 'ddb', 'sdb', 'ddb')
    >>> parse_placement({1: "ddb"}, 3)
    ('sdb', 'ddb', 'sdb')
    """
    if spec is None:
        return (SDB_KIND,) * shards
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text in _KINDS:
            return (text,) * shards
        if text == "mixed":
            return tuple(_KINDS[index % 2] for index in range(shards))
        pairs: dict[int, str] = {}
        for part in text.split(","):
            index_text, _, kind = part.partition(":")
            try:
                index = int(index_text)
            except ValueError:
                raise ValueError(f"bad placement spec {spec!r}") from None
            pairs[index] = kind.strip()
        spec = pairs
    if isinstance(spec, Mapping):
        placement = [SDB_KIND] * shards
        for index, kind in spec.items():
            if not 0 <= int(index) < shards:
                raise ValueError(
                    f"placement names shard {index}, but shards={shards}"
                )
            placement[int(index)] = kind
    else:
        placement = list(spec)
        if len(placement) != shards:
            raise ValueError(
                f"placement lists {len(placement)} shards, expected {shards}"
            )
    for kind in placement:
        if kind not in _KINDS:
            raise ValueError(
                f"unknown backend kind {kind!r}; expected one of {_KINDS}"
            )
    return tuple(placement)


def _resolve_backends(cloud) -> Mapping[str, object]:
    """Coerce ``cloud`` into a kind → backend-adapter mapping.

    Accepts a ready mapping or an :class:`~repro.aws.account.AWSAccount`
    (every backend).
    """
    if isinstance(cloud, Mapping):
        return cloud
    if hasattr(cloud, "provenance_backends"):
        return cloud.provenance_backends()
    raise TypeError(
        f"expected an AWSAccount or a backend mapping; got {type(cloud).__name__}"
    )


def _backend_for(backends: Mapping[str, object], router: "ShardRouter", domain: str):
    kind = router.backend_for(domain)
    try:
        return backends[kind]
    except KeyError:
        raise KeyError(
            f"placement puts {domain!r} on backend {kind!r}, but only "
            f"{sorted(backends)} are available — pass the AWSAccount "
            f"(or its provenance_backends())"
        ) from None

#: Virtual nodes per shard on the hash ring. More vnodes → better
#: balance; 384 keeps per-shard item counts within 2x of the mean (both
#: directions) for the benchmark workloads at N=16, and a 16-shard ring
#: is still only ~6K points.
DEFAULT_VNODES = 384


def _hash_point(text: str) -> int:
    """Stable 64-bit ring position for ``text`` (MD5, not ``hash()``)."""
    return int.from_bytes(
        hashlib.md5(text.encode("utf-8")).digest()[:8], "big"
    )


class ShardRouter:
    """Routes object paths to one of N provenance domains.

    >>> router = ShardRouter(shards=1)
    >>> router.domains
    ('pass-prov',)
    >>> router.domain_for("any/path")
    'pass-prov'
    """

    def __init__(
        self,
        shards: int = 1,
        base_domain: str = DEFAULT_BASE_DOMAIN,
        vnodes: int = DEFAULT_VNODES,
        placement: str | Mapping[int, str] | Sequence[str] | None = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.shards = shards
        self.base_domain = base_domain
        self.vnodes = vnodes
        #: Backend kind per shard index ("sdb"/"ddb"); placement does
        #: not influence routing, only which service hosts each store.
        self.placement = parse_placement(placement, shards)
        if shards == 1:
            # The unsharded paper deployment: one domain, original name,
            # and no ring — domain_for short-circuits, so building one
            # would be pure waste on the common default path.
            self.domains: tuple[str, ...] = (base_domain,)
            self._ring_points: list[int] = []
            self._ring_domains: list[str] = []
            return
        self.domains = tuple(
            f"{base_domain}-{index:02d}" for index in range(shards)
        )
        ring: list[tuple[int, str]] = []
        for domain in self.domains:
            for vnode in range(vnodes):
                ring.append((_hash_point(f"{domain}#{vnode}"), domain))
        ring.sort()
        self._ring_points = [point for point, _ in ring]
        self._ring_domains = [domain for _, domain in ring]

    # -- routing ------------------------------------------------------------

    def domain_for(self, path: str) -> str:
        """The shard domain owning ``path`` (all versions of it)."""
        if self.shards == 1:
            return self.domains[0]
        index = bisect.bisect_right(self._ring_points, _hash_point(path))
        if index == len(self._ring_points):
            index = 0  # wrap around the ring
        return self._ring_domains[index]

    def domain_for_item(self, item_name: str) -> str:
        """Route a SimpleDB item name (``name_vNNNN``) to its shard."""
        return self.domain_for(ObjectRef.from_item_name(item_name).path)

    def shard_index(self, path: str) -> int:
        """Ordinal of the shard owning ``path`` (for skew statistics)."""
        return self.domains.index(self.domain_for(path))

    def resized(
        self,
        shards: int | None = None,
        placement: str | Mapping[int, str] | Sequence[str] | None = None,
    ) -> "ShardRouter":
        """A router for a changed layout, inheriting what isn't overridden.

        Base domain and vnodes always carry over. When ``placement`` is
        not given, the *current placement pattern is tiled* across the
        new shard count — a uniform layout stays uniform, an alternating
        one stays alternating — rather than falling back to the
        all-SimpleDB default, so a shards-only migration can never
        silently flip the deployment's backend choice.
        """
        shards = self.shards if shards is None else shards
        if placement is None:
            placement = tuple(
                self.placement[index % self.shards] for index in range(shards)
            )
        return ShardRouter(
            shards,
            base_domain=self.base_domain,
            vnodes=self.vnodes,
            placement=placement,
        )

    # -- placement ----------------------------------------------------------

    def backend_for(self, domain: str) -> str:
        """The backend kind ("sdb"/"ddb") hosting a shard's store."""
        try:
            return self.placement[self.domains.index(domain)]
        except ValueError:
            raise ValueError(f"{domain!r} is not one of this router's domains") from None

    def backend_for_path(self, path: str) -> str:
        return self.placement[self.shard_index(path)]

    def placement_by_domain(self) -> dict[str, str]:
        """Domain → backend kind (what operators read in reports)."""
        return dict(zip(self.domains, self.placement))

    def uses_backend(self, kind: str) -> bool:
        return kind in self.placement

    # -- provisioning / introspection --------------------------------------

    def provision(self, cloud) -> None:
        """Create every shard's store on its placed backend (idempotent).

        ``cloud`` may be the AWSAccount or a backend mapping.
        """
        backends = _resolve_backends(cloud)
        for domain in self.domains:
            _backend_for(backends, self, domain).provision(domain)

    def item_counts(self, cloud) -> dict[str, int]:
        """Authoritative items per shard (storage-skew reporting)."""
        backends = _resolve_backends(cloud)
        return {
            domain: _backend_for(backends, self, domain).item_count(domain)
            for domain in self.domains
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        placement = ""
        if any(kind != SDB_KIND for kind in self.placement):
            placement = f", placement={'/'.join(self.placement)}"
        return (
            f"ShardRouter(shards={self.shards}, "
            f"base_domain={self.base_domain!r}{placement})"
        )


def item_attribute_pairs(attrs: Mapping[str, Sequence[str]]) -> list[tuple[str, str]]:
    """Flatten an item's attribute map to sorted (name, value) pairs.

    The canonical serialisation order every migration write batches in —
    offline rebalance, the online bulk copy, and the drop-phase repair
    must all produce identical put sequences for the same item.
    """
    return [
        (attribute, value)
        for attribute in sorted(attrs)
        for value in attrs[attribute]
    ]


@dataclass
class RebalanceReport:
    """What a shard rebalance did (counters for tests and operators).

    ``domains_deleted`` lists source domains that no longer belong to
    the target layout and were emptied by the migration — a shrink
    N→N' leaves them behind otherwise, and ``list_domains``/skew
    reporting would keep counting the orphans.
    """

    items_scanned: int = 0
    items_moved: int = 0
    items_kept: int = 0
    #: Moves whose source and target shard live on *different* backend
    #: kinds (SimpleDB ↔ the DynamoDB-style store).
    cross_backend_moves: int = 0
    moves_by_domain: dict[str, int] = field(default_factory=dict)
    domains_deleted: list[str] = field(default_factory=list)
    #: Items the migration read off a covering (ALL-projection) GSI
    #: instead of scanning the base table — the index-aware migration
    #: read path, available only for DynamoDB-placed source shards that
    #: declare such an index (0 otherwise, including every historical
    #: layout).
    index_streamed_items: int = 0
    #: Write units spent creating/backfilling/maintaining global
    #: secondary indexes on DynamoDB-placed destination shards during
    #: the migration — the metered price of making the target layout
    #: index-queryable. 0.0 when no target shard declares indexes (or
    #: when ``cloud`` exposes no billing meter to measure against).
    index_write_units: float = 0.0


def rebalance(
    cloud,
    source: ShardRouter,
    target: ShardRouter,
) -> RebalanceReport:
    """Move every provenance item from ``source``'s layout to ``target``'s.

    Walks each source store through its backend's migration read stream
    (the full scan, or a covering ALL-projection GSI on DynamoDB-placed
    shards — see ``migration_pages`` and
    ``RebalanceReport.index_streamed_items``), re-puts items whose
    owning shard — or owning *backend* — changed, and deletes them from
    the old store. Values are copied verbatim (multi-valued attributes
    included), so the union of all bundles is preserved exactly — the
    round-trip invariant the property suite checks. Both backends merge
    writes as sets, so a re-run after a crash is idempotent.

    Heterogeneous layouts migrate *across backends*: an item whose shard
    keeps its domain name but moves from SimpleDB to the DynamoDB-style
    table (or back) is copied between services, counted on
    ``RebalanceReport.cross_backend_moves``. ``cloud`` is the
    AWSAccount (or a backend mapping).

    Shrinking (some source stores absent from the target layout, by
    name *or* by backend) additionally drops each orphaned source store
    once the migration has verifiably emptied it, so store listings and
    skew reporting see only the target layout; the deletions are listed
    on ``RebalanceReport.domains_deleted``. A store that still holds
    items (e.g. replica lag hid them from the migration scan) is left
    in place for a re-run rather than destroyed.

    Consistency caveat: reads go through replicas on either backend;
    rebalance during a write-quiet window (or quiesce the simulated
    cloud first). For migrations that must run under live writers, use
    :class:`repro.migration.LiveMigration` (``Simulation.migrate(...,
    online=True)``), which pays for a double-write window and WAL
    catch-up instead of requiring quiescence.
    """
    backends = _resolve_backends(cloud)
    report = RebalanceReport()
    # Index-backfill accounting: destination provisioning creates any
    # declared GSIs and every migrated put maintains them; the meter
    # delta over the whole migration is the index cost of the move.
    meter = getattr(cloud, "meter", None)
    if meter is not None:
        from repro.aws.billing import DDB_GSI

        index_units_before = meter.snapshot().write_units(DDB_GSI)
    target.provision(backends)
    target_sites = set(target.placement_by_domain().items())
    for source_domain in source.domains:
        source_kind = source.backend_for(source_domain)
        source_backend = _backend_for(backends, source, source_domain)
        via_index, pages = source_backend.migration_pages(source_domain)
        for item_name, attrs in pages:
            report.items_scanned += 1
            if via_index:
                report.index_streamed_items += 1
            target_domain = target.domain_for_item(item_name)
            target_kind = target.backend_for(target_domain)
            if target_domain == source_domain and target_kind == source_kind:
                report.items_kept += 1
                continue
            pairs = item_attribute_pairs(attrs)
            target_backend = _backend_for(backends, target, target_domain)
            target_backend.put_provenance_item(target_domain, item_name, pairs)
            source_backend.delete_item(source_domain, item_name)
            report.items_moved += 1
            if target_kind != source_kind:
                report.cross_backend_moves += 1
            report.moves_by_domain[target_domain] = (
                report.moves_by_domain.get(target_domain, 0) + 1
            )
    for source_domain in source.domains:
        source_kind = source.backend_for(source_domain)
        if (source_domain, source_kind) in target_sites:
            continue
        source_backend = _backend_for(backends, source, source_domain)
        if source_backend.item_count(source_domain) == 0:
            source_backend.drop(source_domain)
            report.domains_deleted.append(source_domain)
    if meter is not None:
        report.index_write_units = (
            meter.snapshot().write_units(DDB_GSI) - index_units_before
        )
    return report


def authoritative_snapshot(cloud, router: ShardRouter) -> dict[str, dict]:
    """Every item under ``router``'s layout, read from backend oracles.

    Item name → attribute map, across all shards and both backend
    kinds — the migration-verification view the property suite diffs
    before/after a rebalance.
    """
    backends = _resolve_backends(cloud)
    snapshot: dict[str, dict] = {}
    for domain in router.domains:
        backend = _backend_for(backends, router, domain)
        for item_name in backend.authoritative_item_names(domain):
            snapshot[item_name] = backend.authoritative_item(domain, item_name)
    return snapshot
