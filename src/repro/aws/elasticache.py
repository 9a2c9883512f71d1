"""Simulated ElastiCache-style read-cache tier for provenance reads.

The Q2/Q3 ancestry BFS re-reads the same hot subgraph records on every
query, so at production traffic the read path must become sublinear for
hot objects. This module provides :class:`ReadCacheAuthority` — a single
**cache authority** service fronting both provenance backends, owning
*both* halves of the cache-coherence problem rather than leaving them to
ad-hoc per-consumer caches:

* **invalidation** — every provenance put/delete path (the
  :func:`repro.core.base.put_provenance_items` choke point, orphan
  recovery, the live-migration replay/repair/scrub writes) calls
  :meth:`invalidate` / :meth:`invalidate_many`, which drop the item's
  cached entry and advance the authority's **generation** — the version
  fence that implicitly invalidates every memoised ancestry closure;
* **validation** — fills are fenced: a reader captures the generation
  *before* its backend read and the authority refuses the fill if any
  write landed in between (:meth:`put_item` / :meth:`memo_put`), closing
  the classic fill-after-invalidate race; served entries are additionally
  age-checked against the staleness bound on every hit.

Staleness contract (documented, tested by the differential harness):
a cache hit reflects backend state observed **at most**
``staleness_bound`` seconds ago (entries older than the bound are
treated as misses and dropped); the observation itself was a normal
replica read, so under eventual consistency a served value can
additionally trail the authoritative state by the replica propagation
window — the same exposure an uncached replica read has. With strong
consistency and write-through invalidation the cache never serves a
value the backend did not hold when the entry was filled.

Billing: hits, misses, and fills are metered on the ``elasticache``
key (``Get``/``Put`` requests, transfer in/out, stored bytes as node
memory) with matching ``elasticache.*`` price lines. Invalidations
piggyback on the write path's existing round trips — the authority
observes the write stream in-process — so a disabled *or* enabled cache
leaves the write path's request meter untouched; the ``read_cache`` /
``--read-cache`` knob off (the default) constructs no authority at all
and is byte-identical on the whole meter.

Capacity is bounded: fills evict least-recently-used entries (memoised
closures and item entries share one LRU ring) until the new entry fits,
counting :attr:`evictions` and returning the node memory to the meter.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.aws.billing import ELASTICACHE, Meter
from repro.clock import SimClock

#: Default node capacity in bytes — small enough that capacity/eviction
#: behaviour is exercisable in tests, large enough to hold the working
#: set of the seed workloads' hot subgraphs.
DEFAULT_CAPACITY = 256 * 1024

#: Declared staleness bound in seconds — how old a served entry may be.
#: Mirrors the GSI staleness bound (repro.aws.backend): ≥ any replica
#: propagation window the suite uses, so a cache hit is never staler
#: than a lagging replica read plus this bound.
CACHE_STALENESS_BOUND = 5.0


def resolve_read_cache(read_cache=None) -> str:
    """Normalise the read-cache knob (``None`` is off).

    Returns the normalised spec text (``""`` = disabled).

    >>> resolve_read_cache("on")
    'on'
    >>> resolve_read_cache(False)
    ''
    >>> resolve_read_cache()
    ''
    """
    if read_cache is True:
        return "on"
    if read_cache is None or read_cache is False:
        return ""
    text = str(read_cache).strip().lower()
    if text in ("", "0", "off", "none", "false"):
        return ""
    return text


def parse_read_cache(spec) -> tuple[int, float] | None:
    """The (capacity, staleness bound) a spec names, or ``None`` when
    disabled; a malformed spec raises ``ValueError``.

    Spec grammar: ``"1"``/``"on"`` for the defaults, a plain byte count
    for a custom capacity (``"65536"``), or comma-separated options
    (``"capacity=65536,staleness=2.5"``).
    """
    text = resolve_read_cache(spec)
    if not text:
        return None
    capacity = DEFAULT_CAPACITY
    staleness = CACHE_STALENESS_BOUND
    if text not in ("1", "on", "true", "auto"):
        if text.isdigit():
            capacity = int(text)
        else:
            for part in text.split(","):
                key, sep, value = part.partition("=")
                key = key.strip()
                if not sep:
                    raise ValueError(
                        f"malformed read-cache option {part!r} "
                        "(expected key=value)"
                    )
                if key in ("capacity", "cap"):
                    capacity = int(value)
                elif key in ("staleness", "ttl"):
                    staleness = float(value)
                else:
                    raise ValueError(f"unknown read-cache option {key!r}")
    return capacity, staleness


def build_read_cache(spec, clock: SimClock, meter: Meter):
    """Construct the authority a spec names (:func:`parse_read_cache`),
    or ``None`` when disabled."""
    parsed = parse_read_cache(spec)
    return None if parsed is None else ReadCacheAuthority(clock, meter, *parsed)


def attrs_nbytes(attrs) -> int:
    """Node-memory estimate for one cached item's attribute map: each
    name once, however many values it holds — how a cache node lays an
    entry out, and on purpose not the backends' billed size
    (:func:`repro.aws.item._attr_size` counts the name per value)."""
    return sum(
        len(name.encode()) + sum(len(value.encode()) for value in values)
        for name, values in attrs.items()
    )


class ReadCacheAuthority:
    """The single cache-coherence authority fronting both backends.

    One instance per :class:`~repro.aws.account.AWSAccount` (constructed
    by ``build_read_cache`` when the knob is on). Holds item entries
    (point reads) and memoised ancestry-closure results (whole scatter
    phases) in one bounded LRU ring; every mutation and every coherence
    decision — drop, fence check, age check — happens here, so readers
    and writers always observe one total order of invalidations.
    """

    def __init__(
        self,
        clock: SimClock,
        meter: Meter,
        capacity: int = DEFAULT_CAPACITY,
        staleness_bound: float = CACHE_STALENESS_BOUND,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if staleness_bound < 0:
            raise ValueError(
                f"staleness bound must be >= 0, got {staleness_bound}"
            )
        self._clock = clock
        self._meter = meter
        self.capacity = capacity
        self.staleness_bound = staleness_bound
        #: key -> (value, nbytes, cached_at, generation-at-fill). Item
        #: keys are ("item", name); memo keys are ("memo",) + caller key.
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._stored = 0
        #: The version fence: advanced by every invalidation, captured
        #: by readers before their backend reads, checked on every fill
        #: and every memo hit.
        self._generation = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.refused_fills = 0
        #: Greatest entry age (seconds) ever served — the observable the
        #: staleness-bound property pins (never exceeds the bound).
        self.max_served_age = 0.0

    # -- fences ----------------------------------------------------------

    def fence(self) -> int:
        """The current invalidation generation. Capture *before* the
        backend read whose result a fill will carry; piggybacks on the
        consult round trip, so it is not metered separately."""
        return self._generation

    @property
    def generation(self) -> int:
        """Fence peek for observability (tests, benchmarks)."""
        return self._generation

    def entry_count(self) -> int:
        return len(self._entries)

    def stored_nbytes(self) -> int:
        return self._stored

    # -- item entries (point reads) --------------------------------------

    def get_item(self, item_name: str):
        """Consult the cache for one provenance item.

        Returns ``(True, attrs)`` on a valid hit, ``(False, None)``
        otherwise. Entries older than the staleness bound are dropped
        and counted as misses.
        """
        value = self._get(("item", item_name))
        return (True, value) if value is not None else (False, None)

    def put_item(self, item_name: str, attrs, fence: int) -> bool:
        """Fill one item entry, fenced against concurrent invalidation.

        ``fence`` must be the generation captured before the backend
        read that produced ``attrs``; if any write invalidated in
        between, the fill is refused (returns ``False``) — the entry
        could cache a value the backend no longer holds. Once admitted
        the entry stays valid until *its own* write-through invalidation
        or age-out (writes to other items do not disturb it). ``attrs``
        is what the read handed out — an immutable stored state — and
        every hit hands that same object out.
        """
        return self._put(
            ("item", item_name),
            attrs,
            attrs_nbytes(attrs),
            fence,
            pin_generation=False,
        )

    def invalidate(self, item_name: str) -> None:
        """Write-through invalidation for one item (every put/delete
        path calls this). Drops the cached entry and advances the
        generation, implicitly invalidating every memoised closure."""
        self._drop(("item", item_name))
        self._generation += 1
        self.invalidations += 1

    def invalidate_many(self, item_names: Iterable[str]) -> None:
        """Batched write-through invalidation (the group-commit path)."""
        count = 0
        for item_name in item_names:
            self._drop(("item", item_name))
            count += 1
        if count:
            self._generation += 1
            self.invalidations += count

    # -- memoised ancestry closures --------------------------------------

    def memo_get(self, key: tuple):
        """Consult a memoised scatter-phase result.

        Returns ``(True, value, fence)`` on a valid hit or
        ``(False, None, fence)`` on a miss, where ``fence`` is the
        current generation — captured here, before the caller's backend
        reads, for the eventual :meth:`memo_put`. A stored result is
        valid only while no invalidation has advanced the generation
        past its fill fence and its age is within the staleness bound.
        """
        value = self._get(("memo",) + key)
        if value is not None:
            return True, value, self._generation
        return False, None, self._generation

    def memo_put(self, key: tuple, fence: int, value, nbytes: int) -> bool:
        """Store a scatter-phase result pinned to its version fence —
        the *next* invalidation anywhere supersedes it (a closure can
        depend on any item, so the authority assumes it depends on
        all of them)."""
        return self._put(("memo",) + key, value, nbytes, fence, pin_generation=True)

    # -- internals --------------------------------------------------------

    def _get(self, key: tuple):
        self._meter.record_request(ELASTICACHE, "Get")
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        value, nbytes, cached_at, generation = entry
        age = self._clock.now - cached_at
        stale = age > self.staleness_bound or (
            generation is not None and generation != self._generation
        )
        if stale:
            # Expired past the declared bound, or (memo entries, which
            # pin their fill fence) superseded by an invalidation:
            # authoritative state may have moved; serve nothing older
            # than the contract allows.
            self._evict(key)
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self.max_served_age = max(self.max_served_age, age)
        self._meter.record_transfer_out(ELASTICACHE, nbytes)
        return value

    def _put(
        self, key: tuple, value, nbytes: int, fence: int, pin_generation: bool
    ) -> bool:
        self._meter.record_request(ELASTICACHE, "Put")
        self._meter.record_transfer_in(ELASTICACHE, nbytes)
        if fence != self._generation:
            # A write invalidated between the reader's fence capture and
            # this fill: the value may predate that write. Refuse — the
            # authority validates, the reader just retries next time.
            self.refused_fills += 1
            return False
        if nbytes > self.capacity:
            self.refused_fills += 1
            return False
        self._drop(key)
        while self._stored + nbytes > self.capacity:
            oldest = next(iter(self._entries))
            self._evict(oldest)
            self.evictions += 1
        generation = self._generation if pin_generation else None
        self._entries[key] = (value, nbytes, self._clock.now, generation)
        self._stored += nbytes
        self._meter.adjust_stored(ELASTICACHE, nbytes)
        return True

    def _drop(self, key: tuple) -> None:
        if key in self._entries:
            self._evict(key)

    def _evict(self, key: tuple) -> None:
        _, nbytes, _, _ = self._entries.pop(key)
        self._stored -= nbytes
        self._meter.adjust_stored(ELASTICACHE, -nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReadCacheAuthority(entries={len(self._entries)}, "
            f"stored={self._stored}/{self.capacity}B, "
            f"hits={self.hits}, misses={self.misses}, "
            f"gen={self._generation})"
        )
