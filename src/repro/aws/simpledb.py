"""Simulated Amazon SimpleDB (January 2009 semantics).

Implements the indexing/query service of paper §2.2:

* data model of **domains → items → attribute-value pairs**, where an
  item may hold multiple values per attribute name;
* limits: 1 KB per attribute name and value, 256 attribute-value pairs
  per item, 100 attributes per ``PutAttributes`` call — the limits that
  force architecture A2 to spill large provenance values to S3 and to
  batch its writes;
* **automatic indexing** and the two bracket-language query primitives,
  ``Query`` and ``QueryWithAttributes``, with result pagination (see
  "Indexing" below);
* **idempotency**: re-running ``PutAttributes`` with the same attributes
  or ``DeleteAttributes`` on absent attributes is not an error (§2.2),
  which the A3 commit daemon's replay correctness rests on;
* **eventual consistency**: an item inserted may not appear in a query
  run immediately afterwards, because queries execute against a replica
  snapshot.

Machine time (the real SimpleDB billing unit) is estimated per request
and recorded on the meter; the paper normalises to operation counts, and
the meter records those too.

Indexing. §2.2 picks SimpleDB because it indexes every attribute with no
schema, and Table 1's "efficient query" column for A2/A3 rests on that.
The service keeps, per domain, ``attribute → value → names of the items
holding it`` (*postings*), folded in from each item's old→new diff on
every write path. A query whose predicate pins some attribute to an
equality value set (:func:`~repro.aws.sdb_query.equality_candidates` —
all-``=`` bracket groups, and intersections containing one) reads the
postings of the pinned attribute with the fewest and evaluates the full
predicate over those candidates only. An attribute
the predicate confines to a value range without pinning it
(:func:`~repro.aws.sdb_query.range_candidates` — Q4's version window)
offers the holders of its in-range values the same way, and the
smallest offer wins. Predicates that offer none (``not``, ``!=``, the
empty expression) scan.
The postings describe the *authoritative* state, so they are consulted
only when the replica the request drew provably equals it (no replica
install pending — always under the strong model, and after any
quiesce); inside an eventual-consistency window the drawn replica is
scanned, stale reads and all. Two planes, on purpose: the **metered**
box-usage stays the 2009 broad-scan model (``SCAN_HOURS_PER_ITEM`` ×
visible items, whichever path ran), because that is what the service
billed; only the **host** cost of simulating it is index-bound.

Paging. A query returns rows in item-name order, which is the order
the drawn replica's keys are kept in
(:meth:`~repro.aws.consistency.ReplicaSet.ordered_snapshot`), so its
``next_token`` is a seek: a page walks the keys from the token and
stops one match past its size. A query the postings narrow walks its
candidates' names instead: sorted once, kept for the domain's last
query until its next write, and bisected past each page's token.
Either way a page costs the rows it returns plus the non-matches it
crosses, and a full walk of a domain is linear in the domain, not
quadratic.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Collection, Iterator, Mapping, Sequence

from repro import errors, units
from repro.aws import billing
from repro.aws.consistency import DelayModel, OrderedSnapshot, ReplicaSet, STRONG
from repro.aws.faults import RequestFaults
from repro.aws.item import ABSENT, Attrs, ItemState, _attr_size, project, size_audit, sized
from repro.aws.sdb_query import CompiledQuery, matching, parse_query
from repro.clock import SimClock

#: Maximum items returned per Query/QueryWithAttributes page (2009 limit).
QUERY_MAX_PAGE = 250

#: Box-usage machine hours each query request charges per item scanned —
#: SimpleDB billed more machine time for broader queries. Named so the
#: query planner's cost model and the meter share one number.
SCAN_HOURS_PER_ITEM = 2.0e-8


@dataclass(frozen=True)
class Attribute:
    """One attribute in a PutAttributes/DeleteAttributes call."""

    name: str
    value: str
    replace: bool = False


@dataclass(frozen=True)
class QueryResult:
    """A page of item names (Query)."""

    item_names: tuple[str, ...]
    next_token: str | None


@dataclass(frozen=True)
class QueryWithAttributesResult:
    """A page of items with their attributes (QueryWithAttributes)."""

    items: tuple[tuple[str, ItemState], ...]
    next_token: str | None

    @property
    def item_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.items)


def _attr_count(state: Attrs) -> int:
    return sum(len(values) for values in state.values())


def _holders(posting: str | set[str]) -> Collection[str]:
    """The item names behind one posting. A lone holder is stored
    unboxed — most provenance values (a name:version reference, a hash)
    belong to one item, and a set apiece would outweigh the domain
    itself — and the second holder promotes it to a set."""
    return posting if isinstance(posting, set) else (posting,)


def _past(
    names: Sequence[str], last: str | None, values: Mapping[str, ItemState]
) -> Iterator[tuple[str, ItemState]]:
    """The rows of the sorted ``names`` after the token's name ``last``
    (``None`` = from the start). Bisecting to the start makes a page
    cost the rows it reads, not the ones before."""
    for i in range(0 if last is None else bisect_right(names, last), len(names)):
        name = names[i]
        yield name, values[name]


class SimpleDBService:
    """The simulated SimpleDB endpoint for one AWS account."""

    def __init__(
        self,
        clock: SimClock,
        rng: random.Random,
        meter: billing.Meter,
        faults: RequestFaults | None = None,
        delays: DelayModel = STRONG,
        n_replicas: int = 3,
    ):
        self._clock = clock
        self._rng = rng
        self._meter = meter
        self._faults = faults or RequestFaults()
        self._delays = delays
        self._n_replicas = n_replicas
        # Per domain, its items; read-modify-write reads the replica
        # set's authoritative view (immutable states, sized at commit).
        self._domains: dict[str, ReplicaSet[ItemState]] = {}
        # Per domain: total attribute bytes, and the attribute index —
        # attribute name → value → the items holding it (see _holders).
        # Every write funnels through _commit_item, which folds the
        # item's old/new diff in, so both are exact without ever
        # scanning. Queries read the postings; DomainMetadata (and
        # through it the query planner's cost model) derives its
        # per-attribute counts from them.
        self._stat_bytes: dict[str, int] = {}
        self._postings: dict[str, dict[str, dict[str, str | set[str]]]] = {}
        # Per domain: the last query's sorted candidate names (see
        # _ordered), until the domain's next commit — a page of the same
        # query bisects them instead of building them again.
        self._orderings: dict[str, tuple[CompiledQuery, Sequence[str]]] = {}

    # -- domain management --------------------------------------------------

    def create_domain(self, name: str) -> None:
        """Create a domain. Idempotent, as in real SimpleDB."""
        self._request("CreateDomain")
        if name not in self._domains:
            self._domains[name] = ReplicaSet(
                f"sdb/{name}", self._clock, self._rng, self._n_replicas, self._delays
            )
            self._stat_bytes[name] = 0
            self._postings[name] = {}

    def delete_domain(self, name: str) -> None:
        self._request("DeleteDomain")
        store = self._domains.pop(name, None)
        self._postings.pop(name, None)
        self._orderings.pop(name, None)
        if store is not None and len(store):
            self._meter.adjust_stored(billing.SDB, -self._stat_bytes[name])
        self._stat_bytes.pop(name, None)

    def _domain(self, name: str) -> ReplicaSet[ItemState]:
        domain = self._domains.get(name)
        if domain is None:
            raise errors.NoSuchDomain(name)
        return domain

    def domain_metadata(self, name: str) -> dict:
        """Domain statistics — the DomainMetadata call real SimpleDB
        offered, and what the query planner's cost model consumes.

        Reports the authoritative item count, total attribute bytes,
        and per attribute name how many distinct values exist and how
        many (item, value) pairs hold it — all maintained incrementally
        by the write paths (never scanned), so the call is a cheap
        metered metadata read (``DomainMetadata`` box-usage tier, no
        per-item machine time).
        """
        self._domain(name)
        self._request("DomainMetadata")
        return {
            "item_count": len(self._domains[name]),
            "item_bytes": self._stat_bytes[name],
            "attributes": {
                attr: {
                    "distinct_values": len(by_value),
                    "value_count": sum(len(_holders(p)) for p in by_value.values()),
                }
                for attr, by_value in self._postings[name].items()
            },
        }

    def _commit_item(self, domain: str, item_name: str, new_state: ItemState) -> None:
        """Make ``new_state`` the item's authoritative state (empty =
        the item is gone): bill the stored-byte delta, fold the old→new
        diff into the domain's statistics and postings, drop the
        domain's kept candidate names, and replicate. The one place an
        item changes; called from every write path."""
        store = self._domains[domain]
        old_state = store.authority.get(item_name, ABSENT)
        delta = new_state.nbytes - old_state.nbytes
        self._meter.adjust_stored(billing.SDB, delta)
        self._stat_bytes[domain] += delta
        self._orderings.pop(domain, None)
        postings = self._postings[domain]
        for attr in old_state.keys() | new_state.keys():
            old_values = old_state.get(attr, ())
            new_values = new_state.get(attr, ())
            if old_values == new_values:
                continue
            by_value = postings.setdefault(attr, {})
            for value in set(new_values).difference(old_values):
                holders = by_value.get(value)
                if holders is None:
                    by_value[value] = item_name
                elif isinstance(holders, set):
                    holders.add(item_name)
                else:
                    by_value[value] = {holders, item_name}
            for value in set(old_values).difference(new_values):
                holders = by_value[value]
                if isinstance(holders, set) and len(holders) > 1:
                    holders.discard(item_name)
                else:
                    del by_value[value]
            if not by_value:
                del postings[attr]
        if new_state:
            store.write(item_name, new_state)
        else:
            store.delete(item_name)

    # -- writes ---------------------------------------------------------------

    def put_attributes(
        self,
        domain: str,
        item_name: str,
        attributes: list[Attribute | tuple[str, str]],
    ) -> None:
        """Insert or modify an item's attributes (≤100 per call).

        Values accumulate as a set unless ``replace`` is set for a name,
        so repeating a call cannot create duplicates — the idempotency
        §2.2 documents and §4.3 exploits.
        """
        self._request("PutAttributes")
        attrs, transfer = self._validated_attrs("PutAttributes", attributes)
        old_state = self._domain(domain).authority.get(item_name, ABSENT)
        state = self._merged_state(old_state, attrs, item_name)
        self._meter.record_transfer_in(billing.SDB, transfer)
        self._commit_item(domain, item_name, state)

    def batch_put_attributes(
        self,
        domain: str,
        items: list[tuple[str, list[Attribute | tuple[str, str]]]],
    ) -> None:
        """Insert or modify up to 25 items in one round trip.

        Per-item semantics match :meth:`put_attributes` exactly — the
        same set-merge accumulation, size caps, and idempotent replays —
        but the whole batch costs one metered request (and roughly one
        request's machine time; see ``billing.SDB_BOX_USAGE_HOURS``).
        Every entry is validated against its post-merge state before
        anything commits, so the call is all-or-nothing: replaying a
        failed batch cannot half-apply. Entries repeating an item name
        merge sequentially in call order.
        """
        self._request("BatchPutAttributes")
        if not items:
            raise errors.EmptyBatchRequest("BatchPutAttributes requires items")
        if len(items) > units.SDB_MAX_BATCH_PUT_ITEMS:
            raise errors.NumberSubmittedItemsExceeded(
                f"{len(items)} items in one call (limit "
                f"{units.SDB_MAX_BATCH_PUT_ITEMS})"
            )
        authority = self._domain(domain).authority
        staged: dict[str, ItemState] = {}
        transfer = 0
        for item_name, attributes in items:
            attrs, sent = self._validated_attrs("BatchPutAttributes", attributes)
            base = staged.get(item_name) or authority.get(item_name, ABSENT)
            staged[item_name] = self._merged_state(base, attrs, item_name)
            transfer += sent
        self._meter.record_transfer_in(billing.SDB, transfer)
        for item_name, state in staged.items():
            self._commit_item(domain, item_name, state)

    @staticmethod
    def _validated_attrs(
        op: str, attributes: list[Attribute | tuple[str, str]]
    ) -> tuple[list[Attribute], int]:
        """Normalise one item's attribute list, enforcing the per-call
        caps: the attributes and their transfer-in bytes."""
        attrs = [a if isinstance(a, Attribute) else Attribute(*a) for a in attributes]
        if not attrs:
            raise errors.AttributeValueTooLong(f"{op} requires attributes")
        if len(attrs) > units.SDB_MAX_ATTRS_PER_CALL:
            raise errors.NumberSubmittedAttributesExceeded(
                f"{len(attrs)} attributes in one call (limit "
                f"{units.SDB_MAX_ATTRS_PER_CALL})"
            )
        transfer = 0
        for attr in attrs:
            name_size, value_size = len(attr.name.encode()), len(attr.value.encode())
            if name_size > units.SDB_MAX_NAME_SIZE:
                raise errors.AttributeValueTooLong(f"attribute name {attr.name[:40]!r}")
            if value_size > units.SDB_MAX_VALUE_SIZE:
                raise errors.AttributeValueTooLong(
                    f"value for {attr.name!r} is {value_size} bytes "
                    f"(limit {units.SDB_MAX_VALUE_SIZE})"
                )
            transfer += name_size + value_size
        return attrs, transfer

    @staticmethod
    def _merged_state(
        state: ItemState, attrs: list[Attribute], item_name: str
    ) -> ItemState:
        """Apply a put's set-merge semantics to a copy of ``state``,
        enforcing the per-item cap. The new state's size is the old one
        plus each value actually added, less what a ``replace`` drops."""
        merged: Attrs = dict(state)
        nbytes = state.nbytes
        replaced: set[str] = set()
        for attr in attrs:
            existing = merged.get(attr.name, ())
            if attr.replace and attr.name not in replaced:
                replaced.add(attr.name)
                nbytes -= _attr_size({attr.name: existing})
                existing = ()
            if attr.value not in existing:
                existing = tuple(sorted((*existing, attr.value)))
                nbytes += len(attr.name.encode()) + len(attr.value.encode())
            merged[attr.name] = existing
        if _attr_count(merged) > units.SDB_MAX_ATTRS_PER_ITEM:
            raise errors.NumberItemAttributesExceeded(
                f"item {item_name!r} would hold {_attr_count(merged)} attributes "
                f"(limit {units.SDB_MAX_ATTRS_PER_ITEM})"
            )
        return sized(merged, nbytes)

    def delete_attributes(
        self,
        domain: str,
        item_name: str,
        attributes: list[Attribute | tuple[str, str] | str] | None = None,
    ) -> None:
        """Delete attributes, or the whole item when ``attributes`` is None.

        Idempotent: deleting absent attributes or items succeeds silently.
        """
        self._request("DeleteAttributes")
        state = self._domain(domain).authority.get(item_name)
        if state is None:
            return
        if attributes is None:
            self._commit_item(domain, item_name, ABSENT)
            return
        new_state: Attrs = dict(state)
        for attr in attributes:
            if isinstance(attr, str):
                new_state.pop(attr, None)
                continue
            if isinstance(attr, tuple):
                attr = Attribute(*attr)
            values = new_state.get(attr.name)
            if values is None:
                continue
            remaining = tuple(v for v in values if v != attr.value)
            if remaining:
                new_state[attr.name] = remaining
            else:
                new_state.pop(attr.name, None)
        self._commit_item(domain, item_name, sized(new_state, _attr_size(new_state)))

    # -- reads -----------------------------------------------------------------

    def get_attributes(
        self,
        domain: str,
        item_name: str,
        attribute_names: list[str] | None = None,
    ) -> ItemState:
        """Fetch an item's attributes from a replica (may be stale/empty)."""
        self._request("GetAttributes")
        state = self._domain(domain).read(item_name) or ABSENT
        if attribute_names is not None:
            state = project(state, set(attribute_names))
        self._meter.record_transfer_out(billing.SDB, state.nbytes)
        return state

    def query(
        self,
        domain: str,
        expression: str | None = None,
        max_items: int = QUERY_MAX_PAGE,
        next_token: str | None = None,
    ) -> QueryResult:
        """Return names of items matching a bracket-language expression."""
        page, token = self._query_page("Query", domain, expression, max_items, next_token)
        names = tuple(name for name, _ in page)
        self._meter.record_transfer_out(
            billing.SDB, sum(len(n.encode()) for n in names)
        )
        return QueryResult(item_names=names, next_token=token)

    def query_with_attributes(
        self,
        domain: str,
        expression: str | None = None,
        attribute_names: list[str] | None = None,
        max_items: int = QUERY_MAX_PAGE,
        next_token: str | None = None,
    ) -> QueryWithAttributesResult:
        """Return matching items together with (a subset of) attributes:
        each stored state itself, or its projection onto
        ``attribute_names``, billing transfer-out for each row's name and
        the attributes it carries (the ``nbytes`` of either)."""
        page, token = self._query_page(
            "QueryWithAttributes", domain, expression, max_items, next_token
        )
        if attribute_names is not None:
            wanted = set(attribute_names)
            page = [(name, project(state, wanted)) for name, state in page]
        self._meter.record_transfer_out(
            billing.SDB, sum(len(name.encode()) + state.nbytes for name, state in page)
        )
        return QueryWithAttributesResult(tuple(page), token)

    def _query_page(
        self, op: str, domain: str, expression: str | None, max_items: int,
        next_token: str | None,
    ) -> tuple[list[tuple[str, ItemState]], str | None]:
        """One Query / QueryWithAttributes page of rows and its next
        token. The page size is checked before the request is billed."""
        if max_items < 1:
            raise ValueError(f"max_items must be >= 1, got {max_items}")
        self._request(op)
        compiled = parse_query(expression)
        matched = self._execute(domain, compiled, next_token)
        return self._paginate(matched, min(max_items, QUERY_MAX_PAGE))

    # -- oracle helpers (tests/recovery scans) ----------------------------------

    def authoritative_item(self, domain: str, item_name: str) -> ItemState | None:
        store = self._domains.get(domain)
        return store.authority.get(item_name) if store is not None else None

    def authoritative_item_names(self, domain: str) -> list[str]:
        store = self._domains.get(domain)
        return store.authoritative_keys() if store is not None else []

    def item_count(self, domain: str) -> int:
        """Authoritative number of items (used by the analysis module)."""
        return len(self._domains.get(domain, ()))

    def size_audit(self) -> list[str]:
        """Stored item sizes, domain byte statistics and the meter's
        stored level, each against a from-scratch measurement
        (:func:`repro.aws.item.size_audit`); ``[]`` when all agree."""
        spaces = [
            (f"sdb/{name}", billing.SDB, store, self._stat_bytes[name], lambda key: 0)
            for name, store in self._domains.items()
        ]
        return size_audit(self._meter, (billing.SDB,), spaces)

    # -- internals ----------------------------------------------------------------

    def _execute(
        self,
        domain: str,
        query: CompiledQuery,
        next_token: str | None,
    ) -> Iterator[tuple[str, ItemState]]:
        """The rows the query matches from ``next_token`` on, in name
        order, produced lazily: the predicate runs on an item only when
        the consumer pulls that far.

        Each request draws one replica (its ordered snapshot) and bills
        box usage on the number of items visible there — SimpleDB
        charged more machine time for broader queries, and that 2009
        model holds whichever path then finds the rows. When the drawn
        replica equals the authoritative state (nothing pending), the
        rows come from the query's sorted candidates (:meth:`_ordered`),
        built once between two writes and bisected past the token. A
        query that nothing narrows, and every query inside an
        eventual-consistency window (where the drawn replica may lag
        the postings), seeks the snapshot's keys instead.
        """
        store = self._domain(domain)
        view = store.ordered_snapshot()
        self._meter.record_box_usage(len(view.keys) * SCAN_HOURS_PER_ITEM)
        last = None if next_token is None else self._token_name(next_token)
        names = view.keys if store.pending_installs else self._ordered(domain, query, view)
        return matching(_past(names, last, view.values), query)

    def _ordered(
        self, domain: str, query: CompiledQuery, view: OrderedSnapshot
    ) -> Sequence[str]:
        """The names of the query's candidates, sorted; when nothing
        narrows the query, the snapshot's keys, already sorted. Kept
        for one query per domain until the domain's next commit drops
        it, so a walk sorts its candidates once, not once per page; a
        query's pages are told by the parsed query's identity (the parse
        cache hands out one instance per wire string)."""
        kept = self._orderings.get(domain)
        if kept is not None and kept[0] is query:
            return kept[1]
        names = self._candidates(domain, query)
        if names is None:
            return view.keys
        ordered = sorted(names)
        self._orderings[domain] = (query, ordered)
        return ordered

    def _candidates(self, domain: str, query: CompiledQuery) -> Collection[str] | None:
        """Names of every item that can match, unordered: the holders
        of the narrowest option the postings offer, or ``None`` when
        the predicate offers none (only a scan will do). Each attribute
        the predicate pins contributes the holders of its pinned
        values; each it bounds to a range without pinning it (a
        version window) the holders of its in-range values."""
        postings = self._postings[domain]
        pinned = query.pinned
        options: list[list[Collection[str]]] = []
        for attr, values in pinned.items():
            by_value = postings.get(attr, {})
            options.append([_holders(by_value[v]) for v in values if v in by_value])
        for attr, (lo, hi) in query.ranges.items():
            if attr not in pinned:
                options.append([
                    _holders(holders)
                    for value, holders in postings.get(attr, {}).items()
                    if (lo is None or lo <= value) and (hi is None or value <= hi)
                ])
        if not options:
            return None
        return set().union(*min(options, key=lambda found: sum(map(len, found))))

    # A next_token names the last row served: ``after:<name>`` (rows
    # are in name order).

    @staticmethod
    def _token_name(next_token: str) -> str:
        """The item name a token resumes after."""
        if not next_token.startswith("after:"):
            raise errors.InvalidNextToken(next_token)
        return next_token[len("after:"):]

    @staticmethod
    def _paginate(
        matched: Iterator[tuple[str, ItemState]], max_items: int
    ) -> tuple[list[tuple[str, ItemState]], str | None]:
        """The first ``max_items`` rows and the token that resumes past
        them, or ``None`` when no row follows: one row beyond the page
        is pulled to tell which, and no more."""
        page = list(islice(matched, max_items + 1))
        if len(page) <= max_items:
            return page, None
        del page[max_items:]
        return page, f"after:{page[-1][0]}"

    def _request(self, op: str) -> None:
        self._faults.before_request(billing.SDB, op)
        self._meter.record_request(billing.SDB, op)
