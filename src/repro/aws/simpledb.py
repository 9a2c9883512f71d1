"""Simulated Amazon SimpleDB (January 2009 semantics).

Implements the indexing/query service of paper §2.2:

* data model of **domains → items → attribute-value pairs**, where an
  item may hold multiple values per attribute name;
* limits: 1 KB per attribute name and value, 256 attribute-value pairs
  per item, 100 attributes per ``PutAttributes`` call — the limits that
  force architecture A2 to spill large provenance values to S3 and to
  batch its writes;
* **automatic indexing** and three query primitives — ``Query``,
  ``QueryWithAttributes`` and ``Select`` — with result pagination (see
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
``=``, ``in``, all-``=`` bracket groups, and intersections containing
one) reads the postings of the pinned attribute with the fewest and
evaluates the full predicate over those candidates only. Predicates
that pin nothing (``not``, ``!=``, ranges, the empty expression) scan.
The postings describe the *authoritative* state, so they are consulted
only when the replica the request drew provably equals it (no replica
install pending — always under the strong model, and after any
quiesce); inside an eventual-consistency window the drawn replica is
scanned, stale reads and all. Two planes, on purpose: the **metered**
box-usage stays the 2009 broad-scan model (``SCAN_HOURS_PER_ITEM`` ×
visible items, whichever path ran), because that is what the service
billed; only the **host** cost of simulating it is index-bound.

Paging. An unsorted query returns rows in item-name order, which is the
order the drawn replica's keys are kept in
(:meth:`~repro.aws.consistency.ReplicaSet.ordered_snapshot`), so its
``next_token`` is a seek: a page walks the keys (or the sorted
candidates) from the token and stops one match past its size. It costs
the rows it returns plus the non-matches it crosses, and a full walk of
a domain is linear in the domain, not quadratic. A query with a sort
clause is ordered by a value, not by name, so it still collects and
sorts its matches on every page.
"""

from __future__ import annotations

import json
import operator
import random
from dataclasses import dataclass
from itertools import islice
from typing import Collection, Iterator

from repro import errors, units
from repro.aws import billing
from repro.aws.consistency import DelayModel, ReplicaSet, STRONG
from repro.aws.faults import RequestFaults
from repro.aws.item import ABSENT, Attrs, ItemState, _attr_size, size_audit
from repro.aws.sdb_query import (
    CompiledQuery,
    SelectStatement,
    parse_query,
    parse_select,
)
from repro.clock import SimClock

#: Maximum items returned per Query/QueryWithAttributes page (2009 limit).
QUERY_MAX_PAGE = 250
#: Maximum items returned per Select page.
SELECT_MAX_PAGE = 250

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
    """A page of items with their attributes (QueryWithAttributes/Select)."""

    items: tuple[tuple[str, Attrs], ...]
    next_token: str | None

    @property
    def item_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.items)


@dataclass(frozen=True)
class SelectResult:
    """Result of a Select statement (items or a count)."""

    items: tuple[tuple[str, Attrs], ...]
    next_token: str | None
    count: int | None = None


def _served(state: ItemState, wanted: Collection[str] | None) -> tuple[Attrs, int]:
    """What a read hands out of one stored ``state`` and the bytes it
    bills — the one place that is decided: the whole value (``wanted``
    is None) is a copy at its stored size, a projection onto ``wanted``
    is a new value and is measured."""
    if wanted is None:
        return {**state}, state.nbytes
    attrs = {name: values for name, values in state.items() if name in wanted}
    return attrs, _attr_size(attrs)


def _attr_count(state: Attrs) -> int:
    return sum(len(values) for values in state.values())


def _holders(posting: str | set[str]) -> Collection[str]:
    """The item names behind one posting. A lone holder is stored
    unboxed — most provenance values (a name:version reference, a hash)
    belong to one item, and a set apiece would outweigh the domain
    itself — and the second holder promotes it to a set."""
    return posting if isinstance(posting, set) else (posting,)


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
        self._domains: dict[str, ReplicaSet[ItemState]] = {}
        # Authoritative attribute state used for read-modify-write; the
        # ReplicaSet holds the same (immutable, sized-at-commit) objects
        # for eventually consistent reads.
        self._authority: dict[str, dict[str, ItemState]] = {}
        # Per domain: total attribute bytes, and the attribute index —
        # attribute name → value → the items holding it (see _holders).
        # Every write funnels through _commit_item, which folds the
        # item's old/new diff in, so both are exact without ever
        # scanning. Queries read the postings; DomainMetadata (and
        # through it the query planner's cost model) derives its
        # per-attribute counts from them.
        self._stat_bytes: dict[str, int] = {}
        self._postings: dict[str, dict[str, dict[str, str | set[str]]]] = {}

    # -- domain management --------------------------------------------------

    def create_domain(self, name: str) -> None:
        """Create a domain. Idempotent, as in real SimpleDB."""
        self._request("CreateDomain")
        if name not in self._domains:
            self._domains[name] = ReplicaSet(
                f"sdb/{name}", self._clock, self._rng, self._n_replicas, self._delays
            )
            self._authority[name] = {}
            self._stat_bytes[name] = 0
            self._postings[name] = {}

    def delete_domain(self, name: str) -> None:
        self._request("DeleteDomain")
        self._domains.pop(name, None)
        self._postings.pop(name, None)
        if self._authority.pop(name, None):
            self._meter.adjust_stored(billing.SDB, -self._stat_bytes[name])
        self._stat_bytes.pop(name, None)

    def list_domains(self) -> list[str]:
        self._request("ListDomains")
        return sorted(self._domains)

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
            "item_count": len(self._authority[name]),
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
        diff into the domain's statistics and postings, and replicate.
        The one place an item changes; called from every write path."""
        authority = self._authority[domain]
        old_state = authority.get(item_name, ABSENT)
        delta = new_state.nbytes - old_state.nbytes
        self._meter.adjust_stored(billing.SDB, delta)
        self._stat_bytes[domain] += delta
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
        store = self._domains[domain]
        if new_state:
            authority[item_name] = new_state
            store.write(item_name, new_state)
        else:
            authority.pop(item_name, None)
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
        self._domain(domain)
        old_state = self._authority[domain].get(item_name, ABSENT)
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
        self._domain(domain)
        authority = self._authority[domain]
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
        return ItemState(merged, nbytes)

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
        self._domain(domain)
        state = self._authority[domain].get(item_name)
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
        self._commit_item(domain, item_name, ItemState(new_state, _attr_size(new_state)))

    # -- reads -----------------------------------------------------------------

    def get_attributes(
        self,
        domain: str,
        item_name: str,
        attribute_names: list[str] | None = None,
    ) -> Attrs:
        """Fetch an item's attributes from a replica (may be stale/empty)."""
        self._request("GetAttributes")
        state = self._domain(domain).read(item_name) or ABSENT
        wanted = None if attribute_names is None else set(attribute_names)
        attrs, nbytes = _served(state, wanted)
        self._meter.record_transfer_out(billing.SDB, nbytes)
        return attrs

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
        """Return matching items together with (a subset of) attributes."""
        page, token = self._query_page(
            "QueryWithAttributes", domain, expression, max_items, next_token
        )
        wanted = None if attribute_names is None else set(attribute_names)
        return QueryWithAttributesResult(self._serve_page(page, wanted), token)

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
        return self._paginate(matched, min(max_items, QUERY_MAX_PAGE), compiled)

    def select(
        self,
        statement: str | SelectStatement,
        next_token: str | None = None,
    ) -> SelectResult:
        """Run a SELECT statement (2009 subset; see sdb_query)."""
        self._request("Select")
        parsed = parse_select(statement) if isinstance(statement, str) else statement
        matched = self._execute(parsed.domain, parsed.query, next_token)
        if parsed.is_count:
            return SelectResult(items=(), next_token=None, count=sum(1 for _ in matched))
        # parse_select rejects LIMIT < 1, so a falsy limit is an absent one.
        limit = min(parsed.limit or SELECT_MAX_PAGE, SELECT_MAX_PAGE)
        page, token = self._paginate(matched, limit, parsed.query)
        wanted: Collection[str] | None = set(parsed.projection)
        if parsed.projection == ("*",):
            wanted = None
        elif parsed.projection == ("itemName()",):
            wanted = ()
        return SelectResult(self._serve_page(page, wanted), token)

    def _serve_page(
        self, page: list[tuple[str, ItemState]], wanted: Collection[str] | None
    ) -> tuple[tuple[str, Attrs], ...]:
        """Hand out one page of rows, billing transfer-out for each
        row's name and the attributes it carries."""
        items: list[tuple[str, Attrs]] = []
        out_bytes = 0
        for name, state in page:
            attrs, nbytes = _served(state, wanted)
            items.append((name, attrs))
            out_bytes += len(name.encode()) + nbytes
        self._meter.record_transfer_out(billing.SDB, out_bytes)
        return tuple(items)

    # -- oracle helpers (tests/recovery scans) ----------------------------------

    def authoritative_item(self, domain: str, item_name: str) -> Attrs | None:
        state = self._authority.get(domain, {}).get(item_name)
        return dict(state) if state is not None else None

    def authoritative_item_names(self, domain: str) -> list[str]:
        return sorted(self._authority.get(domain, {}))

    def item_count(self, domain: str) -> int:
        """Authoritative number of items (used by the analysis module)."""
        return len(self._authority.get(domain, {}))

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
        """The rows the query matches from ``next_token`` on, in the
        query's order, produced lazily: the predicate runs on an item
        only when the consumer pulls that far.

        Each request draws one replica (its ordered snapshot) and bills
        box usage on the number of items visible there — SimpleDB
        charged more machine time for broader queries, and that 2009
        model holds whichever path then finds the rows. When the drawn
        replica equals the authoritative state (nothing pending) and the
        predicate pins an attribute, the rows are that attribute's
        postings candidates, sorted by name; otherwise the snapshot's
        items in key order. An unsorted query's token names the last
        item served, so either source starts just past it. A sort
        clause orders rows by a value instead: its matches are sorted
        and then filtered past the token, since key order cannot seek
        them.
        """
        store = self._domain(domain)
        view = store.ordered_snapshot()
        self._meter.record_box_usage(len(view.keys) * SCAN_HOURS_PER_ITEM)
        last = None if next_token is None else self._token_key(query, next_token)
        seek = last[0] if last and query.sort_attribute is None else None
        names = None if store.pending_installs else self._candidates(domain, query, seek)
        rows = view.between(seek) if names is None else ((n, view.values[n]) for n in names)
        matches = query.matches
        matched = (row for row in rows if matches(row[1]))
        if query.sort_attribute is None:
            return matched
        key = query.sort_key
        ordered = sorted(matched, key=lambda row: key(*row), reverse=query.sort_descending)
        beyond = operator.lt if query.sort_descending else operator.gt
        return (row for row in ordered if last is None or beyond(key(*row), last))

    def _candidates(
        self, domain: str, query: CompiledQuery, after: str | None
    ) -> list[str] | None:
        """Names of every item past ``after`` that can match, in order,
        read off the postings of the pinned attribute with the fewest;
        ``None`` when the predicate pins no attribute (only a scan will
        do)."""
        pinned = query.pinned
        if not pinned:
            return None
        postings = self._postings[domain]

        def held(attr: str) -> list[Collection[str]]:
            by_value = postings.get(attr, {})
            return [_holders(by_value[v]) for v in pinned[attr] if v in by_value]

        fewest = min(map(held, pinned), key=lambda found: sum(map(len, found)))
        return sorted(n for n in set().union(*fewest) if after is None or n > after)

    # A next_token names the last row served by its key in the query's
    # own ordering: ``after:<name>`` for an unsorted query (rows are in
    # name order), ``after-key:[sort value, name]`` for a sorted one —
    # a bare name cannot place a row ordered by (sort value, name).

    @staticmethod
    def _token_key(query: CompiledQuery, next_token: str) -> tuple:
        if query.sort_attribute is None:
            if next_token.startswith("after:"):
                return (next_token[len("after:"):],)
        elif next_token.startswith("after-key:"):
            try:
                key = json.loads(next_token[len("after-key:"):])
            except ValueError:
                key = None
            if (
                isinstance(key, list)
                and len(key) == 2
                and all(isinstance(part, str) for part in key)
            ):
                return tuple(key)
        raise errors.InvalidNextToken(next_token)

    @staticmethod
    def _paginate(
        matched: Iterator[tuple[str, ItemState]], max_items: int, query: CompiledQuery
    ) -> tuple[list[tuple[str, ItemState]], str | None]:
        """The first ``max_items`` rows and the token that resumes past
        them, or ``None`` when no row follows: one row beyond the page
        is pulled to tell which, and no more."""
        page = list(islice(matched, max_items + 1))
        if len(page) <= max_items:
            return page, None
        del page[max_items:]
        if query.sort_attribute is None:
            return page, f"after:{page[-1][0]}"
        return page, "after-key:" + json.dumps(query.sort_key(*page[-1]))

    def _request(self, op: str) -> None:
        self._faults.before_request(billing.SDB, op)
        self._meter.record_request(billing.SDB, op)
