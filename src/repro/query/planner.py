"""Cost-based access-path planning for the scatter query phases.

Until now every Q2/Q3 phase paid whatever access path its backend
happened to pick: SimpleDB always answers with its server-side
Query/Select (there is nothing else), and the DynamoDB-style adapter
chooses GSI-vs-Scan by *first fit* over the declared indexes
(:meth:`~repro.aws.backend.DynamoBackend.plan_first_fit`) — nobody consults
the price book, even though every operation is already metered to the
cent. This module closes that loop: it enumerates the candidate access
paths a phase could run (DDB Scan, GSI equality Query, composite GSI
hash+range Query, SimpleDB Select), prices each one from
:class:`~repro.aws.billing.PriceBook` rates plus cheap incrementally
maintained table statistics (DescribeTable / DomainMetadata — item
counts, mean item sizes, exact per-index key histograms; never
sampled), and picks the cheapest.

Three modes, selected per engine (``planner=``):

* ``"off"`` (default) — no planner object exists; every request
  sequence is byte-identical to the historical engine (the baselines
  gate pins this).
* ``"first-fit"`` — the baseline: executes exactly the path ``off``
  would, but *predicts* its cost first, so ``predicted_cost`` lands on
  the measurement and the honesty property has a baseline to compare
  against.
* ``"cost"`` — picks the cheapest estimated path, with hysteresis:
  it deviates from the first-fit choice only when a candidate's
  estimate undercuts it by at least :data:`HYSTERESIS` — estimates are
  sharp (key histograms are exact) but page boundaries are not, and the
  differential property promises cost mode is *never more expensive*
  than first-fit, so near-ties keep the baseline path.

Statistics are fetched lazily (one metered DescribeTable /
DomainMetadata per store) and cached for the planner's lifetime — one
engine's worth of queries. The consult itself is added to the
prediction the first time, so the honesty gate charges the planner for
its own curiosity. Caveat: cached statistics age; after a migration
cutover the engine's next planner starts fresh, but a long-lived engine
plans against the stats it first saw (an index path chosen from stale
stats is still *correct* — execution re-checks index freshness and
falls back to Scan — it may just be priced off).

Determinism: the planner uses no wall clock and no randomness (provlint
PL003); plans depend only on the compiled predicate, the declared
indexes, and the statistics snapshot.
"""

from __future__ import annotations

import math

from repro.aws.backend import SCAN_PATH, AccessPath
from repro.aws.billing import GB, SDB_BOX_USAGE_HOURS, PriceBook
from repro.aws.dynamo import SCAN_MAX_PAGE
from repro.aws.sdb_query import CompiledQuery
from repro.aws.simpledb import QUERY_MAX_PAGE, SCAN_HOURS_PER_ITEM
from repro.units import DDB_INDEX_ENTRY_OVERHEAD, DDB_PAGE_BYTES, DDB_RCU_BYTES

PLANNER_MODES = ("off", "first-fit", "cost")

#: Cost mode abandons the first-fit path only for a candidate whose
#: estimate is below ``HYSTERESIS × first-fit estimate`` — near-ties
#: keep the baseline path, which is what lets the differential suite
#: promise "cost mode never costs more than first-fit" on every cell.
HYSTERESIS = 0.9

#: Honesty gate: on every DynamoDB-placed matrix planner row,
#: ``|predicted − metered| / metered`` over the planned query phases
#: must stay inside this bound (pinned by the planner property suite
#: and ``benchmarks/bench_planner.py``). The statistics are exact
#: histograms and the page math mirrors the serving loops, so the slack
#: mostly covers pagination boundaries and the per-value width guesses.
PREDICTION_ERROR_BOUND = 0.05

#: Transfer-size guess for one projected SimpleDB match (item name plus
#: the ``type`` attribute pair). Transfer is priced per GB, so at a few
#: dozen bytes per match this term is nano-dollars — it exists so the
#: estimate is not *structurally* blind to result width, not because it
#: moves the choice.
SDB_MATCH_BYTES = 48



def resolve_planner(mode: str | None = None) -> str:
    """Normalise a planner mode (``None``, ``""`` and ``"none"`` are
    ``"off"``)."""
    mode = (mode or "off").lower()
    if mode == "none":
        mode = "off"
    if mode not in PLANNER_MODES:
        raise ValueError(
            f"unknown planner mode {mode!r} (expected one of {PLANNER_MODES})"
        )
    return mode


def _paged_read_units(entries: int, nbytes: int) -> tuple[int, float]:
    """(requests, eventual read units) for paging ``entries`` totalling
    ``nbytes`` through the 250-item / byte-budget page loop.

    Mirrors the serving loops in :mod:`repro.aws.dynamo`: a page closes
    at :data:`~repro.aws.dynamo.SCAN_MAX_PAGE` items or once the byte
    budget (:data:`~repro.units.DDB_PAGE_BYTES`) is crossed, and each
    page charges ``ceil(page_bytes / 4096) / 2`` eventually consistent
    read units with a one-unit floor. An empty result still costs one
    request (the page that discovered it was empty).
    """
    if entries <= 0:
        return 1, 0.5
    mean = nbytes / entries if nbytes > 0 else 1.0
    per_page = max(1, min(SCAN_MAX_PAGE, math.ceil(DDB_PAGE_BYTES / mean)))
    full, rem = divmod(entries, per_page)
    requests = full + (1 if rem else 0)
    units = full * (max(1, math.ceil(per_page * mean / DDB_RCU_BYTES)) / 2.0)
    if rem:
        units += max(1, math.ceil(rem * mean / DDB_RCU_BYTES)) / 2.0
    return requests, units


def _range_slice(
    index: dict, condition: tuple[str, ...]
) -> tuple[int, int, float]:
    """(entries, stored bytes, mean range-value width) of the slice
    whose range values satisfy ``condition``, summed from the
    per-range-value histograms (exact over all hash partitions)."""
    op = condition[0]
    range_bytes = index["range_bytes"]
    entries = nbytes = 0
    width = 0.0
    for value, count in index["range_counts"].items():
        if op == "between":
            ok = condition[1] <= value <= condition[2]
        elif op == ">=":
            ok = value >= condition[1]
        elif op == "<=":
            ok = value <= condition[1]
        elif op == ">":
            ok = value > condition[1]
        else:  # "<"
            ok = value < condition[1]
        if ok:
            entries += count
            nbytes += range_bytes.get(value, 0)
            width += len(value) * count
    return entries, nbytes, (width / entries if entries else 0.0)


class QueryPlanner:
    """Per-engine access-path chooser and cost predictor.

    Scatter phases call :meth:`choose` once per shard stream, inside
    that stream's meter scope, so the statistics consult is billed to
    the right shard.
    """

    def __init__(self, prices: PriceBook, mode: str = "cost"):
        self.prices = prices
        self.mode = resolve_planner(mode)
        if self.mode == "off":
            raise ValueError("QueryPlanner is never constructed in 'off' mode")
        self._stats: dict[tuple[str, str], dict] = {}

    # -- statistics -------------------------------------------------------

    def _site_stats(self, backend, store: str) -> tuple[dict, float]:
        """Cached statistics for one store, plus the predicted USD of
        the consult when this call actually issued one."""
        key = (backend.kind, store)
        cached = self._stats.get(key)
        if cached is not None:
            return cached, 0.0
        stats = self._stats[key] = backend.site_statistics(store)
        if backend.kind == "sdb":
            price = (
                SDB_BOX_USAGE_HOURS["DomainMetadata"]
                * self.prices.sdb_machine_hour
            )
        else:
            price = self.prices.ddb_per_10000_requests / 10000
        return stats, price

    # -- per-path estimates ----------------------------------------------

    def _estimate_sdb(self, stats: dict, compiled: CompiledQuery) -> float:
        """Predicted USD of one server-side Query/Select on a domain.

        Every request replays the whole domain snapshot
        (:data:`~repro.aws.simpledb.SCAN_HOURS_PER_ITEM` of machine time
        per item) on top of the operation's box-usage tier; the request
        count is the page count of the *matching* result set, estimated
        from the per-attribute value histograms (distinct values and
        total value references — mean selectivity, since SimpleDB's
        statistics keep no per-value histogram).
        """
        item_count = stats["item_count"]
        attributes = stats["attributes"]
        matches = item_count
        for attribute, values in compiled.pinned.items():
            info = attributes.get(attribute)
            if info is None or not info["distinct_values"]:
                matches = 0
                continue
            per_value = info["value_count"] / info["distinct_values"]
            matches = min(matches, len(values) * per_value)
        matches = max(0, min(matches, item_count))
        requests = max(1, math.ceil(matches / QUERY_MAX_PAGE))
        box_hours = requests * (
            SDB_BOX_USAGE_HOURS["Select"] + item_count * SCAN_HOURS_PER_ITEM
        )
        transfer = matches * SDB_MATCH_BYTES
        return (
            box_hours * self.prices.sdb_machine_hour
            + transfer / GB * self.prices.sdb_transfer_out_gb
        )

    def _estimate_ddb(self, stats: dict, path: AccessPath) -> float:
        """Predicted USD of one Scan / GSI Query / range Query."""
        if path.kind == "scan":
            entries = stats["item_count"]
            nbytes = stats["table_bytes"]
            # A Scan streams every stored page over the wire.
            wire_bytes = nbytes
        else:
            index = stats["indexes"][path.index.name]
            key_counts = index["key_counts"]
            key_bytes = index["key_bytes"]
            entries = sum(key_counts.get(value, 0) for value in path.values)
            nbytes = sum(key_bytes.get(value, 0) for value in path.values)
            # Weighted mean width of the key values inside the matched
            # entry keys — exact for the equality side, since we know
            # the values we are asking for.
            key_width = (
                sum(len(v) * key_counts.get(v, 0) for v in path.values) / entries
                if entries
                else 0.0
            ) + 1.0  # the key separator
            if path.kind == "gsi-range":
                slice_entries, slice_bytes, range_width = _range_slice(
                    index, path.range_condition
                )
                if slice_entries < entries:
                    entries, nbytes = slice_entries, slice_bytes
                key_width += range_width + 1.0
            # Read units and page budgets charge *stored* entry bytes;
            # the wire page is item name + projection only — stored
            # bytes minus the per-entry overhead and key-value prefix.
            wire_bytes = int(
                max(
                    entries * 8.0,
                    nbytes - entries * (DDB_INDEX_ENTRY_OVERHEAD + key_width),
                )
            )
        requests, read_units = _paged_read_units(entries, nbytes)
        # Scan pages bill per-request (``dynamodb.requests``); GSI Query
        # pages — equality or range — price their requests into read
        # units, so the request term applies to the Scan path only.
        request_usd = (
            requests * self.prices.ddb_per_10000_requests / 10000
            if path.kind == "scan"
            else 0.0
        )
        return (
            request_usd
            + read_units / 1_000_000 * self.prices.ddb_read_per_million_units
            + wire_bytes / GB * self.prices.ddb_transfer_out_gb
        )

    def _estimate(self, stats: dict, path: AccessPath, compiled) -> float:
        if path.kind == "sdb":
            return self._estimate_sdb(stats, compiled)
        return self._estimate_ddb(stats, path)

    # -- the planning entry point ----------------------------------------

    def choose(
        self,
        backend,
        store: str,
        compiled: CompiledQuery,
        wanted: set[str] | None,
    ) -> tuple[AccessPath, float]:
        """Pick the access path for one phase on one store.

        Returns ``(path, predicted_usd)`` where the prediction covers
        the chosen path *plus* the statistics consult when this call
        paid for one. The caller executes via
        ``query_pages(..., path=path)`` and accumulates the prediction
        onto the measurement.

        The backend enumerates its sound paths once per call, native
        default first (SimpleDB's only path; Scan on DynamoDB) with the
        first ``"gsi"`` entry being the first fit — baseline mode asks
        for that one path alone.
        """
        stats, consult = self._site_stats(backend, store)
        if self.mode == "first-fit":
            paths = [backend.plan_first_fit(store, compiled, wanted)]
        else:
            paths = backend.candidate_paths(store, compiled, wanted)
        first_fit = next((path for path in paths if path.kind == "gsi"), paths[0])
        first_fit_cost = self._estimate(stats, first_fit, compiled)
        best, best_cost = first_fit, first_fit_cost
        for path in paths:
            if path is first_fit:
                continue
            cost = self._estimate(stats, path, compiled)
            if cost < HYSTERESIS * first_fit_cost and cost < best_cost:
                best, best_cost = path, cost
        return best, best_cost + consult


__all__ = [
    "HYSTERESIS",
    "PLANNER_MODES",
    "PREDICTION_ERROR_BOUND",
    "QueryPlanner",
    "resolve_planner",
    "SCAN_PATH",
]
