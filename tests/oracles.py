"""From-scratch references the optimised code paths are checked against.

Each reference is the straightforward version of a function the library
implements faster: it re-derives everything on every step, so it is
slow but obviously right. Tests compare the library's output with the
reference's: byte for byte, unless a reference names the weaker
contract it is checked on.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import math
import random

from repro import units
from repro.aws import billing
from repro.aws.account import ConsistencyConfig
from repro.aws.backend import _range_candidates, _referenced_attributes
from repro.aws.consistency import _TOMBSTONE
from repro.aws.dynamo import (
    INDEX_KEY_SEP,
    SCAN_MAX_PAGE,
    IndexQueryResult,
    ScanResult,
    _range_matches,
)
from repro.aws.item import _attr_size
from repro.aws.s3 import S3ListResult
from repro.aws.sdb_query import (
    BoolOp,
    BracketPredicate,
    Comparison,
    MatchAll,
    Not,
    Null,
    equality_candidates,
)
from repro.core.base import temp_key
from repro.core.wal import MESSAGE_BUDGET
from repro.passlib.capture import PassSystem
from repro.passlib.records import Attr, FlushEvent, ProvenanceRecord
from repro.passlib.serializer import (
    POINTER_PREFIX,
    SPILL_THRESHOLD,
    OverflowObject,
    S3MetadataPayload,
    overflow_key,
    to_simpledb_items,
)
from repro.sharding import authoritative_snapshot
from repro.sim import Simulation
from repro.units import S3_MAX_METADATA_SIZE
from repro.workloads import CombinedWorkload
from repro.workloads.base import _ENV_BASE


def reference_s3_metadata(
    event: FlushEvent,
    spill_threshold: int = SPILL_THRESHOLD,
    metadata_limit: int = S3_MAX_METADATA_SIZE,
) -> S3MetadataPayload:
    """``to_s3_metadata`` with its size pass spelled out: while the
    re-encoded total is over the limit, spill the largest value left
    (``max`` picks the first in key order on a tie). If nothing
    spillable is left and it is still over, start again from the
    metadata before the size pass and put all of it but the nonce, as
    canonical JSON, into one overflow object that a ``bundle`` key
    points at."""
    metadata: dict[str, str] = {}
    overflow: list[OverflowObject] = []
    spill_index = 0

    def emit(prefix: str, records: tuple[ProvenanceRecord, ...]) -> None:
        nonlocal spill_index
        counters: dict[str, int] = {}
        for record in records:
            occurrence = counters.get(record.attribute, 0)
            counters[record.attribute] = occurrence + 1
            key = f"{prefix}{record.attribute}"
            if occurrence:
                key = f"{key}.{occurrence}"
            value = record.encoded_value()
            if len(value.encode()) > spill_threshold:
                pointer_key = overflow_key(event.subject, spill_index)
                spill_index += 1
                overflow.append(OverflowObject(key=pointer_key, value=value))
                value = POINTER_PREFIX + pointer_key
            metadata[key] = value

    for j, ancestor in enumerate(event.ancestors):
        prefix = f"a{j}."
        metadata[f"{prefix}subject"] = ancestor.subject.encode()
        metadata[f"{prefix}kind"] = ancestor.kind
        emit(prefix, ancestor.records)
    emit("", event.bundle.records)
    metadata["nonce"] = event.nonce

    def total_size() -> int:
        return sum(len(k.encode()) + len(v.encode()) for k, v in metadata.items())

    before_size_pass = (dict(metadata), list(overflow))
    while total_size() > metadata_limit:
        key, value = max(
            (
                (k, v)
                for k, v in metadata.items()
                if not v.startswith(POINTER_PREFIX) and k != "nonce"
            ),
            key=lambda kv: len(kv[1].encode()),
            default=(None, None),
        )
        if key is None:
            metadata, overflow = before_size_pass
            body = {k: v for k, v in metadata.items() if k != "nonce"}
            pointer_key = overflow_key(event.subject, len(overflow))
            overflow.append(OverflowObject(key=pointer_key, value=reference_dumps(body)))
            metadata = {"bundle": POINTER_PREFIX + pointer_key, "nonce": event.nonce}
            break
        pointer_key = overflow_key(event.subject, spill_index)
        spill_index += 1
        overflow.append(OverflowObject(key=pointer_key, value=value))
        metadata[key] = POINTER_PREFIX + pointer_key

    return S3MetadataPayload(metadata=metadata, overflow=tuple(overflow))


def reference_synth_env(rng: random.Random, target_bytes: int) -> str:
    """``synth_env`` drawing each character with ``rng.choices`` (one
    ``random()``, two Mersenne-Twister words, per character). The library
    draws the same words in one call, so it is checked against this on
    the RNG state it leaves and the entries' names and value lengths,
    not on the characters."""
    parts = list(_ENV_BASE)
    size = sum(len(p) + 1 for p in parts)
    counter = 0
    while size < target_bytes:
        name = f"LD_PRELOAD_{counter}" if counter % 7 == 0 else f"APP_VAR_{counter}"
        value = "".join(rng.choices("abcdefghijklmnop/:._-", k=rng.randint(24, 96)))
        entry = f"{name}={value}"
        parts.append(entry)
        size += len(entry) + 1
        counter += 1
    return "\n".join(parts)


# -- WAL records: the greedy splitter build_wal_bundle replaced ----------------


def reference_dumps(payload) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def reference_prov_chunks(txn_id, payload) -> list[dict]:
    """Greedy split: measure every attribute, cut before the one that
    would push the record past the budget."""
    def record(attrs):
        return {"t": "prov", "txn": txn_id, "item": payload.item_name, "attrs": attrs}

    chunks, current, current_size = [], [], 0
    base_overhead = len(reference_dumps(record([])).encode())
    for name, value in payload.attributes:
        entry_size = len(reference_dumps([name, value]).encode()) + 1
        if current and base_overhead + current_size + entry_size > MESSAGE_BUDGET:
            chunks.append(record(current))
            current, current_size = [], 0
        current.append([name, value])
        current_size += entry_size
    if current:
        chunks.append(record(current))
    return chunks


def reference_wal_bundle(event, txn_id) -> tuple[list[str], list[str]]:
    """(message bodies, temp-put keys) as every record dict was built
    first and dumped at the end."""
    temp_data_key = temp_key(txn_id, event.subject.name)
    temp_keys = [temp_data_key]
    records = [
        {
            "t": "data",
            "txn": txn_id,
            "subject": event.subject.encode(),
            "temp": temp_data_key,
            "nonce": event.nonce,
            "md5": event.data.md5(),
            "size": event.data.size,
        }
    ]
    for payload in to_simpledb_items(event):
        for overflow in payload.overflow:
            body = {"t": "ovfl", "txn": txn_id, "key": overflow.key, "value": overflow.value}
            if len(reference_dumps(body).encode()) > MESSAGE_BUDGET:
                staged = temp_key(txn_id, overflow.key)
                temp_keys.append(staged)
                body = {"t": "ovfl_ptr", "txn": txn_id, "key": overflow.key, "temp": staged}
            records.append(body)
        records.extend(reference_prov_chunks(txn_id, payload))
    records.append({"t": "commit", "txn": txn_id})
    begin = {"t": "begin", "txn": txn_id, "n": len(records)}
    return [reference_dumps(r) for r in [begin, *records]], temp_keys


# -- DynamoDB pages: sort the drawn replica whole, then filter -----------------
# These measure every item and entry they serve from scratch, as the
# service did before stored values carried their size (ItemState.nbytes).


def reference_item_size(key, state):
    return len(key.encode()) + _attr_size(state)


def reference_entry_size(entry_key, projected):
    return (
        units.DDB_INDEX_ENTRY_OVERHEAD
        + len(entry_key.encode())
        + _attr_size(projected)
    )


def reference_items_snapshot(replicas):
    """(key, value) pairs visible on one randomly chosen replica."""
    replica = replicas._pick_replica()
    for key in sorted(replica):
        version_value = replica[key]
        if version_value[1] is not _TOMBSTONE:
            yield key, version_value[1]


def reference_scan(
    ddb, table_name, exclusive_start_key=None, limit=SCAN_MAX_PAGE, consistent=False
):
    table = ddb._table(table_name)
    if consistent:
        snapshot = [
            (key, dict(table.authority[key])) for key in sorted(table.authority)
        ]
    else:
        snapshot = [(k, dict(v)) for k, v in reference_items_snapshot(table.replicas)]
    if exclusive_start_key is not None:
        snapshot = [(k, v) for k, v in snapshot if k > exclusive_start_key]
    page = []
    scanned_bytes = 0
    for key, state in snapshot:
        page.append((key, state))
        scanned_bytes += reference_item_size(key, state)
        if len(page) >= min(limit, SCAN_MAX_PAGE):
            break
        if scanned_bytes >= units.DDB_PAGE_BYTES:
            break
    base = float(max(1, math.ceil(scanned_bytes / units.DDB_RCU_BYTES)))
    read_units = base if consistent else base / 2.0
    ddb._check_faults("Scan")
    ddb._admit(table, read_units, 0.0)
    ddb._meter.record_request(billing.DDB, "Scan")
    ddb._meter.record_capacity(billing.DDB, read_units=read_units)
    ddb._meter.record_transfer_out(
        billing.DDB, sum(len(k.encode()) + _attr_size(v) for k, v in page)
    )
    last_key = page[-1][0] if len(snapshot) > len(page) and page else None
    return ScanResult(
        items=tuple((k, dict(v)) for k, v in page), last_evaluated_key=last_key
    )


def reference_query_index(
    ddb, table_name, index_name, key_values,
    exclusive_start_key=None, limit=SCAN_MAX_PAGE, range_condition=None,
):
    table = ddb._table(table_name)
    index = table.indexes[index_name]
    wanted = set(key_values)
    matches = []
    for entry_key, projected in reference_items_snapshot(index.replicas):
        value, _, rest = entry_key.partition(INDEX_KEY_SEP)
        if value not in wanted:
            continue
        if range_condition is not None:
            range_value = rest.rpartition(INDEX_KEY_SEP)[0]
            if not _range_matches(range_value, range_condition):
                continue
        if exclusive_start_key is not None and entry_key <= exclusive_start_key:
            continue
        item_name = rest.rpartition(INDEX_KEY_SEP)[2]
        matches.append((entry_key, item_name, projected))
    billing_key = (
        billing.DDB_GSI_RANGE if range_condition is not None else billing.DDB_GSI
    )
    return _reference_index_page(ddb, table, index, matches, limit, "Query", billing_key)


def reference_scan_index(
    ddb, table_name, index_name, exclusive_start_key=None, limit=SCAN_MAX_PAGE
):
    table = ddb._table(table_name)
    index = table.indexes[index_name]
    matches = [
        (entry_key, entry_key.rpartition(INDEX_KEY_SEP)[2], projected)
        for entry_key, projected in reference_items_snapshot(index.replicas)
        if exclusive_start_key is None or entry_key > exclusive_start_key
    ]
    return _reference_index_page(ddb, table, index, matches, limit, "Scan")


def _reference_index_page(
    ddb, table, index, matches, limit, op, billing_key=billing.DDB_GSI
):
    page = []
    page_bytes = 0
    for entry_key, item_name, projected in matches:
        page.append((entry_key, item_name, dict(projected)))
        page_bytes += reference_entry_size(entry_key, projected)
        if len(page) >= min(limit, SCAN_MAX_PAGE):
            break
        if page_bytes >= units.DDB_PAGE_BYTES:
            break
    base = float(max(1, math.ceil(page_bytes / units.DDB_RCU_BYTES)))
    read_units = base / 2.0
    ddb._check_faults(op)
    if index.spec.rcu is not None:
        ddb._admit(table, 0.0, 0.0, [(index, read_units, 0.0)])
    else:
        ddb._admit(table, read_units, 0.0)
    ddb._meter.record_request(billing_key, op)
    ddb._meter.record_capacity(billing_key, read_units=read_units)
    ddb._meter.record_transfer_out(
        billing_key,
        sum(
            len(item_name.encode()) + _attr_size(projected)
            for _, item_name, projected in page
        ),
    )
    last = page[-1][0] if page and len(matches) > len(page) else None
    return IndexQueryResult(
        entries=tuple((item_name, projected) for _, item_name, projected in page),
        last_evaluated_key=last,
    )


# -- S3 LIST: the drawn replica's keys sorted whole ----------------------------


def reference_list(s3, bucket, prefix, marker, max_keys) -> S3ListResult:
    """The LIST the seek replaced: the drawn replica's keys sorted
    whole, filtered linearly, cut at the page — metered the same way."""
    s3._request("LIST")
    visible = [
        key
        for key, _ in reference_items_snapshot(s3._bucket(bucket))
        if key.startswith(prefix) and (marker is None or key > marker)
    ]
    page = tuple(visible[:max_keys])
    s3._meter.record_transfer_out(billing.S3, sum(len(k.encode()) for k in page))
    truncated = len(visible) > max_keys
    return S3ListResult(page, truncated, page[-1] if truncated else None)


# -- SimpleDB queries: the interpreter the compiled matchers replaced ----------


_REFERENCE_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "starts-with": lambda a, b: a.startswith(b),
    "does-not-start-with": lambda a, b: not a.startswith(b),
}


def reference_matches(node, attrs) -> bool:
    if isinstance(node, Comparison):
        values = attrs.get(node.attribute)
        if not values:
            return False
        quantify = all if node.every else any
        return quantify(_REFERENCE_OPS[node.op](v, node.value) for v in values)
    if isinstance(node, BracketPredicate):
        return any(
            all(
                any(_REFERENCE_OPS[c.op](value, c.value) for c in group)
                for group in node.conjunctions
            )
            for value in attrs.get(node.attribute) or ()
        )
    if isinstance(node, Null):
        present = bool(attrs.get(node.attribute))
        return present if node.negated else not present
    if isinstance(node, Not):
        return not reference_matches(node.operand, attrs)
    if isinstance(node, BoolOp):
        left = reference_matches(node.left, attrs)
        right = reference_matches(node.right, attrs)
        return (left and right) if node.op == "and" else (left or right)
    assert isinstance(node, MatchAll)
    return True


def reference_rows(items, query):
    """What the pre-index service returned for ``query`` over ``items``."""
    matched = [(n, a) for n, a in items if reference_matches(query.predicate, a)]
    matched.sort(key=lambda pair: query.sort_key(*pair))
    if query.sort_descending:
        matched.reverse()
    return [(name, dict(attrs)) for name, attrs in matched]


# -- DynamoDB index picks: plain loops over the declarations -------------------


def reference_index_plan(specs, lags, bound, compiled, wanted):
    """The first-fit index pick of a ``path=None`` query, as the loop
    that preceded the access-path enumerator spelled it: ``(first-fit
    spec or None, (gsi, scan, stale) counter deltas of one path=None
    execution)``."""
    if not specs:
        return None, (0, 0, 0)
    candidates = equality_candidates(compiled.predicate)
    ranges = _range_candidates(compiled.predicate)
    referenced = _referenced_attributes(compiled.predicate)
    stale = False
    for spec in specs:
        if not candidates.get(spec.key_attribute):
            continue
        if spec.range_attribute is not None and spec.range_attribute not in ranges:
            continue
        if not spec.covers(referenced):
            continue
        if not spec.project_all and (wanted is None or not spec.covers(wanted)):
            continue
        if lags[spec.name] > bound:
            stale = True
            continue
        return spec, (1, 0, 0)
    return None, (0, 1, int(stale))


def reference_composite_pick(specs, lags, bound, hash_attribute, range_attribute):
    """``DynamoBackend.composite_index`` as a plain loop over the
    declarations: ``(the first fresh ALL-projection (hash, range) index
    or None, stale_index_fallbacks delta)``. The delta is 1 only when
    no fresh index matched and at least one matching index was stale."""
    stale = False
    for spec in specs:
        if (spec.key_attribute, spec.range_attribute) != (hash_attribute, range_attribute):
            continue
        if not spec.project_all:
            continue
        if lags[spec.name] > bound:
            stale = True
            continue
        return spec, 0
    return None, int(stale)


def reference_migration_pick(specs, lags, bound, distinct_items, item_count):
    """``DynamoBackend.migration_pages``' index choice as a plain loop:
    ``(the first fresh ALL-projection index holding an entry for every
    item, or None; stale_index_fallbacks delta; migration_index_streams
    delta)``. ``distinct_items`` maps an index name to the items it has
    entries for. A stale index counts as a fallback only when it would
    otherwise have served: one that is also sparse could not have, so
    it counts nothing."""
    stale = False
    for spec in specs:
        if not spec.project_all or distinct_items[spec.name] != item_count:
            continue
        if lags[spec.name] > bound:
            stale = True
            continue
        return spec, 0, 1
    return None, int(stale), 0


def reference_domains(shards: int) -> list[str]:
    """The store names of an ``shards``-way layout: the paper's single
    domain unsharded, numbered domains otherwise."""
    if shards == 1:
        return ["pass-prov"]
    return [f"pass-prov-{index:02d}" for index in range(shards)]


def _reference_point(text: str) -> int:
    return int.from_bytes(hashlib.md5(text.encode("utf-8")).digest()[:8], "big")


@functools.lru_cache(maxsize=None)
def _reference_ring(shards: int, vnodes: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
    ring = sorted(
        (_reference_point(f"{domain}#{vnode}"), domain)
        for domain in reference_domains(shards)
        for vnode in range(vnodes)
    )
    return tuple(position for position, _ in ring), tuple(domain for _, domain in ring)


def reference_domain_for(path: str, shards: int, vnodes: int = 384) -> str:
    """``ShardRouter.domain_for`` without its memo or short-cuts: hash
    every vnode of every domain onto a sorted ring (MD5 of the UTF-8
    text, first 8 bytes big-endian; the ring is built once per layout
    shape) and take the first point strictly past the hash of ``path``,
    wrapping to the start."""
    positions, domains = _reference_ring(shards, vnodes)
    index = bisect.bisect_right(positions, _reference_point(path))
    return domains[index % len(domains)]


def reference_has_input(obj, ancestor) -> bool:
    """``PassObject.has_input`` as a scan of the current version's
    records for an ``input`` record naming ``ancestor``."""
    return any(
        record.attribute == Attr.INPUT and record.value == ancestor
        for record in obj.pending
    )


def reference_is_described(obj) -> bool:
    """What ``PassSystem._ensure_descriptors`` asks of an object: does
    its current version hold a ``type`` record? (A scan.)"""
    return any(record.attribute == Attr.TYPE for record in obj.pending)


def reference_is_acyclic(bundles) -> bool:
    """Is the graph of the bundles' ``input`` / ``prev_version`` edges a
    DAG? Kahn's algorithm, iterative: repeatedly retire the nodes with
    no unretired parent; the graph is acyclic when every node retires.
    A subject emitted twice contributes the union of its edges."""
    parents: dict = {}
    for bundle in bundles:
        inputs = bundle.inputs()
        parents.setdefault(bundle.subject, set()).update(inputs)
        for parent in inputs:
            parents.setdefault(parent, set())
    waiting = {node: len(inputs) for node, inputs in parents.items()}
    children: dict = {}
    for node, inputs in parents.items():
        for parent in inputs:
            children.setdefault(parent, []).append(node)
    ready = [node for node, count in waiting.items() if count == 0]
    retired = 0
    while ready:
        node = ready.pop()
        retired += 1
        for child in children.get(node, ()):
            waiting[child] -= 1
            if waiting[child] == 0:
                ready.append(child)
    return retired == len(parents)


def pass_bundles(objects, events=()) -> list:
    """What PASS emits: the bundles of flushed ``events``, plus every
    version each live ``PassObject`` still holds (its finalised history
    and its current records)."""
    bundles = [bundle for event in events for bundle in event.all_bundles()]
    for obj in objects:
        bundles.extend(obj.snapshot_bundle(version) for version in obj.history)
        bundles.append(obj.snapshot_bundle())
    return bundles


def emitted_bundles(pas: PassSystem, events=()) -> list:
    """``pass_bundles`` over every file and transient object ``pas``
    tracks."""
    return pass_bundles([*pas._files.values(), *pas._transients.values()], events)


def reference_descendants_of_outputs(walker, program: str) -> set:
    """``AncestryWalker.descendants_of_outputs`` as one closure per Q2
    seed over the sorted ``children`` lists, every file reached added
    to the seeds."""
    seeds = walker.outputs_of(program)
    results = set(seeds)
    for seed in seeds:
        seen: set = set()
        frontier = list(walker.children(seed))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(walker.children(node))
        for node in seen:
            bundle = walker.bundle(node)
            if bundle is not None and bundle.kind == "file":
                results.add(node)
    return results


# -- the default deployment: what every configuration-grid cell must answer ----

GRID_SEED = 5
#: Replica lag every grid deployment stores its workload under.
GRID_CONSISTENCY = ConsistencyConfig.eventual(window=2.0, immediate_fraction=0.4)
GRID_EVENTS = CombinedWorkload().generate(seed=3, scale=0.02).events
GRID_PROGRAM = "blast"
#: Versions 2..3: few enough that a composite ``type/nonce`` range slice
#: is the cost planner's pick, and its upper bound holds data.
GRID_Q4_RANGE = (2, 3)


def burst_events():
    """New outputs of :data:`GRID_PROGRAM`, each written twice (v1 and
    v2), so the burst changes Q2, Q3 and Q4 alike."""
    pas = PassSystem(workload="burst")
    pas.stage_input("burst/in.dat", b"burst input")
    for round_ in range(2):
        for i in range(3):
            with pas.process(GRID_PROGRAM, argv=f"-burst {round_}.{i}") as proc:
                proc.read("burst/in.dat")
                proc.write(f"burst/out{i}.dat", f"{round_}.{i}".encode())
                proc.close(f"burst/out{i}.dat")
    return pas.drain_flushes()


def latest_refs(events) -> list:
    latest = {}
    for ref in sorted(event.subject for event in events):
        latest[ref.name] = ref
    return list(latest.values())


def scatter_round(engine) -> tuple:
    return (
        engine.q2_outputs_of(GRID_PROGRAM),
        engine.q3_descendants_of(GRID_PROGRAM),
        engine.q4_time_range(*GRID_Q4_RANGE),
    )


def observe_deployment(sim, measured: list) -> dict:
    """What a deployment that has stored :data:`GRID_EVENTS` answers:
    Q1 of every latest version, ``q1_all``, Q2-Q4, ``store.read`` of
    every object and the authoritative item snapshot; then Q2-Q4
    repeated, a write burst, and Q2-Q4 again. Every query measurement
    taken is appended to ``measured``."""
    engine = sim.query_engine()
    point = [engine.q1(ref) for ref in latest_refs(GRID_EVENTS)]
    everything = engine.q1_all()
    scatter = scatter_round(engine)
    measured.extend([*point, everything, *scatter])
    reads = {}
    for ref in latest_refs(GRID_EVENTS):
        result = sim.read(ref.name)
        reads[ref.name] = (
            result.subject,
            result.data.md5() if result.data is not None else None,
            result.bundle,
            result.consistent,
        )
    seen = {
        "q1": [m.refs for m in point],
        "q1_all": everything.refs,
        "scatter": [m.refs for m in scatter],
        "reads": reads,
        "snapshot": authoritative_snapshot(sim.account, sim.routing.current),
    }
    repeated = scatter_round(engine)
    sim.store_events(burst_events(), collect=False)
    after_burst = scatter_round(engine)
    measured.extend([*repeated, *after_burst])
    seen["repeated"] = [m.refs for m in repeated]
    seen["after_burst"] = [m.refs for m in after_burst]
    return seen


@functools.lru_cache(maxsize=None)
def reference_deployment() -> dict:
    """The paper's default deployment (A3, one SimpleDB domain, every
    knob at its default, no migration) storing :data:`GRID_EVENTS`:
    its :func:`observe_deployment` answers, what every grid cell must
    equal."""
    sim = Simulation(seed=GRID_SEED, consistency=GRID_CONSISTENCY)
    sim.store_events(GRID_EVENTS, collect=False)
    return observe_deployment(sim, [])
