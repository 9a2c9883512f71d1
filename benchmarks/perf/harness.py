"""Two-plane measurement of one workload: host time and simulated cost.

A run repeats *cycles* of one :class:`~specs.WorkloadSpec` until its
time budget is spent. Every cycle generates the inputs from the seed,
builds a fresh ``Simulation`` (the set-up, timed as ``setup_s``), then
times the public calls a user makes — ``run_workload``, the query
engine's ``q1``/``q2_outputs_of``/``q3_descendants_of``/
``q4_time_range``/``q1_all``, ``migrate`` — and checks every result
against an in-memory oracle over the generated events. The run reports
the median over cycles, so each number rests on R ≥ 3 repetitions on
fresh state.

Two planes, always named:

* **host** — ``time.perf_counter`` around those calls, normalised by
  the machine's speed at that moment (:class:`Stopwatch`): bounded.
* **sim** — the ``Meter``/``SimClock``/``PriceBook`` accounting of the
  same calls: exact for a seed. All cycles of a run see the same inputs,
  so their sim plane must be identical; the run fails if it is not.

A traced run (:func:`measure` with ``trace=True``) runs two cycles
plain and the rest under :mod:`tracer`'s wrappers, which yields the
per-layer self times, the tracing overhead, and the check that the
wrappers leave ``sim.usage()`` untouched.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator

from repro.aws.billing import (
    DDB,
    DDB_GSI,
    DDB_GSI_RANGE,
    ELASTICACHE,
    S3,
    SDB,
    SQS,
    PriceBook,
    Usage,
)
from repro.passlib.records import FlushEvent, ObjectRef
from repro.query.ancestry import AncestryWalker
from repro.sim import Simulation
from repro.workloads import (
    CombinedWorkload,
    DeepLineageWorkload,
    Workload,
    ZipfianFleetWorkload,
)

import tracer as tracing
from specs import Q4_RANGES, READ_CHECKS, WorkloadSpec

#: Cycles every run completes before the time budget may stop it.
MIN_CYCLES = 3
#: Cycles a traced run completes before it installs the tracer.
PLAIN_CYCLES = 2

#: name -> (unit, better). Reported by every workload with tracing off.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ingest_events_per_s": ("1/s", "higher"),
    "migrate_items_per_s": ("1/s", "higher"),
    "q1_p50_us": ("us", "lower"),
    "q1_p99_us": ("us", "lower"),
    "q2_ms": ("ms", "lower"),
    "q3_ms": ("ms", "lower"),
    "q4_ms": ("ms", "lower"),
    "query_mix_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_ingest_usd_per_kevent": ("USD", "lower"),
    "sim_ingest_requests_per_event": ("count", "lower"),
    "sim_prov_bytes_per_data_byte": ("ratio", "lower"),
    "sim_query_usd_per_kquery": ("USD", "lower"),
}

#: Services whose stored bytes hold user data or provenance.
_STORAGE = (S3, SDB, DDB, DDB_GSI)
#: layer -> meter keys whose requests and transfer it accounts for.
_SERVICE_KEYS = {
    "s3": (S3,),
    "simpledb": (SDB,),
    "sqs": (SQS,),
    "dynamo": (DDB, DDB_GSI, DDB_GSI_RANGE),
    "elasticache": (ELASTICACHE,),
}
_SDB_QUERY_OPS = ("Query", "QueryWithAttributes", "Select")

#: Per-layer extras beyond ``<layer>.calls/.self_s/.us_per_call``
#: measured on the host plane (from spans and timers) ...
_HOST_EXTRAS: dict[str, tuple[str, str]] = {
    "store.p50_us": ("us", "lower"),
    "store.p99_us": ("us", "lower"),
    "daemons.pump_p99_ms": ("ms", "lower"),
    "host_us_per_sim_request": ("us", "lower"),
    "trace_overhead_ratio": ("ratio", "lower"),
}
#: ... and on the sim plane: counts that repeat exactly for a seed.
_SIM_EXTRAS: dict[str, tuple[str, str]] = {
    "capture.records_per_event": ("count", "lower"),
    "serializer.bytes_per_event": ("B", "lower"),
    "wal.messages_per_event": ("count", "lower"),
    "store.retries": ("count", "lower"),
    "coalesce.items_per_flush": ("count", "higher"),
    "daemons.txns_per_round": ("count", "higher"),
    "daemons.deferred": ("count", "lower"),
    "router.sites_per_write": ("count", "lower"),
    "backend.pages_per_query": ("count", "lower"),
    "backend.gsi_queries": ("count", "higher"),
    "backend.scan_fallbacks": ("count", "lower"),
    "backend.stale_index_fallbacks": ("count", "lower"),
    "backend.unprocessed_retries": ("count", "lower"),
    **{
        f"{layer}.{suffix}": (unit, "lower")
        for layer in _SERVICE_KEYS
        for suffix, unit in (("sim_requests", "count"), ("sim_bytes", "B"))
    },
    "simpledb.items_examined_per_result": ("count", "lower"),
    "dynamo.throttled_requests": ("count", "lower"),
    "dynamo.index_write_units_per_item": ("count", "lower"),
    "elasticache.hit_rate": ("ratio", "higher"),
    "elasticache.evictions": ("count", "lower"),
    "elasticache.invalidations": ("count", "lower"),
    "elasticache.refused_fills": ("count", "lower"),
    "meter.snapshots_per_query": ("count", "lower"),
    "engine.waves_per_q3": ("count", "lower"),
    "engine.backend_ops_per_result": ("count", "lower"),
    "engine.sim_q3_latency_s": ("sim_s", "lower"),
    "planner.prediction_error": ("ratio", "lower"),
    "planner.deviations": ("count", "higher"),
    "migration.double_writes": ("count", "lower"),
    "migration.wal_records": ("count", "lower"),
}

#: name -> (unit, better). Reported by every workload with tracing on.
PER_LAYER: dict[str, tuple[str, str]] = {
    **{
        f"{layer}.{suffix}": (unit, "lower")
        for layer in tracing.LAYERS
        for suffix, unit in (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))
    },
    **_HOST_EXTRAS,
    **_SIM_EXTRAS,
}


def plane(metric: str) -> str:
    """``"sim"`` for metrics that are exact for a seed, else ``"host"``."""
    return "sim" if metric.startswith("sim_") or metric in _SIM_EXTRAS else "host"


# ---------------------------------------------------------------------------
# Inputs and oracle, generated from the seed
# ---------------------------------------------------------------------------

@dataclass
class RoundPlan:
    """One query round's expected result sets and point probes."""

    expected: dict[tuple, set[ObjectRef]]
    probes: list[ObjectRef]


@dataclass
class Plan:
    load: list[tuple[Workload, float]]
    burst: Workload | None
    rounds: list[RoundPlan]
    #: Latest version of a sample of stored objects, re-read at the end.
    reads: list[ObjectRef]
    #: User data S3 retains after the load (latest version per object).
    data_bytes: int


def materialise(workload: Workload, scale: float, seed: int) -> list[FlushEvent]:
    """The events ``Simulation.run_workload(workload, scale, seed)``
    will generate and store — same RNG derivation, so the oracle sees
    exactly what the program receives (a drift fails the result checks)."""
    return list(workload.iter_events(random.Random(f"{workload.name}:{seed}"), scale))


def _expectations(walker: AncestryWalker, spec: WorkloadSpec) -> dict:
    expected: dict[tuple, set[ObjectRef]] = {}
    for program in spec.programs:
        expected["q2", program] = walker.outputs_of(program)
        expected["q3", program] = walker.descendants_of_outputs(program)
    subjects = walker.subjects()
    files = [ref for ref in subjects if walker.bundle(ref).kind == "file"]
    for lo, hi in Q4_RANGES:
        expected["q4", lo, hi] = {ref for ref in files if lo <= ref.version <= hi}
    expected["q1_all",] = set(subjects)
    return expected


def build_plan(spec: WorkloadSpec, seed: int) -> Plan:
    rng = random.Random(f"perf:{spec.name}:{seed}")
    load: list[tuple[Workload, float]] = [(CombinedWorkload(), spec.combined_scale)]
    if spec.chain_length:
        load.append((DeepLineageWorkload(chain_length=spec.chain_length), 1.0))
    burst = ZipfianFleetWorkload(n_ops=spec.burst_ops) if spec.burst_ops else None
    prober = ZipfianFleetWorkload(s=spec.probe_skew) if spec.probe_skew else Workload()

    walker = AncestryWalker([])
    latest: dict[str, FlushEvent] = {}
    stored: set[ObjectRef] = set()

    def absorb(events: list[FlushEvent]) -> None:
        for event in events:
            for bundle in event.all_bundles():
                walker.add(bundle)
            latest[event.subject.name] = event
            stored.add(event.subject)

    def round_plan() -> RoundPlan:
        return RoundPlan(
            expected=_expectations(walker, spec),
            probes=prober.sample_read_refs(rng, sorted(stored), spec.probes),
        )

    for workload, scale in load:
        absorb(materialise(workload, scale, seed))
    data_bytes = sum(event.data.size for event in latest.values())
    rounds = [round_plan()]
    if burst is not None:
        absorb(materialise(burst, 1.0, seed))
    rounds.extend(round_plan() for _ in range(spec.rounds - 1))
    names = sorted(latest)
    reads = [latest[name].subject for name in rng.sample(names, min(READ_CHECKS, len(names)))]
    return Plan(load=load, burst=burst, rounds=rounds, reads=reads, data_bytes=data_bytes)


# ---------------------------------------------------------------------------
# Host timing at a reference machine speed
# ---------------------------------------------------------------------------

#: Iterations of the calibration loop (about 3 ms); a probe is the
#: faster of two loops, so one preemption does not read as a slow state.
_SPIN_ITERATIONS = 40_000
#: Seconds the loop takes on the sandbox in its fast state. The shared
#: 2-core box alternates every ~10 s between two states ~27% apart
#: (wall and CPU time alike), which no in-process median removes; host
#: durations are therefore reported as they would read at this speed.
REFERENCE_SPIN_S = 0.00267
#: A probe this fresh serves the next region too.
_PROBE_REUSE_S = 0.03


def _spin() -> float:
    """Host seconds of a fixed pure-Python loop: the machine's speed now."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(_SPIN_ITERATIONS):
        table[i % 1000] = i
        total += i * i
    return time.perf_counter() - started


class Region:
    """One timed region: raw host seconds and the machine's slowness
    around it (calibration loop before and after, over the reference)."""

    raw = 0.0
    slowness = 1.0

    @property
    def seconds(self) -> float:
        """The region's duration at the reference machine speed."""
        return self.raw / self.slowness


class Stopwatch:
    """Times regions between two probes of the machine's speed."""

    def __init__(self) -> None:
        self._probed_at = float("-inf")
        self._probe_s = 0.0
        #: Every probe's slowness, for the run's context line.
        self.probes: list[float] = []

    def slowness(self) -> float:
        """Calibration-loop time over the reference (1.0 = fast state)."""
        if time.perf_counter() - self._probed_at > _PROBE_REUSE_S:
            self._probe_s = min(_spin(), _spin())
            self._probed_at = time.perf_counter()
            self.probes.append(self._probe_s / REFERENCE_SPIN_S)
        return self._probe_s / REFERENCE_SPIN_S

    @contextmanager
    def region(self) -> Iterator[Region]:
        region = Region()
        # Every region starts from a collected heap: where a full
        # collection lands is otherwise fixed by the allocations before
        # it, i.e. by the seed, and one costs as much as a whole Q4.
        gc.collect()
        before = self.slowness()
        started = time.perf_counter()
        try:
            yield region
        finally:
            region.raw = time.perf_counter() - started
            region.slowness = (before + self.slowness()) / 2


# ---------------------------------------------------------------------------
# One cycle: set up, ingest, query rounds, migrate, verify
# ---------------------------------------------------------------------------

@dataclass
class RoundSample:
    """Host and sim measurements of one query round; host durations
    are at the reference machine speed."""

    q1_us: list[float] = field(default_factory=list)
    q2_s: float = 0.0
    q3_s: float = 0.0
    q4_s: float = 0.0
    seconds: float = 0.0
    ops: int = 0
    results: int = 0
    closure_results: int = 0
    backend_ops: int = 0
    q3_latencies: list[float] = field(default_factory=list)
    prediction_errors: list[float] = field(default_factory=list)
    usage: Usage = field(default_factory=Usage.empty)


@dataclass
class CycleSample:
    setup_s: float
    ingest_events: int = 0
    ingest_s: float = 0.0
    ingest_usage: Usage = field(default_factory=Usage.empty)
    prov_bytes_per_data_byte: float = 0.0
    rounds: list[RoundSample] = field(default_factory=list)
    migrate_items: int = 0
    migrate_s: float = 0.0
    #: Raw host seconds of the timed regions (``timed_s`` before the
    #: rescaling to the reference machine speed).
    raw_timed_s: float = 0.0
    #: Metered requests of the timed regions (everything up to the
    #: migration's end; the verification reads come after).
    timed_requests: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    final_usage: Usage = field(default_factory=Usage.empty)
    #: Counters read off the simulation's objects when the cycle ends.
    counters: dict[str, float] = field(default_factory=dict)
    #: Traced cycles only: the spans of the timed regions, and the sums
    #: the tracer's observers collected over them.
    spans: list = field(default_factory=list)
    observed: dict[str, float] = field(default_factory=dict)

    @property
    def timed_s(self) -> float:
        """Host seconds inside the cycle's timed regions, at the
        reference machine speed."""
        return self.ingest_s + self.migrate_s + sum(r.seconds for r in self.rounds)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _root(tracer, name: str):
    """The ``sim`` root span of a timed ``Simulation`` call, if tracing."""
    return tracer.span(tracing.SIM, name) if tracer else nullcontext()


def _ingest(sim, workload, scale, seed, watch, tracer, cycle: CycleSample) -> None:
    before = sim.usage()
    with watch.region() as region, _root(tracer, "run_workload"):
        stored = sim.run_workload(workload, scale, seed=seed)
    cycle.ingest_s += region.seconds
    cycle.raw_timed_s += region.raw
    cycle.ingest_usage = cycle.ingest_usage + (sim.usage() - before)
    cycle.ingest_events += stored
    cycle.attempted += stored


def _query_round(sim, spec: WorkloadSpec, plan: RoundPlan, watch, cycle: CycleSample) -> None:
    """Time every query of one round, then fold and check the answers."""
    engine = sim.query_engine()
    #: (key, measurement, raw host seconds) per scatter query, in issue order.
    scatters: list[tuple[tuple, object, float]] = []
    #: (raw host seconds, answered with exactly the probed object, backend
    #: ops) per probe — the 2000 measurements themselves are dropped at once,
    #: so the heap the collector walks grows by the program's objects only.
    probes: list[tuple[float, bool, int]] = []

    def timed(key: tuple, call, *args) -> None:
        started = time.perf_counter()
        measurement = call(*args)
        scatters.append((key, measurement, time.perf_counter() - started))

    before = sim.usage()
    with watch.region() as region:
        for program in spec.programs:
            for _ in range(spec.repeats):
                timed(("q2", program), engine.q2_outputs_of, program)
                timed(("q3", program), engine.q3_descendants_of, program)
        for lo, hi in Q4_RANGES:
            timed(("q4", lo, hi), engine.q4_time_range, lo, hi)
        timed(("q1_all",), engine.q1_all)
        for ref in plan.probes:
            started = time.perf_counter()
            measurement = engine.q1(ref)
            probes.append(
                (time.perf_counter() - started, measurement.refs == (ref,), measurement.operations)
            )
    sample = RoundSample(usage=sim.usage() - before, ops=len(scatters) + len(probes))

    prices = sim.account.prices
    cycle.raw_timed_s += sum(raw for _, _, raw in scatters) + sum(raw for raw, _, _ in probes)
    for raw, found, operations in probes:
        sample.q1_us.append(raw / region.slowness * 1e6)
        sample.results += found
        sample.backend_ops += operations
        cycle.check(found, "q1 probe")
    sample.seconds = sum(sample.q1_us) / 1e6
    for key, measurement, raw in scatters:
        kind = key[0]
        seconds = raw / region.slowness
        sample.seconds += seconds
        sample.results += len(measurement.refs)
        sample.backend_ops += measurement.operations
        cycle.check(
            set(measurement.refs) == plan.expected[key],
            f"{'/'.join(map(str, key))} result set",
        )
        if kind == "q1_all":
            continue
        sample.closure_results += len(measurement.refs)
        if kind == "q2":
            sample.q2_s += seconds
        elif kind == "q3":
            sample.q3_s += seconds
            sample.q3_latencies.append(measurement.latency)
        else:
            sample.q4_s += seconds
        spent = prices.cost(measurement.usage).total
        if measurement.predicted_cost and spent:
            sample.prediction_errors.append(
                abs(measurement.predicted_cost - spent) / spent
            )
    cycle.rounds.append(sample)


def _verify_reads(sim, spec: WorkloadSpec, plan: Plan, cycle: CycleSample) -> None:
    """Sampled read-back through the architecture's read protocol, and
    one closure query on the migrated layout."""
    for ref in plan.reads:
        result = sim.read(ref.name)
        cycle.check(
            result.consistent and result.subject == ref, f"read {ref.name} verification"
        )
    program = spec.programs[0]
    refs = sim.query_engine().q2_outputs_of(program).refs
    cycle.check(
        set(refs) == plan.rounds[-1].expected["q2", program], "q2 after migration"
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counters(sim, cycle: CycleSample, report) -> dict[str, float]:
    """The counts the layers keep themselves, read when the cycle ends."""
    stats = sim.stats
    usage = cycle.final_usage
    backends = sim.account.provenance_backends()
    ddb = backends["ddb"]
    sites = sim.store.routing.query_sites()
    ddb_items = sum(ddb.item_count(s.domain) for s in sites if s.kind == "ddb")
    sdb_sizes = [backends["sdb"].item_count(s.domain) for s in sites if s.kind == "sdb"]
    coalescer = sim.store.coalescer
    cache = sim.account.read_cache
    daemon = getattr(sim.store, "commit_daemon", None)
    queries = Usage.empty()
    for sample in cycle.rounds:
        queries = queries + sample.usage
    selects = sum(queries.request_count(SDB, op) for op in _SDB_QUERY_OPS)
    closure_results = sum(r.closure_results for r in cycle.rounds)
    errors = [e for r in cycle.rounds for e in r.prediction_errors]
    counters = {
        "capture.records_per_event": _ratio(stats.n_records, stats.n_objects),
        "serializer.bytes_per_event": _ratio(stats.sdb_prov_bytes, stats.n_objects),
        "wal.messages_per_event": _ratio(stats.n_wal_messages, stats.n_objects),
        "store.retries": sim.store.consistency_retries,
        "coalesce.items_per_flush": _ratio(coalescer.coalesced_items, coalescer.flushes),
        "daemons.txns_per_round": (
            _ratio(daemon.stats.transactions_applied, daemon.stats.runs) if daemon else 0.0
        ),
        "daemons.deferred": daemon.stats.transactions_deferred if daemon else 0,
        "backend.gsi_queries": ddb.gsi_queries,
        "backend.scan_fallbacks": ddb.scan_fallbacks,
        "backend.stale_index_fallbacks": ddb.stale_index_fallbacks,
        "simpledb.items_examined_per_result": _ratio(
            selects * (statistics.fmean(sdb_sizes) if sdb_sizes else 0.0),
            closure_results,
        ),
        "dynamo.throttled_requests": ddb.throttled_requests,
        "dynamo.index_write_units_per_item": _ratio(usage.write_units(DDB_GSI), ddb_items),
        "elasticache.hit_rate": _ratio(cache.hits, cache.hits + cache.misses) if cache else 0.0,
        "elasticache.evictions": cache.evictions if cache else 0,
        "elasticache.invalidations": cache.invalidations if cache else 0,
        "elasticache.refused_fills": cache.refused_fills if cache else 0,
        "engine.backend_ops_per_result": _ratio(
            sum(r.backend_ops for r in cycle.rounds), sum(r.results for r in cycle.rounds)
        ),
        "engine.sim_q3_latency_s": statistics.fmean(
            latency for r in cycle.rounds for latency in r.q3_latencies
        ),
        "planner.prediction_error": statistics.fmean(errors) if errors else 0.0,
        "migration.double_writes": report.double_writes,
        "migration.wal_records": report.wal_records,
    }
    for layer, keys in _SERVICE_KEYS.items():
        counters[f"{layer}.sim_requests"] = sum(usage.request_count(k) for k in keys)
        counters[f"{layer}.sim_bytes"] = sum(
            usage.transfer_in(k) + usage.transfer_out(k) for k in keys
        )
    return counters


def run_cycle(
    spec: WorkloadSpec,
    seed: int,
    watch: Stopwatch | None = None,
    tracer: tracing.Tracer | None = None,
) -> CycleSample:
    watch = watch or Stopwatch()
    with watch.region() as region:
        plan = build_plan(spec, seed)
        sim = Simulation(spec.architecture, seed=0, **spec.knobs())
    cycle = CycleSample(setup_s=region.seconds)
    if tracer:
        tracer.drain()  # spans cover the timed regions only, not the set-up

    for workload, scale in plan.load:
        _ingest(sim, workload, scale, seed, watch, tracer, cycle)
    stored = sim.usage()
    cycle.prov_bytes_per_data_byte = _ratio(
        sum(stored.stored(service) for service in _STORAGE) - plan.data_bytes,
        plan.data_bytes,
    )
    for index, round_plan in enumerate(plan.rounds):
        if index == 1 and plan.burst is not None:
            _ingest(sim, plan.burst, 1.0, seed, watch, tracer, cycle)
        _query_round(sim, spec, round_plan, watch, cycle)

    with watch.region() as region, _root(tracer, "migrate"):
        report = sim.migrate(shards=spec.migrate_to, online=True)
    cycle.migrate_s = region.seconds
    cycle.raw_timed_s += region.raw
    cycle.migrate_items = report.items_moved
    cycle.timed_requests = sim.usage().request_count()
    cycle.attempted += 1

    if tracer:
        cycle.spans, cycle.observed = tracer.drain()
    _verify_reads(sim, spec, plan, cycle)
    if tracer:
        tracer.drain()  # verification is not part of the measured work
    cycle.final_usage = sim.usage()
    cycle.counters = _counters(sim, cycle, report)
    return cycle


# ---------------------------------------------------------------------------
# A run: cycles until the budget is spent, then medians
# ---------------------------------------------------------------------------

def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def sim_metrics(cycle: CycleSample, prices) -> dict[str, float]:
    """The cycle's simulated-plane metrics — exact for a seed."""
    rounds = cycle.rounds
    queries = sum(r.ops for r in rounds)
    query_usd = sum(prices.cost(r.usage).total for r in rounds)
    return {
        "sim_ingest_usd_per_kevent": _ratio(
            prices.cost(cycle.ingest_usage).total * 1000, cycle.ingest_events
        ),
        "sim_ingest_requests_per_event": _ratio(
            cycle.ingest_usage.request_count(), cycle.ingest_events
        ),
        "sim_prov_bytes_per_data_byte": cycle.prov_bytes_per_data_byte,
        "sim_query_usd_per_kquery": _ratio(query_usd * 1000, queries),
    }


def end_to_end(cycles: list[CycleSample], prices, import_s: float) -> dict[str, float]:
    """Medians over cycles. A cycle's query numbers pool its rounds
    first: rounds differ systematically (round 2 follows the write
    burst), so a median over single rounds would straddle two
    populations."""
    median = statistics.median

    def per_round(cycle: CycleSample, attribute: str) -> float:
        return statistics.fmean(getattr(r, attribute) for r in cycle.rounds)

    probes = [[us for r in cycle.rounds for us in r.q1_us] for cycle in cycles]
    return {
        "setup_s": import_s + median(c.setup_s for c in cycles),
        "ingest_events_per_s": median(c.ingest_events / c.ingest_s for c in cycles),
        "migrate_items_per_s": median(c.migrate_items / c.migrate_s for c in cycles),
        "q1_p50_us": median(median(block) for block in probes),
        "q1_p99_us": median(_percentile(block, 0.99) for block in probes),
        "q2_ms": median(per_round(c, "q2_s") for c in cycles) * 1e3,
        "q3_ms": median(per_round(c, "q3_s") for c in cycles) * 1e3,
        "q4_ms": median(per_round(c, "q4_s") for c in cycles) * 1e3,
        "query_mix_per_s": median(
            sum(r.ops for r in c.rounds) / sum(r.seconds for r in c.rounds) for c in cycles
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **sim_metrics(cycles[0], prices),
    }


def per_layer(
    plain: CycleSample, traced: list[CycleSample], requests: list[tuple[str, str]]
) -> dict[str, float]:
    """Per-layer metrics of a traced run. Self times are medians over
    the traced cycles, each rescaled to the reference machine speed by
    its cycle's overall slowness; counts repeat exactly, so they come
    from the last one. ``requests`` maps a span's request id to the
    (layer, name) of the op that opened it."""
    summaries = [tracing.summarize(cycle.spans) for cycle in traced]
    slowness = [cycle.raw_timed_s / cycle.timed_s for cycle in traced]
    last, cycle = summaries[-1], traced[-1]
    spans, observed = cycle.spans, cycle.observed
    metrics: dict[str, float] = {}
    for layer in tracing.LAYERS:
        calls = last.layer_calls(layer)
        self_s = statistics.median(
            s.self_seconds.get(layer, 0.0) / slow for s, slow in zip(summaries, slowness)
        )
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.us_per_call"] = _ratio(self_s * 1e6, calls)
    metrics.update(cycle.counters)

    def calls_of(layer: str, name: str) -> int:
        return last.calls_by_name.get((layer, name), 0)

    def durations(layer: str, name: str) -> list[float]:
        return [
            s.seconds / slowness[-1] for s in spans if s.layer == layer and s.name == name
        ]

    def calls_within(layer: str, name: str, request_name: str | None = None) -> int:
        """Calls of ``layer.name`` made on behalf of a query (of one kind)."""
        return sum(
            1
            for s in spans
            if s.layer == layer
            and s.name == name
            and requests[s.request][0] == "engine"
            and request_name in (None, requests[s.request][1])
        )

    stores = durations("store", "store")
    pumps = durations("daemons", "pump")
    service_pages = sum(
        1
        for s in spans
        if s.layer in ("simpledb", "dynamo")
        and s.parent is not None
        and s.parent.layer == "backend"
        and s.parent.name.startswith("query_pages")
    )
    metrics.update(
        {
            "store.p50_us": statistics.median(stores) * 1e6 if stores else 0.0,
            "store.p99_us": _percentile(stores, 0.99) * 1e6 if stores else 0.0,
            "daemons.pump_p99_ms": _percentile(pumps, 0.99) * 1e3 if pumps else 0.0,
            "router.sites_per_write": _ratio(
                observed.get("router.write_plan", 0.0), calls_of("router", "write_plan")
            ),
            "backend.pages_per_query": _ratio(
                service_pages, calls_of("backend", "query_pages")
            ),
            "backend.unprocessed_retries": observed.get("dynamo.batch_write_item", 0.0),
            "meter.snapshots_per_query": _ratio(
                calls_within("meter", "snapshot"), sum(r.ops for r in cycle.rounds)
            ),
            "engine.waves_per_q3": _ratio(
                calls_within("router", "query_sites", "q3_descendants_of"),
                calls_of("engine", "q3_descendants_of"),
            ),
            "planner.deviations": observed.get("planner.choose", 0.0),
            "host_us_per_sim_request": _ratio(plain.timed_s * 1e6, plain.timed_requests),
            "trace_overhead_ratio": _ratio(
                statistics.median(c.timed_s for c in traced), plain.timed_s
            ),
        }
    )
    return metrics


@dataclass
class Report:
    """What one run prints: the contract's result plus its context."""

    metrics: dict[str, float]
    #: name -> (unit, better) of every metric in ``metrics``.
    units: dict[str, tuple[str, str]]
    attempted: int
    failures: list[str]
    #: How many repetitions the medians rest on.
    samples: dict[str, int]
    #: min / median / max of the machine slowness the run's host
    #: durations were divided by.
    machine_slowness: tuple[float, float, float] = (1.0, 1.0, 1.0)
    #: Traced runs only: layers ranked by self time, and the last
    #: traced cycle's spans.
    top_layers: list[tuple[str, float]] = field(default_factory=list)
    spans: list = field(default_factory=list)

    def result(self) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {
                name: {"value": value, "unit": self.units[name][0]}
                for name, value in self.metrics.items()
            },
        }


def measure(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    trace: bool = False,
    import_s: float = 0.0,
) -> Report:
    """Run cycles of ``spec`` for about ``seconds`` and fold them up.

    A traced run keeps its first ``PLAIN_CYCLES`` cycles plain: the
    first warms the process up, the second is the base of the tracing
    overhead; both take part in the tracing-on-vs-off meter comparison.
    """
    started = time.perf_counter()
    watch = Stopwatch()
    import_s /= watch.slowness()
    needed = PLAIN_CYCLES + max(1, MIN_CYCLES - 1) if trace else MIN_CYCLES
    cycles: list[CycleSample] = []
    tracer: tracing.Tracer | None = None
    try:
        while True:
            if trace and len(cycles) == PLAIN_CYCLES:
                tracer = tracing.Tracer()
                tracer.install()
            cycles.append(run_cycle(spec, seed, watch, tracer))
            elapsed = time.perf_counter() - started
            if len(cycles) >= needed and elapsed + elapsed / len(cycles) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    failures = [failure for cycle in cycles for failure in cycle.failures]
    # Same seed, fresh state: every cycle's sim plane must repeat exactly,
    # traced or not — the wrappers may not perturb the simulation.
    if any(cycle.final_usage != cycles[0].final_usage for cycle in cycles[1:]):
        failures.append("sim plane differs between cycles of one seed")
    report = Report(
        metrics={},
        units=PER_LAYER if trace else END_TO_END,
        attempted=sum(cycle.attempted for cycle in cycles) + 1,
        failures=failures,
        samples={
            "cycles": len(cycles),
            "query_rounds": sum(len(cycle.rounds) for cycle in cycles),
            "q1_probes": sum(len(r.q1_us) for cycle in cycles for r in cycle.rounds),
            "events_per_cycle": cycles[0].ingest_events,
        },
        machine_slowness=(
            min(watch.probes),
            statistics.median(watch.probes),
            max(watch.probes),
        ),
    )
    if trace:
        report.metrics = per_layer(
            cycles[PLAIN_CYCLES - 1], cycles[PLAIN_CYCLES:], tracer.requests
        )
        report.spans = cycles[-1].spans
        by_self_s = {layer: report.metrics[f"{layer}.self_s"] for layer in tracing.LAYERS}
        report.top_layers = sorted(by_self_s.items(), key=lambda kv: -kv[1])[:3]
    else:
        report.metrics = end_to_end(cycles, PriceBook(), import_s)
    return report
