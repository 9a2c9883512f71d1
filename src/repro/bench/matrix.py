"""The workload × architecture compare matrix (PROBE ``compare.py`` style).

Every performance claim in this repo used to rest on the paper's three
uniform §5 workloads. This runner sweeps a grid instead:

    workload (skewed / bursty / deep / uniform / replayed)
  × cell (architecture, shards, placement, GSIs, write_batch, read_cache)

with **R seeded repetitions per cell**. Each repetition generates a
fresh trace (rep-derived seed), loads it through a fresh simulation,
runs the Table 3 queries plus a point-read probe drawn from the
workload's own read distribution, and meters everything. Per-cell
aggregation reports min and median with a bootstrap confidence interval
of the median — the Kalibera & Jones prescription of reporting an
uncertainty interval over independent repetitions rather than a bare
mean.

Two honesty checks ride along:

* repetition 0 of every cell is serialised to the JSONL trace format
  and replayed through an identically-seeded simulation; the replayed
  meter must equal the original **byte for byte** (``replay_ok``);
* cache-enabled cells report the read-probe hit rate, so the report
  itself shows skew paying for the cache (Zipfian ≫ uniform).

Everything is a pure function of ``seed`` (PL003): no wall clock, no
module-level RNG, identical report for identical inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

from repro.core import ARCHITECTURES
from repro.passlib.records import ObjectRef
from repro.sim import Simulation
from repro.workloads import (
    BlastWorkload,
    DeepLineageWorkload,
    DiurnalBurstWorkload,
    LinuxCompileWorkload,
    TraceReplayWorkload,
    Workload,
    ZipfianFleetWorkload,
    dump_trace,
    load_trace,
)

#: The Q4 window every matrix repetition asks for: file versions that
#: changed during the rebuild passes (version 1 is the initial build).
Q4_VERSION_RANGE = (2, 3)

#: Bootstrap resamples behind each confidence interval.
BOOTSTRAP_ROUNDS = 200
#: Two-sided confidence level for the median interval.
CONFIDENCE = 0.95


# ---------------------------------------------------------------------------
# Grid axes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadSpec:
    """One workload axis entry: a generator, its scale, its probe target."""

    key: str
    workload: Workload
    scale: float = 1.0
    #: The program name Q2/Q3 start from.
    program: str = "blast"

    def rep_rng(self, seed: int, rep: int) -> random.Random:
        return random.Random(f"matrix:{self.key}:{seed}:{rep}")


@dataclass(frozen=True)
class MatrixCell:
    """One architecture/knob cell of the grid."""

    key: str
    architecture: str = "s3+simpledb"
    shards: int = 1
    placement: str = "sdb"
    ddb_indexes: str = ""
    write_batch: int = 1
    read_cache: str = "off"
    concurrency: int = 1
    planner: str = "off"

    def __post_init__(self):
        # Every repetition probes Q1 and Q4, which only the SimpleDB
        # engine answers — the A1 scan engine has neither.
        supported = sorted(set(ARCHITECTURES) - {"s3"})
        if self.architecture not in supported:
            raise ValueError(
                f"a matrix cell's architecture must be one of {supported}, "
                f"got {self.architecture!r}"
            )

    def build_simulation(self, seed: int) -> Simulation:
        """A simulation with this cell's fields as its knobs."""
        knobs = asdict(self)
        del knobs["key"]
        return Simulation(seed=seed, **knobs)


def default_workloads(scale: float = 1.0) -> list[WorkloadSpec]:
    """The standard workload axis: skewed, bursty, deep, and uniform."""
    return [
        WorkloadSpec(
            key="zipfian",
            workload=ZipfianFleetWorkload(
                n_tenants=6, keys_per_tenant=24, n_ops=150, s=1.3
            ),
            scale=scale,
            program="ingest",
        ),
        WorkloadSpec(
            key="diurnal",
            workload=DiurnalBurstWorkload(
                inner=ZipfianFleetWorkload(n_tenants=4, keys_per_tenant=16, n_ops=120)
            ),
            scale=scale,
            program="ingest",
        ),
        WorkloadSpec(
            key="deep-lineage",
            workload=DeepLineageWorkload(chain_length=10_000),
            # 10k-step chains are the scale-1.0 contract; the default
            # matrix samples the shape at a tractable depth.
            scale=0.012 * scale,
            program="step",
        ),
        WorkloadSpec(
            key="uniform-blast",
            # Sized so its object pool matches the Zipfian cells' — the
            # hit-rate comparison then isolates skew, not pool size.
            workload=BlastWorkload(n_runs=3, queries_per_run=16),
            scale=scale,
            program="blast",
        ),
        WorkloadSpec(
            key="time-range",
            # Incremental rebuilds put most files at version ≥ 2, so the
            # Q4 version window is dense — the row composite hash+range
            # indexes (and the cost planner's range conditions) exist
            # to make cheap.
            workload=LinuxCompileWorkload(
                n_sources=160,
                n_headers=48,
                rebuild_passes=2,
                rebuild_fraction=0.30,
            ),
            # Full size on purpose: the per-shard ``type = 'file'``
            # partition then spans multiple index pages, so first-fit
            # (whole partition) pays strictly more Query requests than
            # the cost planner's version-window slice.
            scale=scale,
            program="cc1",
        ),
    ]


def default_cells() -> list[MatrixCell]:
    """The standard cell axis: layouts × placements × knobs."""
    return [
        MatrixCell(key="sdb-1"),
        MatrixCell(key="sdb-4", shards=4),
        MatrixCell(key="ddb-gsi-4", shards=4, placement="ddb", ddb_indexes="name,input"),
        MatrixCell(key="mixed-4-cache", shards=4, placement="mixed", read_cache="on"),
        MatrixCell(key="sdb-4-cache", shards=4, read_cache="on"),
        MatrixCell(key="sqs-wb8", architecture="s3+simpledb+sqs", write_batch=8),
        MatrixCell(
            key="ddb-planner-ff-4",
            shards=4,
            placement="ddb",
            ddb_indexes="name/nonce+*,type/nonce,name,input",
            planner="first-fit",
        ),
        MatrixCell(
            key="ddb-planner-cost-4",
            shards=4,
            placement="ddb",
            ddb_indexes="name/nonce+*,type/nonce,name,input",
            planner="cost",
        ),
    ]


def quick_workloads(scale: float = 1.0) -> list[WorkloadSpec]:
    """The reduced 2×2 CI smoke axis: one Zipfian + one deep-lineage."""
    return [
        WorkloadSpec(
            key="zipfian",
            workload=ZipfianFleetWorkload(n_tenants=4, keys_per_tenant=12, n_ops=60),
            scale=scale,
            program="ingest",
        ),
        WorkloadSpec(
            key="deep-lineage",
            workload=DeepLineageWorkload(chain_length=10_000),
            scale=0.004 * scale,
            program="step",
        ),
    ]


def quick_cells() -> list[MatrixCell]:
    return [
        MatrixCell(key="sdb-1"),
        MatrixCell(key="sdb-4-cache", shards=4, read_cache="on"),
    ]


# ---------------------------------------------------------------------------
# Kalibera-style summary statistics
# ---------------------------------------------------------------------------

def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def summarize(values: Sequence[float], rng: random.Random) -> dict:
    """Min / median / bootstrap CI of the median over repetitions."""
    values = list(values)
    if not values:
        raise ValueError("cannot summarize zero repetitions")
    medians = []
    for _ in range(BOOTSTRAP_ROUNDS):
        resample = [values[rng.randrange(len(values))] for _ in values]
        medians.append(_median(resample))
    medians.sort()
    alpha = (1.0 - CONFIDENCE) / 2.0
    low = medians[int(alpha * (len(medians) - 1))]
    high = medians[int((1.0 - alpha) * (len(medians) - 1))]
    return {
        "min": min(values),
        "median": _median(values),
        "ci_low": low,
        "ci_high": high,
        "values": values,
    }


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------

def _latest_refs(events) -> list[ObjectRef]:
    latest: dict[str, int] = {}
    for event in events:
        subject = event.subject
        if subject.version > latest.get(subject.name, 0):
            latest[subject.name] = subject.version
    return [ObjectRef(name=name, version=version) for name, version in latest.items()]


def _run_rep(
    spec: WorkloadSpec,
    cell: MatrixCell,
    seed: int,
    rep: int,
    probe_reads: int,
    check_replay: bool,
) -> dict:
    rng = spec.rep_rng(seed, rep)
    timed = list(spec.workload.iter_timed_events(rng, spec.scale))
    events = [event for _, event in timed]
    delays = [delay for delay, _ in timed] if spec.workload.timed else None

    sim = cell.build_simulation(seed=seed * 1000 + rep)
    clock_start = sim.account.clock.now
    sim.store_timed_events(timed)
    loaded = sim.usage()
    metrics: dict = {
        "events": len(events),
        "load_ops": loaded.request_count(),
        "load_bytes_in": loaded.transfer_in(),
        "load_usd": sim.account.prices.cost(loaded).total,
        "load_seconds": sim.account.clock.now - clock_start,
    }

    engine = sim.query_engine()
    q2 = engine.q2_outputs_of(spec.program)
    q3 = engine.q3_descendants_of(spec.program)
    after_closure = sim.usage()
    metrics.update(
        {
            "q2_ops": q2.operations,
            "q2_latency": q2.latency,
            "q2_results": q2.result_count,
            "q3_ops": q3.operations,
            "q3_latency": q3.latency,
            "q3_results": q3.result_count,
            "query_usd": sim.account.prices.cost(after_closure - loaded).total,
        }
    )

    probe_rng = random.Random(f"matrix-probe:{spec.key}:{cell.key}:{seed}:{rep}")
    targets = spec.workload.sample_read_refs(probe_rng, _latest_refs(events), probe_reads)
    cache = sim.account.read_cache
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0
    probe_ops = 0
    probe_latency = 0.0
    for ref in targets:
        measurement = engine.q1(ref)
        probe_ops += measurement.operations
        probe_latency += measurement.latency
    metrics["probe_reads"] = len(targets)
    metrics["probe_ops"] = probe_ops
    metrics["probe_latency"] = probe_latency
    if cache is not None:
        hits = cache.hits - hits_before
        misses = cache.misses - misses_before
        if hits + misses:
            metrics["probe_hit_rate"] = hits / (hits + misses)

    before_q4 = sim.usage()
    q4 = engine.q4_time_range(*Q4_VERSION_RANGE)
    metrics.update(
        {
            "q4_ops": q4.operations,
            "q4_latency": q4.latency,
            "q4_results": q4.result_count,
            "q4_read_units": q4.usage.read_units(),
            "q4_usd": sim.account.prices.cost(sim.usage() - before_q4).total,
        }
    )
    predicted = [
        m.predicted_cost
        for m in (q2, q3, q4)
        if m.predicted_cost is not None
    ]
    if predicted:
        # Honesty pair: the planner's own estimate next to what the
        # meter actually charged for the same (planned) phases.
        metrics["query_predicted_usd"] = sum(predicted)
        metrics["query_metered_usd"] = metrics["query_usd"] + metrics["q4_usd"]

    if check_replay:
        text = dump_trace(events, workload=spec.workload.name, delays=delays)
        replay = TraceReplayWorkload(load_trace(text))
        resim = cell.build_simulation(seed=seed * 1000 + rep)
        resim.store_timed_events(replay.iter_timed_events(random.Random(0)))
        metrics["replay_ok"] = resim.usage() == loaded
    return metrics


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------

@dataclass
class CellReport:
    """Aggregated repetitions of one (workload, cell) pair."""

    workload: str
    cell: str
    stats: dict = field(default_factory=dict)
    replay_ok: bool | None = None


@dataclass
class MatrixReport:
    """The consolidated grid: every cell's statistics plus provenance."""

    seed: int
    reps: int
    workloads: list[dict]
    cells: list[dict]
    grid: list[CellReport]

    def cell(self, workload: str, cell: str) -> CellReport:
        for entry in self.grid:
            if entry.workload == workload and entry.cell == cell:
                return entry
        raise KeyError(f"no matrix entry ({workload!r}, {cell!r})")

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "reps": self.reps,
            "confidence": CONFIDENCE,
            "workloads": self.workloads,
            "cells": self.cells,
            "grid": [
                {
                    "workload": entry.workload,
                    "cell": entry.cell,
                    "replay_ok": entry.replay_ok,
                    "metrics": entry.stats,
                }
                for entry in self.grid
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        """One row per (workload, cell): medians with the load-ops CI."""
        def fmt(stats: dict | None, digits: int = 0) -> str:
            if stats is None:
                return "—"
            return f"{stats['median']:.{digits}f}"

        lines = [
            f"# Workload × architecture matrix (R={self.reps}, seed={self.seed}, "
            f"{int(CONFIDENCE * 100)}% bootstrap CI on medians)",
            "",
            "| workload | cell | events | load ops (median [CI]) | load USD |"
            " q2 ops | q3 ops | q1 probe ops | q1 hit rate | replay |",
            "|---|---|---|---|---|---|---|---|---|---|",
        ]
        for entry in self.grid:
            load = entry.stats["load_ops"]
            hit = entry.stats.get("probe_hit_rate")
            replay = {True: "byte-identical", False: "DRIFTED", None: "—"}[
                entry.replay_ok
            ]
            lines.append(
                "| {workload} | {cell} | {events} | {load} | {usd} | {q2} | {q3} |"
                " {probe} | {hit} | {replay} |".format(
                    workload=entry.workload,
                    cell=entry.cell,
                    events=fmt(entry.stats["events"]),
                    load=f"{load['median']:.0f} [{load['ci_low']:.0f}, "
                    f"{load['ci_high']:.0f}]",
                    usd=f"{entry.stats['load_usd']['median']:.4f}",
                    q2=fmt(entry.stats["q2_ops"]),
                    q3=fmt(entry.stats["q3_ops"]),
                    probe=fmt(entry.stats["probe_ops"]),
                    hit=f"{hit['median']:.0%}" if hit is not None else "—",
                    replay=replay,
                )
            )
        lines.append("")
        return "\n".join(lines)


def run_matrix(
    workloads: Iterable[WorkloadSpec] | None = None,
    cells: Iterable[MatrixCell] | None = None,
    reps: int = 3,
    seed: int = 0,
    probe_reads: int = 40,
    check_replay: bool = True,
) -> MatrixReport:
    """Sweep the grid; returns the consolidated report.

    Each repetition derives its own trace seed and simulation seed from
    ``seed``, so the whole report is reproducible from its header.
    ``check_replay`` serialises repetition 0 of every cell through the
    JSONL codec and requires the replayed meter to match byte for byte.
    """
    workload_list = list(workloads) if workloads is not None else default_workloads()
    cell_list = list(cells) if cells is not None else default_cells()
    if reps < 1:
        raise ValueError(f"need at least one repetition, got {reps}")

    grid: list[CellReport] = []
    for spec in workload_list:
        for cell in cell_list:
            rep_metrics = [
                _run_rep(
                    spec,
                    cell,
                    seed=seed,
                    rep=rep,
                    probe_reads=probe_reads,
                    check_replay=check_replay and rep == 0,
                )
                for rep in range(reps)
            ]
            boot_rng = random.Random(f"kalibera:{spec.key}:{cell.key}:{seed}")
            stats: dict = {}
            for metric in rep_metrics[0]:
                if metric == "replay_ok":
                    continue
                values = [m[metric] for m in rep_metrics if metric in m]
                if values:
                    stats[metric] = summarize(values, boot_rng)
            replay_flags = [m["replay_ok"] for m in rep_metrics if "replay_ok" in m]
            grid.append(
                CellReport(
                    workload=spec.key,
                    cell=cell.key,
                    stats=stats,
                    replay_ok=all(replay_flags) if replay_flags else None,
                )
            )
    return MatrixReport(
        seed=seed,
        reps=reps,
        workloads=[
            {
                "key": spec.key,
                "name": spec.workload.name,
                "scale": spec.scale,
                "program": spec.program,
            }
            for spec in workload_list
        ],
        cells=[asdict(cell) for cell in cell_list],
        grid=grid,
    )
