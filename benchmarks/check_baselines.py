"""CI perf-regression gate: metered query totals vs committed baselines.

The whole evaluation is denominated in what the simulated AWS services
meter, so a change that silently alters an operation or byte count is a
perf (and cost) regression even when every result set is still correct.
This script freezes the key totals — Q1/Q2/Q3 operations and bytes_out
at shards ∈ {1, 4} over a fixed seeded workload, for the all-SimpleDB
placement (the paper baseline, keys ``shards=N/...``) and for the
DynamoDB placement in both access regimes (Scan-served ``ddb-scan/...``
and GSI-served ``ddb-gsi/...``, the latter also pinning the write
path's index write-unit amplification) — into
``benchmarks/baselines.json`` and fails when a run drifts from the
committed numbers. The ``migration/...`` keys additionally pin the
online-migration headline totals (items copied, double-writes, WAL
records captured/replayed, cutover epochs, and overhead ops/bytes) for
a grow-under-traffic and an sdb→ddb-flip-with-GSI-backfill scenario, so
a change to the live protocol's request streams is just as visible in
review as a query-path drift. The ``group-commit/wb=N`` keys pin the
batched A3 write path's request totals at widths 1/8/25 — the wb=1 row
is the meter-identity sentinel for the legacy single-request path.

Usage::

    PYTHONPATH=src python benchmarks/check_baselines.py            # gate
    PYTHONPATH=src python benchmarks/check_baselines.py --write    # rebaseline

``make bench-check`` runs the gate; CI runs it as the ``bench-gate``
job. A PR that legitimately changes a metered total must update the
baseline file in the same PR (with ``--write``) so the drift is visible
in review, never silent. The ``read-cache/...`` keys pin the
ElastiCache-tier contract with the knob held both ways: the ``off``
rows are the byte-identity sentinel (zero ``elasticache`` operations,
backend totals identical to the uncached path), and the ``on`` rows
freeze the headline collapse — a repeated Q2/Q3 answers from memoised
ancestry closures with zero backend operations. The ``matrix/*`` keys
pin the ``repro matrix`` quick grid — the new skewed/deep generators'
event streams, the runner's metered totals per cell, and the run-file
replay identity (``replay_ok`` = 1).

The workload and queries are fully deterministic (seeded RNG, MD5 shard
routing, strong consistency), so totals are exact integers — comparison
is equality, not a tolerance band.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

BASELINE_PATH = Path(__file__).parent / "baselines.json"

#: Fixed workload scale — big enough that Q2/Q3 exercise batching and
#: pagination, small enough for a CI gate (a few seconds).
SCALE = 2.0
SEED = 7
PROGRAM = "blast"
SHARD_COUNTS = (1, 4)


def measure() -> dict[str, int]:
    """Run the gate workload and return the metered totals, keyed flat."""
    from repro.aws import billing
    from repro.sim import Simulation
    from repro.workloads import CombinedWorkload

    workload = CombinedWorkload()
    events = list(workload.iter_events(random.Random(f"bench-gate:{SEED}"), SCALE))
    totals: dict[str, int] = {}
    # Placements and index specs pinned per regime. The all-SimpleDB
    # keys keep their historical names so any drift in the paper
    # baseline stays byte-obvious in a diff.
    regimes = (
        ("shards={shards}", "sdb", ""),
        ("ddb-scan/shards={shards}", "ddb", ""),
        ("ddb-gsi/shards={shards}", "ddb", "name,input"),
    )
    for prefix_template, placement, indexes in regimes:
        for shards in SHARD_COUNTS:
            sim = Simulation(
                architecture="s3+simpledb", seed=SEED, shards=shards,
                placement=placement, ddb_indexes=indexes,
            )
            before = sim.account.meter.snapshot()
            sim.store_events(events, collect=False)
            load = sim.account.meter.snapshot() - before
            prefix = prefix_template.format(shards=shards)
            if indexes:
                # Write amplification is part of the regime's contract.
                totals[f"{prefix}/load/index_wcu"] = int(
                    load.write_units(billing.DDB_GSI)
                )
            engine = sim.query_engine()
            q2 = engine.q2_outputs_of(PROGRAM)
            q3 = engine.q3_descendants_of(PROGRAM)
            q1 = engine.q1(q2.refs[0])
            for name, measurement in (("q1", q1), ("q2", q2), ("q3", q3)):
                totals[f"{prefix}/{name}/ops"] = measurement.operations
                totals[f"{prefix}/{name}/bytes_out"] = measurement.bytes_out
                totals[f"{prefix}/{name}/results"] = measurement.result_count
    totals.update(measure_migration(events))
    totals.update(measure_group_commit(events))
    totals.update(measure_read_cache(events))
    totals.update(measure_matrix())
    totals.update(measure_planner())
    return totals


def measure_planner() -> dict[str, int]:
    """Query-planner totals with the knob pinned each way (``planner/*``).

    Runs the two planner rows of the compare matrix (deep lineage and
    the incremental-compile time-range workload) on the composite-GSI
    DynamoDB cell under ``planner ∈ {off, first-fit, cost}`` and
    freezes operations, read units (doubled to stay integral), and
    metered/predicted spend in nano-USD. The ``off`` rows are the
    byte-identity sentinel for the default path; ``off_env_identity``
    additionally pins that an explicit ``"off"`` and an unset knob
    build meter-identical engines. The ff-vs-cost rows make the
    planner's contract — never more expensive, strictly cheaper where a
    range slice beats a whole-partition read — a reviewable diff.
    """
    from repro.bench.matrix import Q4_VERSION_RANGE, default_cells, default_workloads
    from repro.sim import Simulation

    specs = {s.key: s for s in default_workloads()}
    cell = next(c for c in default_cells() if c.key == "ddb-planner-cost-4")

    def run(workload_key: str, planner: str | None) -> dict[str, int]:
        spec = specs[workload_key]
        rng = spec.rep_rng(SEED, 0)
        timed = list(spec.workload.iter_timed_events(rng, spec.scale))
        sim = Simulation(
            cell.architecture, seed=SEED,
            deployment=replace(cell.deployment, planner=planner),
        )
        sim.store_timed_events(timed, collect=False)
        engine = sim.query_engine()
        before = sim.account.meter.snapshot()
        q2 = engine.q2_outputs_of(spec.program)
        q3 = engine.q3_descendants_of(spec.program)
        q4 = engine.q4_time_range(*Q4_VERSION_RANGE)
        spent = sim.account.meter.snapshot() - before
        predicted = [
            m.predicted_cost for m in (q2, q3, q4) if m.predicted_cost is not None
        ]
        return {
            "q2_ops": q2.operations,
            "q3_ops": q3.operations,
            "q4_ops": q4.operations,
            "q4_results": q4.result_count,
            "q4_ru_x2": int(q4.usage.read_units() * 2),
            "metered_nanousd": int(
                round(sim.account.prices.cost(spent).total * 1e9)
            ),
            "predicted_nanousd": (
                int(round(sum(predicted) * 1e9)) if predicted else 0
            ),
        }

    totals: dict[str, int] = {}
    for workload_key in ("deep-lineage", "time-range"):
        rows = {mode: run(workload_key, mode) for mode in ("off", "first-fit", "cost")}
        # An unset knob (None → off) must meter exactly like the
        # explicit "off" — the sentinel that keeps the default path
        # byte-identical no matter how the knob is plumbed.
        totals[f"planner/{workload_key}/off_env_identity"] = int(
            run(workload_key, None) == rows["off"]
        )
        for mode, row in rows.items():
            for metric, value in row.items():
                totals[f"planner/{workload_key}/{mode}/{metric}"] = value
    return totals


def measure_matrix() -> dict[str, int]:
    """Matrix-runner totals over the reduced CI grid (``matrix/*`` keys).

    One repetition of the ``--quick`` grid (Zipfian fleet + deep
    lineage × sdb-1 / sdb-4-cache) pins the new generators' event
    streams and the runner's load/query/probe request totals. The
    ``replay_ok`` rows freeze the replay honesty check: repetition 0,
    written to a run file and replayed from that file alone, must
    meter exactly what the capture metered (1 = held).
    """
    from repro.bench.matrix import quick_cells, quick_workloads, run_matrix

    report = run_matrix(
        quick_workloads(scale=0.5), quick_cells(), reps=1, seed=SEED, probe_reads=16
    )
    totals: dict[str, int] = {}
    metrics = (
        "events", "load_ops", "load_bytes_in",
        "q2_ops", "q2_results", "q3_ops", "q3_results", "probe_ops",
    )
    for entry in report.grid:
        prefix = f"matrix/{entry.workload}/{entry.cell}"
        totals[f"{prefix}/replay_ok"] = int(bool(entry.replay_ok))
        for metric in metrics:
            totals[f"{prefix}/{metric}"] = int(entry.stats[metric]["median"])
    return totals


def measure_group_commit(events) -> dict[str, int]:
    """Batched write-path totals at the three headline widths.

    The ``wb=1`` row doubles as the meter-identity sentinel: it must
    stay byte-identical to what the pre-batching A3 write path spent,
    so any accidental change to the legacy single-request path shows up
    here even with batching off everywhere else.
    """
    from repro.aws import billing
    from repro.sim import Simulation

    sample = events[: len(events) // 2]
    totals: dict[str, int] = {}
    for width in (1, 8, 25):
        sim = Simulation(
            architecture="s3+simpledb+sqs", seed=SEED,
            write_batch=width, commit_threshold=1000,
        )
        before = sim.account.meter.snapshot()
        sim.store_events(sample, collect=False)
        load = sim.account.meter.snapshot() - before
        prefix = f"group-commit/wb={width}"
        totals[f"{prefix}/ops"] = load.request_count()
        totals[f"{prefix}/sdb_ops"] = load.request_count(billing.SDB)
        totals[f"{prefix}/sqs_ops"] = load.request_count(billing.SQS)
    return totals


def measure_read_cache(events) -> dict[str, int]:
    """Read-cache tier totals with the knob pinned both ways.

    The mode is passed explicitly (``off``/``on``). The ``off`` rows are the
    byte-identity sentinel — zero cache operations, backend totals
    equal on first and repeated runs. The ``on`` rows freeze the
    headline collapse: the repeated Q2/Q3 answers entirely from the
    authority's memoised closures (zero backend operations), and the
    hit counter pins the item-level cache behaviour on the first runs.
    """
    from repro.sim import Simulation

    totals: dict[str, int] = {}
    for mode in ("off", "on"):
        sim = Simulation(
            architecture="s3+simpledb", seed=SEED, shards=4, read_cache=mode,
        )
        sim.store_events(events, collect=False)
        engine = sim.query_engine()
        q2_first = engine.q2_outputs_of(PROGRAM)
        q2_repeat = engine.q2_outputs_of(PROGRAM)
        q3_first = engine.q3_descendants_of(PROGRAM)
        q3_repeat = engine.q3_descendants_of(PROGRAM)
        prefix = f"read-cache/{mode}"
        for name, first, repeat in (
            ("q2", q2_first, q2_repeat),
            ("q3", q3_first, q3_repeat),
        ):
            totals[f"{prefix}/{name}/first_ops"] = first.operations
            totals[f"{prefix}/{name}/repeat_ops"] = repeat.operations
            totals[f"{prefix}/{name}/repeat_cache_ops"] = repeat.cache_operations
            totals[f"{prefix}/{name}/results"] = repeat.result_count
        if mode == "on":
            cache = sim.account.read_cache
            totals[f"{prefix}/hits"] = cache.hits
            totals[f"{prefix}/evictions"] = cache.evictions
    return totals


def measure_migration(events) -> dict[str, int]:
    """Online-migration headline totals under deterministic live traffic.

    Half the workload is stored up front; the rest lands one event per
    state-machine step, so the copy (WAL capture), double-write, and
    catch-up windows all see writes. Strong consistency + seeded
    routing make every counter an exact integer.
    """
    from repro.sharding import ShardRouter
    from repro.sim import Simulation

    scenarios = (
        ("migration/grow-sdb-1to4", dict(shards=1, placement="sdb"),
         dict(shards=4, placement="sdb"), ""),
        ("migration/flip-2sdb-to-2ddb-gsi", dict(shards=2, placement="sdb"),
         dict(shards=2, placement="ddb"), "name,input"),
    )
    totals: dict[str, int] = {}
    for prefix, source, target, indexes in scenarios:
        sim = Simulation(
            architecture="s3+simpledb", seed=SEED, ddb_indexes=indexes, **source
        )
        sim.store_events(events[: len(events) // 2], collect=False)
        migration = sim.start_migration(router=ShardRouter(**target))
        index = len(events) // 2
        while True:
            if index < len(events):
                sim.store.store(events[index])
                index += 1
            if not migration.step():
                break
        while index < len(events):
            sim.store.store(events[index])
            index += 1
        sim.settle()
        report = migration.report
        overhead = report.overhead_usage()
        totals[f"{prefix}/copied"] = report.items_moved
        totals[f"{prefix}/double_writes"] = report.double_writes
        totals[f"{prefix}/wal_records"] = report.wal_records
        totals[f"{prefix}/replayed"] = report.replayed_records
        totals[f"{prefix}/cutover_epochs"] = report.cutover_epochs
        totals[f"{prefix}/scrub_deletes"] = report.scrub_deletes
        totals[f"{prefix}/overhead_ops"] = overhead.request_count()
        totals[f"{prefix}/overhead_bytes_out"] = overhead.transfer_out()
        if indexes:
            totals[f"{prefix}/index_wcu"] = int(report.index_write_units)
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="rewrite baselines.json from this run (commit the diff)",
    )
    args = parser.parse_args(argv)

    totals = measure()
    if args.write:
        BASELINE_PATH.write_text(json.dumps(totals, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(totals)} baseline totals to {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"FAIL: {BASELINE_PATH} missing; run with --write and commit it")
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    drifted = []
    for key in sorted(set(baseline) | set(totals)):
        expected = baseline.get(key)
        actual = totals.get(key)
        if expected != actual:
            drifted.append(f"  {key}: baseline={expected} actual={actual}")
    if drifted:
        print("FAIL: metered totals drifted from benchmarks/baselines.json")
        print("\n".join(drifted))
        print(
            "\nIf the drift is intended, rebaseline in this PR:\n"
            "  PYTHONPATH=src python benchmarks/check_baselines.py --write"
        )
        return 1
    print(f"bench-gate OK: {len(totals)} metered totals match baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
