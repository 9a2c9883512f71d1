"""The benchmark's workloads: one pinned configuration and input shape each.

Every workload drives the same user-visible lifecycle on a fresh
``Simulation`` per cycle — bulk ingest, query rounds, an online
re-shard — because the benchmark contract wants every end-to-end metric
from every workload. What differs is the *configuration* (all seven
knobs pinned here, never read from ``REPRO_*``), the input shape, and
where the measured time goes; ``why`` records which layers that puts to
work and which it bypasses. Sizes are chosen so one cycle takes about
4 s on the 2-core sandbox and a 25 s run fits 5–6 cycles of 2 rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: File-version windows every round asks Q4 for. (2, 3) is the matrix
#: runner's "changed during the rebuild passes" window.
Q4_RANGES: tuple[tuple[int, int], ...] = ((2, 3), (1, 1), (2, 2), (1, 3))

#: Point probes per round — one block, so a block's p99 has twenty
#: samples beyond it.
PROBES_PER_ROUND = 2000

#: Stored objects re-read through ``Simulation.read`` after each cycle.
READ_CHECKS = 25


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    # -- the pinned configuration (architecture + all seven knobs) --------
    architecture: str
    shards: int
    placement: str
    ddb_indexes: str
    write_batch: int
    read_cache: str
    planner: str
    concurrency: int
    # -- input shape --------------------------------------------------------
    #: ``CombinedWorkload`` scale of the bulk load (≈ 940 events per 1.0).
    combined_scale: float
    #: ``DeepLineageWorkload`` chain appended to the load (0 = none).
    chain_length: int
    #: Programs each round runs Q2 and Q3 from.
    programs: tuple[str, ...]
    #: Query rounds per cycle.
    rounds: int
    #: Times a round issues each closure query; with the read cache on,
    #: every issue after the first is a memo hit. Cache workloads also
    #: need ``burst_ops`` > 0, or round 2 would hit round 1's memo only
    #: when the probes happened not to evict it.
    repeats: int
    #: Zipf exponent of the point probes (None = uniform).
    probe_skew: float | None
    #: ``ZipfianFleetWorkload`` ops written between round 1 and round 2.
    burst_ops: int
    #: Shard count the cycle's closing online migration moves to.
    migrate_to: int
    probes: int = PROBES_PER_ROUND

    def knobs(self) -> dict:
        """Keyword arguments pinning every ``Simulation`` knob."""
        return {
            "shards": self.shards,
            "placement": self.placement,
            "ddb_indexes": self.ddb_indexes,
            "write_batch": self.write_batch,
            "read_cache": self.read_cache,
            "planner": self.planner,
            "concurrency": self.concurrency,
        }

    def config(self) -> dict:
        return {"architecture": self.architecture, **self.knobs()}

    def shrunk(self, factor: float) -> "WorkloadSpec":
        """The same shape at toy size (the harness's own tests)."""
        return replace(
            self,
            combined_scale=self.combined_scale * factor,
            chain_length=int(self.chain_length * factor),
            burst_ops=int(self.burst_ops * factor),
            probes=max(20, int(self.probes * factor)),
        )


WORKLOADS: tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="ingest-a3-paper",
        why=(
            "Paper's A3 as shipped (1 SimpleDB domain, width-1 writes): ingest-heavy, "
            "so WAL/SQS, commit daemon and single-item puts carry it; coalescer, "
            "planner, cache, DynamoDB bypassed. Combined x1.3."
        ),
        architecture="s3+simpledb+sqs",
        shards=1,
        placement="sdb",
        ddb_indexes="",
        write_batch=1,
        read_cache="off",
        planner="off",
        concurrency=1,
        combined_scale=1.3,
        chain_length=0,
        programs=("blast",),
        rounds=2,
        repeats=1,
        probe_skew=None,
        burst_ops=0,
        migrate_to=2,
    ),
    WorkloadSpec(
        name="ingest-a2-batched",
        why=(
            "Same write layers used the other way: A2, 4 mixed shards, width-25 batches, "
            "composite GSIs, cache + cost planner. Coalescer, write_plan fan-out, "
            "BatchWriteItem, GSI upkeep; no daemon. Combined x1.8."
        ),
        architecture="s3+simpledb",
        shards=4,
        placement="mixed",
        ddb_indexes="name/nonce+*,type/nonce,name,input",
        write_batch=25,
        read_cache="on",
        planner="cost",
        concurrency=1,
        combined_scale=1.8,
        chain_length=0,
        programs=("blast",),
        rounds=2,
        repeats=2,
        probe_skew=None,
        burst_ops=60,
        migrate_to=8,
    ),
    WorkloadSpec(
        name="query-sdb-cold",
        why=(
            "Query-heavy, every query reaches the backend: 4 SimpleDB shards, cache and "
            "planner off. Engine waves, sdb_query evaluation, query_pages, item decode "
            "dominate. Combined x1.0 + 120-deep chain, 2 rounds."
        ),
        architecture="s3+simpledb",
        shards=4,
        placement="sdb",
        ddb_indexes="",
        write_batch=1,
        read_cache="off",
        planner="off",
        concurrency=1,
        combined_scale=1.0,
        chain_length=120,
        programs=("blast", "as", "step"),
        rounds=2,
        repeats=1,
        probe_skew=None,
        burst_ops=0,
        migrate_to=8,
    ),
    WorkloadSpec(
        name="query-ddb-mixed",
        why=(
            "Reads beside writes on DynamoDB: 4 shards, GSIs name,input (Q4/q1_all scan), "
            "cost planner, cache, 2 scatter threads, Zipf probes, write burst between "
            "2 rounds (invalidations). Combined x1 + 150-deep."
        ),
        architecture="s3+simpledb",
        shards=4,
        placement="ddb",
        ddb_indexes="name,input",
        write_batch=1,
        read_cache="on",
        planner="cost",
        concurrency=2,
        combined_scale=1.0,
        chain_length=150,
        programs=("blast", "as", "step"),
        rounds=2,
        repeats=2,
        probe_skew=1.1,
        burst_ops=100,
        migrate_to=8,
    ),
)

BY_NAME = {spec.name: spec for spec in WORKLOADS}
