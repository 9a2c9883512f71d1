"""Recorded query measurements: one seeded Q1 / Q2 / Q3 / Q4 on a
4-shard mixed layout, at wave widths 1 and 4.

The literals below were recorded on the commit *before* the worker pool
was deleted and a query's spend became a read of its own meter scope
(two account-wide snapshots and a ``Usage`` diff until then); the one
sequential executor has to reproduce them — result sets, backend spend,
its per-shard and per-backend split, both modeled latencies and the
planner's prediction alike. Every knob is pinned.
"""

from __future__ import annotations

import zlib

import pytest

from repro.aws.account import ConsistencyConfig
from repro.sim import Simulation
from repro.workloads import CombinedWorkload


def measured(concurrency: int) -> dict[str, dict]:
    sim = Simulation(
        "s3+simpledb", seed=5, consistency=ConsistencyConfig.strong(),
        shards=4, placement="mixed", concurrency=concurrency,
        ddb_indexes="name,input", write_batch=1, read_cache="off",
        planner="cost",
    )
    events = CombinedWorkload().generate(seed=7, scale=0.3).events
    sim.store_events(events, collect=False)
    sim.settle()
    engine = sim.query_engine()
    queries = {
        "q1": engine.q1(max(event.subject for event in events)),
        "q2": engine.q2_outputs_of("blast"),
        "q3": engine.q3_descendants_of("blast"),
        "q4": engine.q4_time_range(1, 2),
    }
    return {
        name: dict(
            refs=(
                len(m.refs),
                zlib.crc32("\n".join(ref.encode() for ref in m.refs).encode()),
            ),
            operations=m.operations,
            bytes_out=m.bytes_out,
            per_shard=m.per_shard,
            per_backend=m.per_backend,
            latency=m.latency,
            sequential_latency=m.sequential_latency,
            predicted_cost=m.predicted_cost,
        )
        for name, m in queries.items()
    }


RECORDED = {1: {'q1': {'refs': (1, 2562542879),
            'operations': 1,
            'bytes_out': 139,
            'per_shard': (('pass-prov-01', 1, 139),),
            'per_backend': (('ddb', 1, 139),),
            'latency': 0.02501657009124756,
            'sequential_latency': 0.02501657009124756,
            'predicted_cost': None},
     'q2': {'refs': (7, 2478284804),
            'operations': 12,
            'bytes_out': 696,
            'per_shard': (('pass-prov-00', 3, 104),
                          ('pass-prov-01', 3, 387),
                          ('pass-prov-02', 3, 32),
                          ('pass-prov-03', 3, 173)),
            'per_backend': (('ddb', 6, 560), ('sdb', 6, 136)),
            'latency': 0.32008296966552735,
            'sequential_latency': 0.32008296966552735,
            'predicted_cost': 1.8104008188139472e-05},
     'q3': {'refs': (14, 2441595749),
            'operations': 20,
            'bytes_out': 1393,
            'per_shard': (('pass-prov-00', 5, 219),
                          ('pass-prov-01', 5, 590),
                          ('pass-prov-02', 5, 209),
                          ('pass-prov-03', 5, 375)),
            'per_backend': (('ddb', 10, 965), ('sdb', 10, 428)),
            'latency': 0.5501660585403442,
            'sequential_latency': 0.5501660585403442,
            'predicted_cost': 3.388423252123562e-05},
     'q4': {'refs': (220, 2206798429),
            'operations': 10,
            'bytes_out': 117290,
            'per_shard': (('pass-prov-00', 1, 1696),
                          ('pass-prov-01', 4, 55014),
                          ('pass-prov-02', 1, 1739),
                          ('pass-prov-03', 4, 58841)),
            'per_backend': (('ddb', 8, 113855), ('sdb', 2, 3435)),
            'latency': 0.27398205757141114,
            'sequential_latency': 0.27398205757141114,
            'predicted_cost': 3.767302464406491e-05}},
 4: {'q1': {'refs': (1, 2562542879),
            'operations': 1,
            'bytes_out': 139,
            'per_shard': (('pass-prov-01', 1, 139),),
            'per_backend': (('ddb', 1, 139),),
            'latency': 0.02501657009124756,
            'sequential_latency': 0.02501657009124756,
            'predicted_cost': None},
     'q2': {'refs': (7, 2478284804),
            'operations': 12,
            'bytes_out': 696,
            'per_shard': (('pass-prov-00', 3, 104),
                          ('pass-prov-01', 3, 387),
                          ('pass-prov-02', 3, 32),
                          ('pass-prov-03', 3, 173)),
            'per_backend': (('ddb', 6, 560), ('sdb', 6, 136)),
            'latency': 0.08501239776611327,
            'sequential_latency': 0.32008296966552735,
            'predicted_cost': 1.8104008188139472e-05},
     'q3': {'refs': (14, 2441595749),
            'operations': 20,
            'bytes_out': 1393,
            'per_shard': (('pass-prov-00', 5, 219),
                          ('pass-prov-01', 5, 590),
                          ('pass-prov-02', 5, 209),
                          ('pass-prov-03', 5, 375)),
            'per_backend': (('ddb', 10, 965), ('sdb', 10, 428)),
            'latency': 0.15003349781036376,
            'sequential_latency': 0.5501660585403442,
            'predicted_cost': 3.388423252123562e-05},
     'q4': {'refs': (220, 2206798429),
            'operations': 10,
            'bytes_out': 117290,
            'per_shard': (('pass-prov-00', 1, 1696),
                          ('pass-prov-01', 4, 55014),
                          ('pass-prov-02', 1, 1739),
                          ('pass-prov-03', 4, 58841)),
            'per_backend': (('ddb', 8, 113855), ('sdb', 2, 3435)),
            'latency': 0.10701439380645753,
            'sequential_latency': 0.27398205757141114,
            'predicted_cost': 3.767302464406491e-05}}}


@pytest.mark.parametrize("concurrency", sorted(RECORDED))
def test_recorded_measurements_reproduce(concurrency):
    assert measured(concurrency) == RECORDED[concurrency]
