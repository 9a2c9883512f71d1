"""Property tests: the matrix workloads are backend- and layout-blind.

Two invariants over the matrix generators (Zipfian fleet, diurnal
burst, deep lineage):

* **placement is invisible to results** — for any seed, Q1/Q2/Q3 return
  identical result sets whether the provenance lives on one SimpleDB
  domain, four, the DynamoDB-style store (scan or GSI), or a mixed
  placement. The generators only emit flush events; if a skewed or
  bursty stream could perturb a backend's result set, the whole matrix
  comparison would be measuring bugs, not architecture.
* **a fleet capture replays to a byte-identical meter** — writing a
  live fleet run to a run file and replaying it from that file alone
  must reproduce the original meter exactly. This is the acceptance bar
  for ``repro matrix``'s ``replay_ok`` column.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import schedule
from repro.fleet import ClientFleet
from repro.sim import Cloud, Simulation
from repro.workloads import (
    DeepLineageWorkload,
    DiurnalBurstWorkload,
    ZipfianFleetWorkload,
)

#: (shards, placement, ddb_indexes) cells compared against the baseline.
CELLS = [
    (4, "sdb", ""),
    (1, "ddb", ""),
    (4, "ddb", ""),
    (4, "ddb", "name,input"),
    (4, "mixed", ""),
]
BASELINE = (1, "sdb", "")

WORKLOAD_KEYS = ["zipfian", "diurnal", "deep"]


def build_workload(key: str, seed: int):
    """A tiny instance of each new generator; returns (workload, program)."""
    if key == "zipfian":
        return ZipfianFleetWorkload(n_tenants=3, keys_per_tenant=6, n_ops=30), "ingest"
    if key == "diurnal":
        inner = ZipfianFleetWorkload(n_tenants=2, keys_per_tenant=4, n_ops=20)
        return DiurnalBurstWorkload(inner=inner), "ingest"
    if key == "deep":
        return DeepLineageWorkload(chain_length=30), "step"
    raise KeyError(key)


def loaded_simulation(events, shards: int, placement: str, ddb_indexes: str):
    sim = Simulation(
        architecture="s3+simpledb",
        seed=99,
        shards=shards,
        placement=placement,
        ddb_indexes=ddb_indexes,
    )
    sim.store_events(events, collect=False)
    return sim


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    key=st.sampled_from(WORKLOAD_KEYS),
    cell=st.sampled_from(CELLS),
)
def test_queries_identical_across_placements_and_shards(seed, key, cell):
    workload, program = build_workload(key, seed)
    events = list(workload.iter_events(random.Random(workload.seed_key(seed))))

    base = loaded_simulation(events, *BASELINE).query_engine()
    placed = loaded_simulation(events, *cell).query_engine()

    assert set(placed.q2_outputs_of(program).refs) == set(
        base.q2_outputs_of(program).refs
    )
    assert set(placed.q3_descendants_of(program).refs) == set(
        base.q3_descendants_of(program).refs
    )
    assert set(placed.q1_all().refs) == set(base.q1_all().refs)
    subject = events[-1].subject
    assert set(placed.q1(subject).refs) == set(base.q1(subject).refs)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    architecture=st.sampled_from(["s3+simpledb", "s3+simpledb+sqs"]),
)
def test_fleet_capture_replays_to_byte_identical_meter(seed, architecture):
    workload = ZipfianFleetWorkload(n_tenants=3, keys_per_tenant=5, n_ops=24)
    events = list(workload.iter_events(random.Random(workload.seed_key(seed))))
    # Flush events are self-contained (each carries its full ancestor
    # bundles), so dealing consecutive chunks across clients is a valid
    # fleet schedule for any workload.
    chunks = [events[i : i + 8] for i in range(0, len(events), 8)]

    capture = ClientFleet(
        n_clients=3,
        architecture=architecture,
        seed=seed,
        shards=2,
    )
    backlogs = capture.scatter(chunks)
    capture.run_round_robin(batch=3)

    # The replay must survive the codec, not just the in-memory lists.
    run = schedule.loads(schedule.dumps(capture, backlogs))
    assert sorted(sum(run.backlogs.values(), []), key=events.index) == events

    replayer = Cloud.from_run(run)
    assert not any(client.backlog for client in replayer.clients.values())
    assert replayer.account.meter.snapshot() == capture.account.meter.snapshot()
