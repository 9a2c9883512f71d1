"""The size audit holds at the end of a cycle of every benchmark workload.

``BENCHMARK.json``'s four workloads pin four configurations
(``benchmarks/perf/specs.py``: architecture + all seven knobs). Each is
driven here through one harness-shaped cycle at a fraction of its input
size — bulk load, a query round, the write burst, a second round, the
closing online re-shard — and afterwards every byte size the two
attribute stores *kept* (item states, GSI projections, per-table /
per-index / per-domain totals, the meter's stored levels) must equal
what ``size_audit()`` measures from scratch.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

from repro.sim import Simulation
from repro.workloads import CombinedWorkload, DeepLineageWorkload, ZipfianFleetWorkload

#: ``specs.py``'s globals (the directory is no package, and is frozen).
SPECS = runpy.run_path(
    str(Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "specs.py")
)


def _query_round(sim, spec) -> None:
    engine = sim.query_engine()
    for program in spec.programs:
        engine.q2_outputs_of(program)
        engine.q3_descendants_of(program)
    for lo, hi in SPECS["Q4_RANGES"]:
        engine.q4_time_range(lo, hi)
    engine.q1_all()


@pytest.mark.parametrize("name", sorted(SPECS["BY_NAME"]))
def test_size_audit_is_empty_after_one_cycle(name):
    spec = SPECS["BY_NAME"][name].shrunk(0.15)
    sim = Simulation(spec.architecture, seed=0, **spec.knobs())
    sim.run_workload(CombinedWorkload(), spec.combined_scale, seed=1)
    if spec.chain_length:
        sim.run_workload(DeepLineageWorkload(chain_length=spec.chain_length), 1.0, seed=1)
    _query_round(sim, spec)
    if spec.burst_ops:
        sim.run_workload(ZipfianFleetWorkload(n_ops=spec.burst_ops), 1.0, seed=1)
    _query_round(sim, spec)
    assert sim.account.simpledb.size_audit() == []
    assert sim.account.dynamodb.size_audit() == []

    sim.migrate(shards=spec.migrate_to, online=True)
    assert sim.account.simpledb.size_audit() == []
    assert sim.account.dynamodb.size_audit() == []
    stored = sim.usage()
    assert stored.stored("simpledb") + stored.stored("dynamodb") > 0  # not vacuous
