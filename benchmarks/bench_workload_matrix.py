"""Workload × architecture matrix — the consolidated compare sweep.

Runs the ``repro matrix`` grid at a benchmark-friendly scale and
renders one row per (workload, cell): metered load operations (median
with the bootstrap CI), USD, Q2/Q3 closure cost, point-read probe cost,
and — on cache-enabled cells — the probe hit rate. Two claims are
asserted, not just printed:

* every cell's repetition 0, written to a run file, replays from it
  to a **byte-identical** meter (the ``replay_ok`` honesty check);
* Zipfian read probes hit the read cache far more often than uniform
  probes on the *same* cell — skew, not pool size, is what pays for
  the cache tier.
"""

import pytest

from repro.analysis.report import TextTable
from repro.bench.matrix import default_cells, default_workloads, run_matrix

from conftest import save_result

REPS = 3
SEED = 0
PROBE_READS = 40


@pytest.fixture(scope="module")
def matrix_report():
    return run_matrix(
        default_workloads(), default_cells(), reps=REPS, seed=SEED,
        probe_reads=PROBE_READS,
    )


def test_matrix_table(benchmark, matrix_report):
    from repro.bench.matrix import quick_cells, quick_workloads

    benchmark(
        lambda: run_matrix(
            quick_workloads(0.3), quick_cells(), reps=1, probe_reads=8,
            check_replay=False,
        )
    )
    table = TextTable(
        [
            "workload", "cell", "events", "load ops [CI]", "load USD",
            "q2 ops", "q3 ops", "probe ops", "hit rate", "replay",
        ],
        title=f"Workload × architecture matrix (R={REPS}, seed={SEED}, "
        "95% bootstrap CI on medians)",
    )
    for entry in matrix_report.grid:
        load = entry.stats["load_ops"]
        hit = entry.stats.get("probe_hit_rate")
        table.add_row(
            entry.workload,
            entry.cell,
            int(entry.stats["events"]["median"]),
            f"{load['median']:.0f} [{load['ci_low']:.0f}, {load['ci_high']:.0f}]",
            f"{entry.stats['load_usd']['median']:.4f}",
            int(entry.stats["q2_ops"]["median"]),
            int(entry.stats["q3_ops"]["median"]),
            int(entry.stats["probe_ops"]["median"]),
            f"{hit['median']:.0%}" if hit is not None else "-",
            "byte-identical" if entry.replay_ok else "DRIFTED",
        )
    save_result("workload_matrix", table.render())


def test_every_cell_replays_byte_identically(matrix_report):
    drifted = [
        (entry.workload, entry.cell)
        for entry in matrix_report.grid
        if entry.replay_ok is not True
    ]
    assert not drifted, f"run-file replay drifted on cells: {drifted}"


def test_zipfian_hit_rate_far_exceeds_uniform(matrix_report):
    for cell in ("sdb-4-cache", "mixed-4-cache"):
        zipf = matrix_report.cell("zipfian", cell).stats["probe_hit_rate"]
        uniform = matrix_report.cell("uniform-blast", cell).stats["probe_hit_rate"]
        assert zipf["median"] > uniform["median"] + 0.15, (
            f"{cell}: zipfian hit rate {zipf['median']:.0%} not >> "
            f"uniform {uniform['median']:.0%}"
        )
