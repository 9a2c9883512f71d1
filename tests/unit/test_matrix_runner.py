"""The ``repro.bench.matrix`` sweep: grid shape, statistics, honesty.

The matrix is library code the CLI, the benchmark suite, and the
baseline gate all drive, so its contract is pinned here: deterministic
reports, bootstrap CIs that bracket the median, ``replay_ok`` true on
healthy cells, and the headline comparison — Zipfian read probes hit
the cache far more than uniform ones on the *same* cell.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.bench import MatrixCell, WorkloadSpec, run_matrix
from repro.bench.matrix import (
    default_cells,
    default_workloads,
    quick_cells,
    quick_workloads,
    summarize,
)
from repro.cli import main
from repro.deployment import Deployment
from repro.workloads import BlastWorkload, ZipfianFleetWorkload


def tiny_grid():
    return quick_workloads(scale=0.4), quick_cells()


# -- statistics --------------------------------------------------------------


def test_summarize_brackets_the_median():
    stats = summarize([3.0, 1.0, 2.0, 5.0, 4.0], random.Random("ci"))
    assert stats["min"] == 1.0
    assert stats["median"] == 3.0
    assert 1.0 <= stats["ci_low"] <= stats["median"] <= stats["ci_high"] <= 5.0
    assert stats["values"] == [3.0, 1.0, 2.0, 5.0, 4.0]


def test_summarize_is_deterministic():
    values = [7.0, 9.0, 8.0, 11.0]
    assert summarize(values, random.Random("x")) == summarize(
        values, random.Random("x")
    )


def test_summarize_rejects_zero_repetitions():
    with pytest.raises(ValueError):
        summarize([], random.Random("x"))


# -- the sweep ---------------------------------------------------------------


def test_matrix_covers_the_grid_and_replays_byte_identically():
    workloads, cells = tiny_grid()
    report = run_matrix(workloads, cells, reps=2, seed=3, probe_reads=12)

    assert len(report.grid) == len(workloads) * len(cells)
    for entry in report.grid:
        assert entry.replay_ok is True
        for metric in ("events", "load_ops", "load_usd", "q2_ops", "q3_ops",
                       "probe_ops", "q2_latency", "q3_latency"):
            stats = entry.stats[metric]
            assert stats["min"] <= stats["median"]
            assert stats["ci_low"] <= stats["ci_high"]
            assert len(stats["values"]) == 2

    cached = report.cell("zipfian", "sdb-4-cache")
    assert "probe_hit_rate" in cached.stats
    uncached = report.cell("zipfian", "sdb-1")
    assert "probe_hit_rate" not in uncached.stats
    with pytest.raises(KeyError):
        report.cell("zipfian", "no-such-cell")


def test_a1_runs_every_default_workload_beside_the_paper_a2():
    cells = {cell.key: cell for cell in default_cells()}
    workloads = default_workloads()
    report = run_matrix(workloads, [cells["s3-1"], cells["sdb-1"]], reps=1)

    def results(workload: str, cell: str) -> tuple:
        stats = report.cell(workload, cell).stats
        return stats["q2_results"]["median"], stats["q3_results"]["median"]

    for spec in workloads:
        assert report.cell(spec.key, "s3-1").replay_ok is True
    # No name is rewritten: A1 holds every version A2 does.
    assert results("deep-lineage", "s3-1") == results("deep-lineage", "sdb-1") == (120, 120)
    assert results("uniform-blast", "s3-1") == results("uniform-blast", "sdb-1") == (48, 96)
    # Overwrites lose versions on A1 (ROADMAP item 7), never add any.
    for workload in ("zipfian", "diurnal"):
        a1, a2 = results(workload, "s3-1"), results(workload, "sdb-1")
        assert all(mine <= theirs for mine, theirs in zip(a1, a2)), workload


def test_time_range_row_asks_of_a_program_that_writes_files():
    """Its Q2/Q3 time real answers, not an empty lookup: ``as`` writes
    the object files (``cc1`` writes only to a pipe)."""
    spec = next(s for s in default_workloads() if s.key == "time-range")
    cell = next(c for c in default_cells() if c.key == "sdb-1")
    stats = run_matrix([spec], [cell], reps=1).cell("time-range", "sdb-1").stats
    assert stats["q2_results"]["median"] >= 1
    assert stats["q3_results"]["median"] >= stats["q2_results"]["median"]


def test_matrix_report_is_deterministic():
    workloads, cells = tiny_grid()
    report_a = run_matrix(workloads, cells, reps=2, seed=3, probe_reads=12)
    random.seed("adversarial interleaving")
    random.random()
    workloads, cells = tiny_grid()
    report_b = run_matrix(workloads, cells, reps=2, seed=3, probe_reads=12)
    assert report_a.to_json() == report_b.to_json()


def test_matrix_rejects_zero_reps():
    workloads, cells = tiny_grid()
    with pytest.raises(ValueError):
        run_matrix(workloads, cells, reps=0)


def test_markdown_report_renders_every_cell():
    workloads, cells = tiny_grid()
    report = run_matrix(workloads, cells, reps=1, seed=3, probe_reads=8)
    markdown = report.to_markdown()
    assert "byte-identical" in markdown
    for spec in workloads:
        assert spec.key in markdown
    for cell in cells:
        assert cell.key in markdown


def test_zipfian_hit_rate_far_exceeds_uniform():
    """The acceptance headline: skew is what pays for the cache."""
    cells = [MatrixCell("cache", deployment=Deployment(shards=2, read_cache="on"))]
    workloads = [
        WorkloadSpec(
            key="zipfian",
            workload=ZipfianFleetWorkload(
                n_tenants=6, keys_per_tenant=24, n_ops=120, s=1.3
            ),
            program="ingest",
        ),
        WorkloadSpec(
            key="uniform",
            workload=BlastWorkload(n_runs=3, queries_per_run=16),
            program="blast",
        ),
    ]
    report = run_matrix(
        workloads, cells, reps=1, seed=0, probe_reads=40, check_replay=False
    )
    zipf_hit = report.cell("zipfian", "cache").stats["probe_hit_rate"]["median"]
    uniform_hit = report.cell("uniform", "cache").stats["probe_hit_rate"]["median"]
    assert zipf_hit > uniform_hit + 0.15


# -- the CLI -----------------------------------------------------------------


def test_cli_matrix_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(
        [
            "matrix",
            "--quick",
            "--scale",
            "0.4",
            "--reps",
            "1",
            "--probe-reads",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "| workload | cell |" in capsys.readouterr().out
    payload = json.loads((out / "matrix.json").read_text())
    assert payload["reps"] == 1
    assert {entry["workload"] for entry in payload["grid"]} == {
        "zipfian",
        "deep-lineage",
    }
    assert all(entry["replay_ok"] for entry in payload["grid"])
    assert (out / "matrix.md").read_text().startswith("# Workload × architecture")


def test_cli_matrix_rejects_unknown_axis_keys(tmp_path):
    code = main(
        ["matrix", "--quick", "--cells", "no-such-cell", "--out", str(tmp_path)]
    )
    assert code == 2
    assert not (tmp_path / "matrix.json").exists()
