"""Table 3 — query comparison (paper §5, Table 3).

Q1 (per-version provenance over all objects), Q2 (outputs of blast),
Q3 (descendants of blast outputs) — measured live on both backends with
costs read from the billing meter, plus the analytic projection at paper
scale. Shape assertions: the S3 scan cost is query-independent and the
indexed backend wins Q2/Q3 by orders of magnitude, while Q1-over-all is
the one query where SimpleDB needs an operation per item.
"""

import pytest

from repro.analysis.query_model import (
    QueryCostRow,
    analytic_query_table,
    render_table3,
    shape_check,
)
from repro.query.engine import SimpleDBEngine
from repro.sim import Simulation

from conftest import save_result


@pytest.fixture(scope="module")
def loaded_backends(live_events):
    scan_sim = Simulation(architecture="s3", seed=13)
    scan_sim.store_events(live_events, collect=False)
    indexed_sim = Simulation(architecture="s3+simpledb", seed=13)
    indexed_sim.store_events(live_events, collect=False)
    return scan_sim, indexed_sim


@pytest.fixture(scope="module")
def measured_rows(loaded_backends):
    scan_sim, indexed_sim = loaded_backends
    scan = scan_sim.query_engine()
    indexed = SimpleDBEngine(indexed_sim.account)
    program = "blast"
    rows = []
    pairs = [
        ("Q1", scan.q1_all(), indexed.q1_all()),
        ("Q2", scan.q2_outputs_of(program), indexed.q2_outputs_of(program)),
        ("Q3", scan.q3_descendants_of(program), indexed.q3_descendants_of(program)),
    ]
    for name, s3_m, sdb_m in pairs:
        rows.append(
            QueryCostRow(
                query=name,
                s3_bytes=s3_m.bytes_out,
                s3_ops=s3_m.operations,
                sdb_bytes=sdb_m.bytes_out,
                sdb_ops=sdb_m.operations,
            )
        )
    return rows


def test_table3_live_measured(benchmark, measured_rows, live_events):
    benchmark(render_table3, measured_rows)
    text = render_table3(
        measured_rows,
        title=f"Table 3 (measured live, {len(live_events)}-object repository)",
    )
    save_result("table3_query_live", text)
    problems = shape_check(measured_rows, min_factor=10)
    assert problems == [], problems


def test_table3_analytic_paper_scale(benchmark, paper_stats):
    rows = benchmark(analytic_query_table, paper_stats)
    text = render_table3(rows, title="Table 3 (analytic, paper scale)")
    save_result("table3_query_analytic", text)
    assert shape_check(rows, min_factor=100) == []
    by_name = {row.query: row for row in rows}
    # The paper's S3 column formula: N_objects + N_spills HEAD/GETs.
    assert by_name["Q1"].s3_ops == paper_stats.n_objects + paper_stats.n_records_gt_1kb
    # Q2/Q3 land in the paper's single-digit / tens-of-ops bands.
    assert by_name["Q2"].sdb_ops <= 12
    assert 10 <= by_name["Q3"].sdb_ops <= 80


def test_query_results_agree_across_backends(benchmark, loaded_backends):
    scan_sim, indexed_sim = loaded_backends
    scan = scan_sim.query_engine()
    indexed = SimpleDBEngine(indexed_sim.account)
    benchmark(indexed.q1, next(iter(indexed.q2_outputs_of('blast').refs)))
    assert set(scan.q2_outputs_of("blast").refs) == set(
        indexed.q2_outputs_of("blast").refs
    )
    assert set(scan.q3_descendants_of("blast").refs) == set(
        indexed.q3_descendants_of("blast").refs
    )


def test_bench_q2_scan(benchmark, loaded_backends):
    scan_sim, _ = loaded_backends
    engine = scan_sim.query_engine()
    measurement = benchmark(engine.q2_outputs_of, "blast")
    assert measurement.result_count > 0


def test_bench_q2_indexed(benchmark, loaded_backends):
    _, indexed_sim = loaded_backends
    engine = SimpleDBEngine(indexed_sim.account)
    measurement = benchmark(engine.q2_outputs_of, "blast")
    assert measurement.result_count > 0


def test_bench_q3_indexed(benchmark, loaded_backends):
    _, indexed_sim = loaded_backends
    engine = SimpleDBEngine(indexed_sim.account)
    measurement = benchmark(engine.q3_descendants_of, "blast")
    assert measurement.result_count > 0
