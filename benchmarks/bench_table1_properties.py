"""Table 1 — properties comparison (paper §3/§4, Table 1).

Regenerates the property matrix by *measurement*: crash injection for
atomicity, adversarial eventual consistency for consistency, crash-at-
every-boundary for causal ordering, and live operation counting for
efficient query. Asserts every cell equals the paper's, and benchmarks
the per-architecture evaluation cost.
"""

import pytest

from repro.analysis.report import TextTable, check_mark
from repro.properties import PAPER_TABLE1, evaluate_architecture

from conftest import save_result

ARCHITECTURES = ("s3", "s3+simpledb", "s3+simpledb+sqs")


@pytest.fixture(scope="module")
def reports():
    return {name: evaluate_architecture(name, seed=101) for name in ARCHITECTURES}


def test_render_table1(benchmark, reports):
    benchmark(lambda: [evaluate_architecture('s3', seed=303)])
    table = TextTable(
        ["Architecture", "Atomicity", "Consistency", "Causal Ordering", "Efficient Query"],
        title="Table 1: properties comparison (measured)",
    )
    for name in ARCHITECTURES:
        report = reports[name]
        table.add_row(
            name,
            check_mark(report.atomicity),
            check_mark(report.consistency),
            check_mark(report.causal_ordering),
            check_mark(report.efficient_query),
        )
    lines = [table.render(), "", "paper's Table 1:"]
    for name in ARCHITECTURES:
        expected = PAPER_TABLE1[name]
        lines.append(
            f"  {name:18s} "
            + "  ".join(check_mark(v) for v in expected)
        )
    lines.append("")
    for name in ARCHITECTURES:
        lines.append(f"{name} evidence:")
        for key, detail in reports[name].details.items():
            lines.append(f"  {key}: {detail}")
    save_result("table1_properties", "\n".join(lines))
    for name in ARCHITECTURES:
        assert reports[name].matches_paper(), reports[name].details


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_bench_property_evaluation(benchmark, architecture):
    """Benchmark: full property evaluation of one architecture."""
    report = benchmark.pedantic(
        evaluate_architecture,
        args=(architecture,),
        kwargs={"seed": 202},
        rounds=1,
        iterations=1,
    )
    assert report.matches_paper()
