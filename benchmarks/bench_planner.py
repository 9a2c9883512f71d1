"""Cost-based query planner — access-path spend vs the first-fit baseline.

Every scatter phase used to take whatever access path its backend's
first-fit rule produced; with composite hash+range GSIs declared, that
rule still reads a whole hash partition where a range-conditioned Query
would read one version slice. This benchmark runs the two planner-cell
rows of the compare matrix (deep lineage and the incremental-compile
time-range workload) under ``planner ∈ {off, first-fit, cost}`` and
pins the headline claims:

* **identical answers** — every query class returns the same result
  set in all three modes (the planner chooses *how* to read, never
  *what* matches);
* **cost mode never pays more** — metered USD over the planned phases
  is ≤ first-fit on both rows, and *strictly* less on both (the Q4
  version-window slice is the visible win: fewer read units on every
  row, strictly fewer Query requests on the time-range row);
* **predictions are honest** — ``predicted_cost`` lands within
  :data:`~repro.query.planner.PREDICTION_ERROR_BOUND` of the metered
  spend for the planned phases, consult included.
"""

import pytest

from repro.analysis.report import TextTable
from repro.bench.matrix import Q4_VERSION_RANGE, default_cells, default_workloads
from repro.query.planner import PREDICTION_ERROR_BOUND

from conftest import save_result

SEED = 7
MODES = ("off", "first-fit", "cost")
ROWS = ("deep-lineage", "time-range")


def planner_cell(mode):
    """The matrix's cost-planner cell with the mode swapped in."""
    from dataclasses import replace

    base = next(c for c in default_cells() if c.key == "ddb-planner-cost-4")
    return replace(base, key=f"ddb-planner-{mode}-4", planner=mode)


def run_row(spec, mode):
    """One (workload, planner mode) run → per-query results + totals."""
    rng = spec.rep_rng(SEED, 0)
    timed = list(spec.workload.iter_timed_events(rng, spec.scale))
    sim = planner_cell(mode).build_simulation(seed=SEED * 1000)
    sim.store_timed_events(timed)
    engine = sim.query_engine()
    before = sim.usage()
    q2 = engine.q2_outputs_of(spec.program)
    q3 = engine.q3_descendants_of(spec.program)
    q4 = engine.q4_time_range(*Q4_VERSION_RANGE)
    spent = sim.usage() - before
    predicted = [
        m.predicted_cost for m in (q2, q3, q4) if m.predicted_cost is not None
    ]
    return {
        "refs": {"q2": set(q2.refs), "q3": set(q3.refs), "q4": set(q4.refs)},
        "ops": {"q2": q2.operations, "q3": q3.operations, "q4": q4.operations},
        "q4_read_units": q4.usage.read_units(),
        "metered_usd": sim.account.prices.cost(spent).total,
        "predicted_usd": sum(predicted) if predicted else None,
    }


@pytest.fixture(scope="module")
def planner_grid():
    """workload key → mode → run_row results."""
    specs = {s.key: s for s in default_workloads()}
    return {
        key: {mode: run_row(specs[key], mode) for mode in MODES} for key in ROWS
    }


def test_planner_table(benchmark, planner_grid):
    benchmark(
        lambda: run_row(
            next(s for s in default_workloads() if s.key == "time-range"), "cost"
        )
    )
    table = TextTable(
        ["workload", "planner", "q2 ops", "q3 ops", "q4 ops", "q4 RU",
         "metered $ (e-6)", "predicted $ (e-6)", "rel err"],
        title=(
            "Query planner: metered vs predicted spend per mode "
            f"(4 DynamoDB shards, composite GSIs, Q4 window v{Q4_VERSION_RANGE[0]}"
            f"..v{Q4_VERSION_RANGE[1]})"
        ),
    )
    for key in ROWS:
        for mode in MODES:
            row = planner_grid[key][mode]
            predicted = row["predicted_usd"]
            err = (
                abs(predicted - row["metered_usd"]) / row["metered_usd"]
                if predicted is not None
                else None
            )
            table.add_row(
                key, mode,
                row["ops"]["q2"], row["ops"]["q3"], row["ops"]["q4"],
                f"{row['q4_read_units']:.1f}",
                f"{row['metered_usd'] * 1e6:.3f}",
                f"{predicted * 1e6:.3f}" if predicted is not None else "—",
                f"{err:.3f}" if err is not None else "—",
            )
    save_result("planner", table.render())


def test_result_sets_identical_across_modes(planner_grid):
    for key in ROWS:
        base = planner_grid[key]["off"]["refs"]
        for mode in ("first-fit", "cost"):
            assert planner_grid[key][mode]["refs"] == base, (key, mode)


def test_cost_mode_never_pays_more(planner_grid):
    """Cost ≤ first-fit everywhere; strictly cheaper on both rows, with
    the request-count win visible on the multi-page time-range row."""
    for key in ROWS:
        ff = planner_grid[key]["first-fit"]
        cost = planner_grid[key]["cost"]
        assert cost["metered_usd"] < ff["metered_usd"], key
        assert cost["q4_read_units"] < ff["q4_read_units"], key
    assert (
        planner_grid["time-range"]["cost"]["ops"]["q4"]
        < planner_grid["time-range"]["first-fit"]["ops"]["q4"]
    )


def test_predictions_within_bound(planner_grid):
    for key in ROWS:
        for mode in ("first-fit", "cost"):
            row = planner_grid[key][mode]
            err = abs(row["predicted_usd"] - row["metered_usd"]) / row["metered_usd"]
            assert err <= PREDICTION_ERROR_BOUND, (key, mode, err)
        assert planner_grid[key]["off"]["predicted_usd"] is None, key
