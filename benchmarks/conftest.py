"""Shared benchmark fixtures and result capture.

Every table/figure benchmark writes its rendered output to
``benchmarks/results/<name>.txt`` as well as stdout, so a run leaves the
regenerated tables on disk to read or diff against the paper.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from repro.workloads import CombinedWorkload, collect_stats

RESULTS_DIR = Path(__file__).parent / "results"

#: Scale for live (store-everything) runs — big enough for shape, small
#: enough to keep the whole bench suite in minutes.
LIVE_SCALE = float(os.environ.get("REPRO_BENCH_LIVE_SCALE", "0.2"))
#: Scale for the analytic paper-scale pass (Table 2/3 projections).
ANALYTIC_SCALE = float(os.environ.get("REPRO_BENCH_ANALYTIC_SCALE", "33.0"))


def save_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


@pytest.fixture(scope="session")
def live_events():
    """A materialised combined trace for live runs."""
    workload = CombinedWorkload()
    return list(workload.iter_events(random.Random("bench-live"), LIVE_SCALE))


@pytest.fixture(scope="session")
def live_stats(live_events):
    return collect_stats(live_events)


@pytest.fixture(scope="session")
def paper_stats():
    """Streamed statistics of the calibrated paper-scale dataset."""
    workload = CombinedWorkload()
    return collect_stats(
        workload.iter_events(random.Random("bench-paper"), ANALYTIC_SCALE)
    )
