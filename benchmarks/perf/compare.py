"""Compare two sets of benchmark runs, one row per (workload, metric).

    python3 benchmarks/perf/compare.py A.json B.json

``A.json``/``B.json`` are sets written by ``sweep.py``. Each row gives
both medians, the ratio B/A (A is the base), the metric's bound from
``BENCHMARK.json``, and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — a set's own spread (interquartile range over median)
  is wider than the bound, so a difference of that size cannot be told
  from noise — unless every run of B reads better than every run of A;
* ``changed``    — a ``sim_*`` metric differs for some seed both sets
  ran: the simulated plane is exact, so any change is a real one;
* ``ok``         — otherwise.

Exits 1 if any row is ``regressed`` or ``changed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def load_set(path: str) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value} over a set's untraced runs."""
    values: dict[tuple[str, str], dict[int, float]] = defaultdict(dict)
    for run in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
        if run["trace"]:
            continue
        for metric, reading in run["result"]["metrics"].items():
            values[run["workload"], metric][run["seed"]] = reading["value"]
    return values


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def worse_by(base: float, other: float, better: str) -> float:
    """Share of ``base`` by which ``other`` is worse (negative = better)."""
    if not base:
        return 0.0
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def verdict(a: dict[int, float], b: dict[int, float], name: str, better: str, bound: float) -> str:
    if name.startswith("sim_") and any(a[seed] != b[seed] for seed in a.keys() & b.keys()):
        return "changed"
    a_values, b_values = list(a.values()), list(b.values())
    if max(spread(a_values), spread(b_values)) > bound:
        if better == "lower":
            all_better = max(b_values) < min(a_values)
        else:
            all_better = min(b_values) > max(a_values)
        return "ok" if all_better else "unresolved"
    if worse_by(statistics.median(a_values), statistics.median(b_values), better) > bound:
        return "regressed"
    return "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", metavar="A.json")
    parser.add_argument("b", metavar="B.json")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    set_a, set_b = load_set(args.a), load_set(args.b)

    print(
        f"{'workload':20s} {'metric':32s} {'median A':>12s} {'median B':>12s} "
        f"{'B/A':>7s} {'bound':>6s} {'spread A':>8s} {'spread B':>8s}  verdict"
    )
    bad = 0
    for workload, name in sorted(set_a.keys() & set_b.keys()):
        if name not in metrics:
            continue
        a, b = set_a[workload, name], set_b[workload, name]
        better, bound = metrics[name]["better"], metrics[name]["bound"]
        median_a = statistics.median(a.values())
        median_b = statistics.median(b.values())
        outcome = verdict(a, b, name, better, bound)
        bad += outcome in ("regressed", "changed")
        print(
            f"{workload:20s} {name:32s} {median_a:12.6g} {median_b:12.6g} "
            f"{median_b / median_a if median_a else 0.0:7.3f} {bound:6.2f} "
            f"{spread(list(a.values())):8.3f} {spread(list(b.values())):8.3f}  {outcome}"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
