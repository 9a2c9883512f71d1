"""Scale curves of the perf harness's workloads (ROADMAP item 4c).

    python3 benchmarks/scale_curve.py                      # print, write nothing
    python3 benchmarks/scale_curve.py --label after --out benchmarks/scale_curve.json
    make scale-curve LABEL=after

Runs ``harness.run_cycle(spec.shrunk(k), seed)`` — the benchmark's own
cycle, imported read-only from ``benchmarks/perf`` — for each workload
at each scale ``k`` (default ×1 / ×4 / ×16 of the workload's input),
every point in a fresh process so its peak RSS is its own. A point is
the median of three cycles: one cycle at ×16 can hold a full garbage
collection of the whole heap or not (half a second either way on
``query-ddb-mixed``'s Q4), enough to move a fitted exponent by 0.1.
Each point records, host time at the harness's reference machine speed:

* ``items_stored`` — items the closing migration moved (every
  provenance item the cycle stored);
* ``ingest_us_per_event``, ``migrate_us_per_item``;
* ``q1_all_us_per_item`` and per-result ``q2`` / ``q3`` / ``q4`` µs,
  each over a query round's results (from the harness's plan);
* ``peak_rss_mb`` of the point's process;
* ``parse_misses`` — query expressions parsed afresh over the point's
  cycles (the growth of ``parse_query.cache_info().misses``, a cache of
  ``PARSE_CACHE_SIZE`` statements): where a point outgrows the cache,
  its queries pay the tokenizer again.

Per workload it fits, for each phase, the least-squares slope of
log(host µs the phase takes) on log(items stored) — 1.0 is linear, and
the item-4c gate for page reads and point operations is about 1.1 —
and for ``peak_rss_mb`` the same slope of the RSS itself.

With ``--out`` the run is merged into that JSON file under ``--label``
(the other labels it holds are kept), so one file carries a change's
curve beside its parent's: run the script in each tree with its own
label and the same ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "perf")]

import harness
from specs import BY_NAME, WORKLOADS

from repro.aws.sdb_query import parse_query

#: Cycles each point runs; its values are their medians.
POINT_CYCLES = 3

#: The harness seed every point runs (recorded in the run header).
SEED = 0

#: Phases whose host time is fitted against items stored.
PHASES = ("ingest", "q1_all", "q2", "q3", "q4", "migrate")


def _results(plan: harness.Plan, spec) -> dict[str, float]:
    """Results one query round serves, per phase, averaged over rounds
    (Q2 and Q3 are issued ``repeats`` times a round)."""
    per_round = []
    for round_plan in plan.rounds:
        counts = dict.fromkeys(("q1_all", "q2", "q3", "q4"), 0)
        for key, refs in round_plan.expected.items():
            repeats = spec.repeats if key[0] in ("q2", "q3") else 1
            counts[key[0]] += len(refs) * repeats
        per_round.append(counts)
    return {kind: statistics.fmean(c[kind] for c in per_round) for kind in per_round[0]}


def _phase_seconds(cycle: harness.CycleSample) -> dict[str, float]:
    """Host seconds each phase took in one cycle (queries: per round)."""

    def per_round(seconds_of) -> float:
        return statistics.fmean(seconds_of(r) for r in cycle.rounds)

    return {
        "ingest": cycle.ingest_s,
        # A round's seconds are its probes, its closure queries and q1_all.
        "q1_all": per_round(
            lambda r: r.seconds - sum(r.q1_us) / 1e6 - r.q2_s - r.q3_s - r.q4_s
        ),
        "q2": per_round(lambda r: r.q2_s),
        "q3": per_round(lambda r: r.q3_s),
        "q4": per_round(lambda r: r.q4_s),
        "migrate": cycle.migrate_s,
    }


def point(workload: str, scale: float) -> dict:
    """One point of a curve, measured in this process."""
    spec = BY_NAME[workload].shrunk(scale)
    results = _results(harness.build_plan(spec, SEED), spec)
    misses = parse_query.cache_info().misses
    cycles = [harness.run_cycle(spec, SEED) for _ in range(POINT_CYCLES)]
    misses = parse_query.cache_info().misses - misses
    failures = [failure for cycle in cycles for failure in cycle.failures]
    if failures:
        raise SystemExit(f"{workload} x{scale}: {failures[:5]}")
    seconds = {
        phase: statistics.median(_phase_seconds(c)[phase] for c in cycles)
        for phase in PHASES
    }
    cycle = cycles[0]
    units = {
        "ingest": cycle.ingest_events,
        "migrate": cycle.migrate_items,
        **results,
    }
    per_unit = {
        "ingest": "ingest_us_per_event",
        "migrate": "migrate_us_per_item",
        "q1_all": "q1_all_us_per_item",
        "q2": "q2_us_per_result",
        "q3": "q3_us_per_result",
        "q4": "q4_us_per_result",
    }
    return {
        "scale": scale,
        "items_stored": cycle.migrate_items,
        "phase_s": seconds,
        **{per_unit[p]: seconds[p] * 1e6 / units[p] for p in PHASES if units[p]},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "parse_misses": misses,
    }


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(ys) on log(xs)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sum(
        (x - mx) ** 2 for x in lx
    )


def curve(workload: str, scales: list[float]) -> dict:
    """Every point of one workload's curve, each from its own process,
    one after the other, and the fitted exponents."""
    points = []
    for scale in scales:
        done = subprocess.run(
            [sys.executable, __file__, "--point", workload, str(scale)],
            capture_output=True, text=True, check=True,
        )
        points.append(json.loads(done.stdout.splitlines()[-1]))
        print(f"  {workload} x{scale}: {points[-1]}", file=sys.stderr)
    items = [p["items_stored"] for p in points]
    exponents = {
        phase: round(slope(items, [p["phase_s"][phase] for p in points]), 3)
        for phase in PHASES
        if all(p["phase_s"][phase] > 0 for p in points)
    }
    exponents["peak_rss_mb"] = round(slope(items, [p["peak_rss_mb"] for p in points]), 3)
    return {"points": points, "exponents": exponents}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scales", default="1,4,16", help="comma-separated factors")
    parser.add_argument("--workloads", nargs="*", help="default: all four")
    parser.add_argument("--label", default="current", help="the run's key in --out")
    parser.add_argument("--out", help="JSON file to merge the run into (default: none)")
    parser.add_argument("--point", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # One CPU, as benchmarks/perf/run.py pins itself.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.point:
        workload, scale = args.point
        print(json.dumps(point(workload, float(scale))))
        return 0

    scales = [float(s) for s in args.scales.split(",")]
    workloads = args.workloads or [spec.name for spec in WORKLOADS]
    run = {
        "seed": SEED,
        "scales": scales,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "curves": {w: curve(w, scales) for w in workloads},
    }
    print(json.dumps({w: c["exponents"] for w, c in run["curves"].items()}, indent=1))
    if args.out:
        out = Path(args.out)
        document = json.loads(out.read_text()) if out.exists() else {}
        document.setdefault("about", __doc__.split("\n\n")[0])
        document.setdefault("runs", {})[args.label] = run
        out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
