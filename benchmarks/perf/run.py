"""Run one benchmark workload in its own process and print its metrics.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see ``BENCHMARK.json``). Standard output ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are the same numbers as a table plus the run's context
(resolved configuration, seed, Python, ``nproc``, sample counts). The
exit code is non-zero when any operation failed or any result was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    # The knobs are pinned per workload; the CI knob-variant passes export
    # REPRO_* defaults, which must not reach the simulator through any path.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    # One CPU: under the GIL the two scatter threads of a concurrency=2
    # workload cannot run in parallel anyway, and cross-CPU GIL hand-offs
    # made their timings bimodal (±25% between cycles) on the 2-core box.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import harness
    from specs import BY_NAME
    from tracer import dump_spans

    # Importing the simulator is set-up a user pays once per process.
    import_s = time.perf_counter() - started

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans-out",
        metavar="FILE",
        help="with --trace 1: write the last traced cycle's spans as JSON lines",
    )
    args = parser.parse_args(argv)

    spec = BY_NAME[args.workload]
    report = harness.measure(
        spec, args.seed, args.seconds, trace=bool(args.trace), import_s=import_s
    )
    if args.spans_out and report.spans:
        dump_spans(report.spans, args.spans_out)

    context = {
        "workload": spec.name,
        "config": spec.config(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "machine_slowness_min_median_max": report.machine_slowness,
        "samples": report.samples,
        "failures": report.failures[:20],
    }
    if report.top_layers:
        context["top_layers_by_self_s"] = [
            {"layer": layer, "self_s": seconds} for layer, seconds in report.top_layers
        ]
    print(json.dumps({"context": context}))
    for name, value in report.metrics.items():
        unit, better = report.units[name]
        print(f"{harness.plane(name):4s} {name:40s} {value:>16.6g} {unit:6s} ({better} is better)")
    print(json.dumps(report.result()))
    return 0 if not report.failures else 1


if __name__ == "__main__":
    sys.exit(main())
