"""Run the benchmark as its driver does and save the runs as one set.

    python3 benchmarks/perf/sweep.py --seeds 1-10 --out benchmarks/perf/results/A.json

For every workload in ``BENCHMARK.json`` and every seed, runs the
benchmark's ``command`` with ``--workload/--seed/--seconds/--trace`` in
its own process from the repository root, keeps the result line of
each, and prints each end-to-end metric's median and spread
(interquartile range over median) across the seeds next to its bound.
Two sets of the same commit feed ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from compare import BENCHMARK_JSON, load_benchmark, spread


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"3,5,8"`` -> the seeds to run."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="*", help="default: all")
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    benchmark = load_benchmark()
    seconds = args.seconds or benchmark["run_seconds"]
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    runs = []
    failed = 0
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            command = [*benchmark["command"], "--workload", workload, "--seed", str(seed)]
            command += ["--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(
                command, cwd=BENCHMARK_JSON.parent, capture_output=True, text=True, timeout=900
            )
            if done.returncode != 0:
                failed += 1
                print(f"FAILED {workload} seed={seed}:\n{done.stdout}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "trace": args.trace, "result": result})
            print(f"ran {workload} seed={seed} attempted={result['attempted']}", flush=True)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "runs": runs}, indent=1), encoding="utf-8")

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    print(f"\n{'workload':20s} {'metric':32s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload in workloads:
        mine = [run["result"]["metrics"] for run in runs if run["workload"] == workload]
        for name in mine[0] if mine else ():
            values = [metrics[name]["value"] for metrics in mine]
            bound = bounds.get(name)
            wide = bound is not None and name != "setup_s" and spread(values) > bound / 3
            print(
                f"{workload:20s} {name:32s} {statistics.median(values):12.6g} "
                f"{spread(values):8.4f} {bound if bound is not None else '':>6}"
                f"{'  > bound/3' if wide else ''}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
