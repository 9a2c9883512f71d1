"""cProfile one phase of a perf-harness workload (host plane, by hand).

    python3 benchmarks/profile_phase.py --workload ingest-a3-paper --phase ingest
    make profile W=ingest-a3-paper PHASE=ingest [SEED=1]

ROADMAP aim 1 asks every perf change to start from the profile; this is
the profile. It builds the harness's plan for the workload
(``benchmarks/perf``: same inputs, same pinned knobs, same order of
calls as ``harness.run_cycle``), runs one whole cycle unprofiled to warm
the process up, then runs ``--cycles`` more with the profiler on inside
the chosen phase only:

``ingest``   every ``Simulation.run_workload`` of the cycle (bulk load
             and the write burst between query rounds);
``queries``  every query round (Q2/Q3 per program, the Q4 windows,
             ``q1_all``, the point probes);
``migrate``  the closing online re-shard.

Prints how many operations the profiled calls covered and how many
``json.dumps`` calls each cost (the serialisation count CHANGES.md
quotes), then the top 30 functions by ``tottime`` and by
``cumulative``. Profiled seconds are 2–3× the harness's: read shares
and call counts, not rates.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "perf")]

import harness
from specs import BY_NAME, Q4_RANGES

from repro.sim import Simulation

#: phase -> (plural, singular) of the operation it counts.
PHASES = {
    "ingest": ("events", "event"),
    "queries": ("queries", "query"),
    "migrate": ("items", "item"),
}
TOP = 30


@contextmanager
def _profiling(profiler: cProfile.Profile):
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()


def run_cycle(spec, seed: int, phase: str, profiler: cProfile.Profile | None) -> int:
    """One cycle in ``harness.run_cycle``'s order, ``profiler`` on inside
    ``phase`` only; returns the operations the phase performed (events
    stored, queries answered, or items moved)."""
    plan = harness.build_plan(spec, seed)
    sim = Simulation(spec.architecture, seed=0, **spec.knobs())
    done = 0

    def during(name: str):
        return _profiling(profiler) if profiler and name == phase else nullcontext()

    def ingest(workload, scale: float) -> None:
        nonlocal done
        with during("ingest"):
            stored = sim.run_workload(workload, scale, seed=seed)
        done += stored if phase == "ingest" else 0

    def query_round(round_plan) -> None:
        nonlocal done
        engine = sim.query_engine()
        with during("queries"):
            for program in spec.programs:
                for _ in range(spec.repeats):
                    engine.q2_outputs_of(program)
                    engine.q3_descendants_of(program)
            for lo, hi in Q4_RANGES:
                engine.q4_time_range(lo, hi)
            engine.q1_all()
            for ref in round_plan.probes:
                engine.q1(ref)
        if phase == "queries":
            done += 2 * len(spec.programs) * spec.repeats + len(Q4_RANGES) + 1
            done += len(round_plan.probes)

    for workload, scale in plan.load:
        ingest(workload, scale)
    for index, round_plan in enumerate(plan.rounds):
        if index == 1 and plan.burst is not None:
            ingest(plan.burst, 1.0)
        query_round(round_plan)
    with during("migrate"):
        report = sim.migrate(shards=spec.migrate_to, online=True)
    return report.items_moved if phase == "migrate" else done


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--phase", required=True, choices=PHASES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=3)
    args = parser.parse_args(argv)

    spec = BY_NAME[args.workload]
    run_cycle(spec, args.seed, args.phase, None)  # warm: imports, caches, first-use set-up
    profiler = cProfile.Profile()
    operations = sum(
        run_cycle(spec, args.seed, args.phase, profiler) for _ in range(args.cycles)
    )
    stats = pstats.Stats(profiler)
    units, unit = PHASES[args.phase]
    dumps = sum(
        calls
        for (path, _, name), (_, calls, *_) in stats.stats.items()
        if name == "dumps" and Path(path).parent.name == "json"
    )
    print(
        f"{spec.name} seed={args.seed} phase={args.phase}: profiled {args.cycles} cycles, "
        f"{operations} {units}, {stats.total_tt:.2f} s under the profiler; "
        f"json.dumps {dumps} calls = {dumps / max(operations, 1):.1f} per {unit}"
    )
    stats.strip_dirs()
    for order in ("tottime", "cumulative"):
        stats.sort_stats(order).print_stats(TOP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
