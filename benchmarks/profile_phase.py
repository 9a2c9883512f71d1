"""cProfile one phase of a perf-harness workload (host plane, by hand).

    python3 benchmarks/profile_phase.py --workload ingest-a3-paper --phase ingest
    make profile W=ingest-a3-paper PHASE=ingest [SEED=1]

ROADMAP aim 1 asks every perf change to start from the profile; this is
the profile. It builds the harness's plan for the workload
(``benchmarks/perf``: same inputs, same pinned knobs, same order of
calls as ``harness.run_cycle``), runs one whole cycle unprofiled to warm
the process up, then runs ``--cycles`` more with the profiler on inside
the chosen phase only:

``setup``    the harness's set-up, ``harness.build_plan`` and
             ``Simulation(...)`` (timed as ``setup_s``); counts the
             events the plan materialised, which are the events the
             cycle's ingest then stores;
``ingest``   every ``Simulation.run_workload`` of the cycle (bulk load
             and the write burst between query rounds);
``queries``  every query round (Q2/Q3 per program, the Q4 windows,
             ``q1_all``, the point probes);
``migrate``  the closing online re-shard.

Prints how many operations the profiled calls covered and how many
``json.dumps``, ``to_s3_metadata`` and ``build_wal_bundle`` (the A1
metadata and WAL encodings: 0 per event on an A2 ingest, one WAL
bundle per event on A3), ``bundle_from_item`` and ring-hash (``_hash_point``,
an MD5 in ``repro.sharding``) calls, ``Usage`` constructions (meter
snapshots and bills; a query measurement builds its own only when its
``usage`` is read) and ``ObjectRef`` constructions (a PASS object
builds one per version, not per syscall) each cost — the
serialisation, decode, routing, metering and capture counts CHANGES.md
quotes — then the top 30 functions by
``tottime`` and by ``cumulative``. Profiled seconds are 2–3× the
harness's: read shares and call counts, not rates.
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

from repro.aws.billing import Usage
from repro.sim import Simulation

#: phase -> (plural, singular) of the operation it counts.
PHASES = {
    "setup": ("events", "event"),
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
    materialised or stored, queries answered, or items moved)."""
    done = 0

    def during(name: str):
        return _profiling(profiler) if profiler and name == phase else nullcontext()

    with during("setup"):
        plan = harness.build_plan(spec, seed)
        sim = Simulation(spec.architecture, seed=0, **spec.knobs())

    def ingest(workload, scale: float) -> None:
        nonlocal done
        with during("ingest"):
            stored = sim.run_workload(workload, scale, seed=seed)
        done += stored if phase in ("setup", "ingest") else 0

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
        report = sim.migrate(shards=spec.migrate_to)
    return report.items_moved if phase == "migrate" else done


def _mark_usage_constructions() -> None:
    """Route ``Usage.__init__`` through a named function of this file, so
    the profile counts constructions (the dataclass's generated
    ``__init__`` has no file of its own to tell it apart by)."""
    init = Usage.__init__

    def usage_init(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)

    Usage.__init__ = usage_init


def _calls(stats: pstats.Stats, function: str, where: str) -> int:
    """Calls of ``function`` defined in the file or package ``where``."""
    return sum(
        calls
        for (path, _, name), (_, calls, *_) in stats.stats.items()
        if name == function and where in (Path(path).name, Path(path).parent.name)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--phase", required=True, choices=PHASES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=3)
    args = parser.parse_args(argv)

    spec = BY_NAME[args.workload]
    _mark_usage_constructions()
    run_cycle(spec, args.seed, args.phase, None)  # warm: imports, caches, first-use set-up
    profiler = cProfile.Profile()
    operations = sum(
        run_cycle(spec, args.seed, args.phase, profiler) for _ in range(args.cycles)
    )
    stats = pstats.Stats(profiler)
    units, unit = PHASES[args.phase]
    per_op = max(operations, 1)
    dumps = _calls(stats, "dumps", "json")
    s3_metadata = _calls(stats, "to_s3_metadata", "serializer.py")
    wal_bundles = _calls(stats, "build_wal_bundle", "wal.py")
    decodes = _calls(stats, "bundle_from_item", "serializer.py")
    hashes = _calls(stats, "_hash_point", "sharding.py")
    usages = _calls(stats, "usage_init", "profile_phase.py")
    refs = _calls(stats, "__new__", "records.py")
    print(
        f"{spec.name} seed={args.seed} phase={args.phase}: profiled {args.cycles} cycles, "
        f"{operations} {units}, {stats.total_tt:.2f} s under the profiler; "
        f"json.dumps {dumps} calls = {dumps / per_op:.1f} per {unit}; "
        f"to_s3_metadata {s3_metadata} calls = {s3_metadata / per_op:.2f} per {unit}; "
        f"build_wal_bundle {wal_bundles} calls = {wal_bundles / per_op:.2f} per {unit}; "
        f"bundle_from_item {decodes} calls = {decodes / per_op:.2f} per {unit}; "
        f"_hash_point {hashes} calls = {hashes / per_op:.3g} per {unit}; "
        f"Usage {usages} built = {usages / per_op:.3g} per {unit}; "
        f"ObjectRef {refs} built = {refs / per_op:.3g} per {unit}"
    )
    stats.strip_dirs()
    for order in ("tottime", "cumulative"):
        stats.sort_stats(order).print_stats(TOP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
