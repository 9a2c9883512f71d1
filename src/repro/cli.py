"""Command-line interface: regenerate the paper's results from a shell.

    python -m repro properties            # Table 1, measured
    python -m repro storage --scale 1.0   # Table 2 for a generated trace
    python -m repro queries --scale 1.0   # Table 3 (analytic)
    python -m repro figures               # Figures 1-3 as ASCII + DOT
    python -m repro costs --scale 1.0     # USD bill per architecture
    python -m repro advise --scale 0.3    # §7 extension: cloud hints
    python -m repro demo                  # 10-second end-to-end tour
    python -m repro matrix --quick        # workload x architecture sweep
    python -m repro replay RUN.json       # replay a run file: bill + refs

All subcommands are offline and deterministic (--seed).
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Sequence

from repro.analysis.cost import render_cost_table
from repro.analysis.query_model import analytic_query_table, render_table3
from repro.analysis.report import TextTable, check_mark
from repro.analysis.storage_model import render_table2
from repro.core import ARCHITECTURES
from repro.deployment import PLANNER_MODES, positive_int
from repro.units import fmt_bytes, fmt_count
from repro.workloads import CombinedWorkload, collect_stats


def _generate_stats(scale: float, seed: int):
    workload = CombinedWorkload()
    return collect_stats(workload.iter_events(random.Random(f"cli:{seed}"), scale))


def cmd_properties(args: argparse.Namespace) -> int:
    from repro.properties import evaluate_all

    table = TextTable(
        ["architecture", "atomicity", "consistency", "causal ordering",
         "efficient query", "matches paper"],
        title="Table 1: properties comparison (measured)",
    )
    all_match = True
    for report in evaluate_all(seed=args.seed):
        matches = report.matches_paper()
        all_match = all_match and matches
        table.add_row(
            report.architecture,
            check_mark(report.atomicity),
            check_mark(report.consistency),
            check_mark(report.causal_ordering),
            check_mark(report.efficient_query),
            matches,
        )
    print(table.render())
    return 0 if all_match else 1


def cmd_storage(args: argparse.Namespace) -> int:
    stats = _generate_stats(args.scale, args.seed)
    print(
        f"dataset: {fmt_count(stats.n_objects)} objects, "
        f"{fmt_bytes(stats.raw_bytes)} raw data\n"
    )
    print(render_table2(stats, include_paper=not args.no_paper))
    return 0


def cmd_queries(args: argparse.Namespace) -> int:
    stats = _generate_stats(args.scale, args.seed)
    print(render_table3(analytic_query_table(stats), include_paper=not args.no_paper))
    return 0


def cmd_costs(args: argparse.Namespace) -> int:
    stats = _generate_stats(args.scale, args.seed)
    print(render_cost_table(stats))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.graph.diagrams import render_ascii, render_dot
    from repro.sim import Simulation

    architectures = [args.architecture] if args.architecture else list(ARCHITECTURES)
    for index, name in enumerate(architectures, start=1):
        store = Simulation(architecture=name).store
        print(render_ascii(store))
        if args.dot:
            print()
            print(render_dot(store))
        if index != len(architectures):
            print("\n" + "=" * 60 + "\n")
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    from repro.advisor import ProvenanceAdvisor

    workload = CombinedWorkload()
    events = list(
        workload.iter_events(random.Random(f"cli:{args.seed}"), args.scale)
    )
    advisor = ProvenanceAdvisor.from_bundles(
        bundle for event in events for bundle in event.all_bundles()
    )
    dedup = advisor.dedup_report()
    groups = advisor.placement_groups()
    print("provenance-aware cloud hints (§7 extension)")
    print(f"  trace: {len(events)} objects")
    print(
        f"  dedup: {len(dedup)} duplicate-computation groups "
        f"({sum(len(g) - 1 for g in dedup)} redundant objects)"
    )
    print(f"  placement: {len(groups)} co-access groups")
    for source_target, count in advisor.model.transitions.most_common(5):
        print(f"  stage transition {source_target[0]} -> {source_target[1]}: x{count}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.graph.export import lineage_dot, prov_json_dumps
    from repro.passlib.records import ObjectRef

    workload = CombinedWorkload()
    bundles = [
        bundle
        for event in workload.iter_events(
            random.Random(f"cli:{args.seed}"), args.scale
        )
        for bundle in event.all_bundles()
    ]
    if args.format == "prov-json":
        print(prov_json_dumps(bundles))
    else:
        focus = ObjectRef.decode(args.focus) if args.focus else None
        print(lineage_dot(bundles, focus=focus))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.deployment import Deployment
    from repro.migration import parse_migration_spec
    from repro.passlib.capture import PassSystem
    from repro.sim import Simulation

    try:
        # Every flag is checked before anything runs: a malformed spec
        # prints nothing on stdout.
        migration = parse_migration_spec(args.migrate) if args.migrate else None
        deployment = Deployment(
            shards=args.shards, placement=args.backend,
            ddb_indexes=args.ddb_indexes, concurrency=args.concurrency,
            write_batch=args.write_batch, read_cache=args.read_cache,
            planner=args.planner,
        )
        sim = Simulation(args.architecture or "s3+simpledb+sqs", seed=args.seed,
                         deployment=deployment)
    except ValueError as exc:  # e.g. a malformed --backend/--migrate spec
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A1 keeps provenance in object metadata: no domain to shard, place
    # or migrate.
    has_domain = sim.store_class.has_provenance_domain
    if args.shards > 1:
        if not has_domain:
            print("note: --shards has no effect on the s3 architecture "
                  "(provenance lives in object metadata, not SimpleDB)")
        else:
            print(
                f"provenance domain sharded {args.shards} ways: "
                f"{', '.join(sim.store.router.domains)}"
            )
    router = sim.store.router
    if has_domain and router.uses_backend("ddb"):
        placed = ", ".join(
            f"{domain}->{kind}" for domain, kind in router.placement_by_domain().items()
        )
        print(f"heterogeneous shard placement: {placed}")
        ddb_backend = sim.account.provenance_backends()["ddb"]
        if ddb_backend.index_specs:
            declared = ", ".join(
                f"{spec.name}({spec.key_attribute}; projects "
                f"{'+'.join(sorted(spec.projected_attributes))})"
                for spec in ddb_backend.index_specs
            )
            print(f"DDB global secondary indexes: {declared}")
    pas = PassSystem(workload="demo")
    pas.stage_input("demo/input.csv", b"x,y\n1,2\n")
    with pas.process("analyze", argv="--quick") as proc:
        proc.read("demo/input.csv")
        proc.write("demo/output.csv", b"sum\n3\n")
        proc.close("demo/output.csv")
    stored = sim.store_events(pas.drain_flushes())
    result = sim.read("demo/output.csv")
    print(f"stored {stored} objects via {sim.architecture}")
    print(f"read back {result.subject.encode()} consistent={result.consistent}")
    for record in result.bundle.records:
        print(f"  {record}")
    engine = sim.query_engine()
    outputs = engine.q2_outputs_of("analyze")
    mode = (
        f"concurrency={engine.concurrency}"
        if engine.concurrency > 1
        else "sequential"
    )
    print(
        f"Q2 outputs-of(analyze): {outputs.result_count} file(s), "
        f"{outputs.operations} ops, modeled latency "
        f"{outputs.latency * 1000:.0f} ms ({mode}; one-at-a-time "
        f"{outputs.sequential_latency * 1000:.0f} ms)"
    )
    if outputs.predicted_cost is not None:
        metered = sim.account.prices.cost(outputs.usage).total
        print(
            f"Q2 planner={engine.planner_mode}: predicted "
            f"${outputs.predicted_cost:.8f} vs metered ${metered:.8f}"
        )
    cache = sim.account.read_cache
    if cache is not None:
        repeat = sim.query_engine().q2_outputs_of("analyze")
        print(
            f"Q2 repeated with read cache: {repeat.operations} backend "
            f"op(s) + {repeat.cache_operations} cache op(s) "
            f"(hits {cache.hits}, misses {cache.misses}, "
            f"evictions {cache.evictions}, "
            f"{cache.stored_nbytes()}B cached)"
        )
    if migration is not None and not has_domain:
        print("note: --migrate has no effect on the s3 architecture "
              "(provenance lives in object metadata, not a shard layout)")
    elif migration is not None:
        report = sim.migrate(**migration)
        print(
            f"online migration -> shards={sim.store.router.shards} "
            f"(epoch {sim.store.routing.epoch}): "
            f"{report.items_moved} copied, {report.items_kept} kept"
        )
        print(
            f"  double-writes {report.double_writes}, WAL replays "
            f"{report.replayed_records}, cutover epochs "
            f"{report.cutover_epochs}, verification reads "
            f"{report.verification_reads}"
        )
        for label, amount in report.cost_lines(sim.account.prices):
            if amount:
                print(f"  {label}  ${amount:.6f}")
        followup = sim.query_engine().q2_outputs_of("analyze")
        print(
            f"Q2 after migration: {followup.result_count} file(s), "
            f"{followup.operations} ops across "
            f"{len(followup.per_shard)} shard store(s)"
        )
    print(sim.bill())
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    import os

    from repro.bench.matrix import (
        default_cells,
        default_workloads,
        quick_cells,
        quick_workloads,
        run_matrix,
    )

    if args.quick:
        specs, cells = quick_workloads(args.scale), quick_cells()
    else:
        specs, cells = default_workloads(args.scale), default_cells()
    if args.workloads:
        wanted = set(args.workloads.split(","))
        unknown = wanted - {spec.key for spec in specs}
        if unknown:
            print(f"unknown workload key(s): {sorted(unknown)}", file=sys.stderr)
            return 2
        specs = [spec for spec in specs if spec.key in wanted]
    if args.cells:
        wanted = set(args.cells.split(","))
        unknown = wanted - {cell.key for cell in cells}
        if unknown:
            print(f"unknown cell key(s): {sorted(unknown)}", file=sys.stderr)
            return 2
        cells = [cell for cell in cells if cell.key in wanted]

    report = run_matrix(
        specs,
        cells,
        reps=args.reps,
        seed=args.seed,
        probe_reads=args.probe_reads,
        check_replay=not args.no_replay_check,
    )
    print(report.to_markdown())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        json_path = os.path.join(args.out, "matrix.json")
        md_path = os.path.join(args.out, "matrix.md")
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        with open(md_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_markdown())
        print(f"wrote {json_path} and {md_path}")
    if any(entry.replay_ok is False for entry in report.grid):
        print("FAIL: a cell's run-file replay drifted from its capture meter",
              file=sys.stderr)
        return 1
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.errors import ScheduleFormatError
    from repro.schedule import loads
    from repro.sim import Cloud

    try:
        with open(args.file, encoding="utf-8") as handle:
            cloud = Cloud.from_run(loads(handle.read()))
    except (OSError, ScheduleFormatError) as error:
        print(f"{args.file}: {error}", file=sys.stderr)
        return 2
    print(cloud.account.bill())
    print(f"stored provenance: {len(cloud.stores()[0].stored_provenance())} refs")
    return 0


def _positive_int(noun: str):
    """An argparse type validating an int >= 1, naming ``noun`` on error."""

    def parse(text: str) -> int:
        try:
            return positive_int(int(text) if text.strip().isdecimal() else text, noun)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_shard_count = _positive_int("shard count")
_worker_count = _positive_int("concurrency")
_batch_width = _positive_int("write batch")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Making a Cloud Provenance-Aware' (TaPP '09)",
    )
    parser.add_argument("--seed", type=int, default=0, help="deterministic seed")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("properties", help="Table 1 (measured)").set_defaults(
        handler=cmd_properties
    )

    for name, handler, description in (
        ("storage", cmd_storage, "Table 2 (storage cost)"),
        ("queries", cmd_queries, "Table 3 (query cost, analytic)"),
        ("costs", cmd_costs, "USD bill per architecture"),
    ):
        sub = commands.add_parser(name, help=description)
        sub.add_argument("--scale", type=float, default=0.5)
        sub.add_argument("--no-paper", action="store_true",
                         help="omit the paper's columns")
        sub.set_defaults(handler=handler)

    figures = commands.add_parser("figures", help="Figures 1-3")
    figures.add_argument("--architecture", choices=list(ARCHITECTURES))
    figures.add_argument("--dot", action="store_true", help="include DOT output")
    figures.set_defaults(handler=cmd_figures)

    advise = commands.add_parser("advise", help="§7 extension: dedup, co-placement, stage hints")
    advise.add_argument("--scale", type=float, default=0.2)
    advise.set_defaults(handler=cmd_advise)

    demo = commands.add_parser("demo", help="end-to-end tour")
    demo.add_argument("--architecture", choices=list(ARCHITECTURES))
    demo.add_argument(
        "--shards", type=_shard_count, default=1,
        help="split the provenance domain across N stores "
        "(consistent-hash routed; default 1, the paper's layout; "
        "each store is placed per --backend)",
    )
    demo.add_argument(
        "--concurrency", type=_worker_count, default=None,
        help="modeled scatter-gather wave width for queries (default 1 = "
        "sequential; N>1 prices N per-shard streams overlapping)",
    )
    demo.add_argument(
        "--backend", default=None, metavar="PLACEMENT",
        help="shard backend placement: 'sdb' (SimpleDB, the paper's "
        "store), 'ddb' (the DynamoDB-style store), 'mixed' (even shards "
        "on sdb, odd on ddb), or explicit '0:sdb,1:ddb' pairs; default "
        "all-sdb",
    )
    demo.add_argument(
        "--ddb-indexes", default=None, metavar="SPEC",
        help="global secondary indexes for DynamoDB-placed shards: "
        "comma-separated key attributes, each optionally with "
        "'+included' projection attributes (e.g. 'name,input' or "
        "'input+type+name'); 'auto' enables the provenance defaults "
        "(name,input — what serves Q2/Q3 by index Query instead of "
        "Scan), '' disables; default no indexes",
    )
    demo.add_argument(
        "--write-batch", type=_batch_width, default=None, metavar="N",
        help="group-commit width for the provenance write path: the "
        "client coalescer flushes N items per batched put "
        "(BatchPutAttributes / BatchWriteItem) and the A3 commit daemon "
        "applies N transactions per round with batched WAL deletes; "
        "default 1 (the paper's one-request-per-item path)",
    )
    demo.add_argument(
        "--read-cache", nargs="?", const="on", default=None, metavar="SPEC",
        help="front provenance reads with the ElastiCache-style cache "
        "tier: bare flag or 'on' for the defaults, a byte count for a "
        "custom capacity, or 'capacity=N,staleness=SECONDS'; default "
        "off (byte-identical meter)",
    )
    demo.add_argument(
        "--planner", default=None, metavar="MODE",
        choices=PLANNER_MODES,
        help="query access-path planning mode: 'off' (default — the "
        "backend's native choice, byte-identical meter), 'first-fit' "
        "(same paths, but each query carries a predicted cost), or "
        "'cost' (the cheapest path per the PriceBook cost model and "
        "live table statistics)",
    )
    demo.add_argument(
        "--migrate", default=None, metavar="SPEC",
        help="after the demo workload, migrate the provenance layout with "
        "the live copy/double-write/catch-up/cutover protocol: "
        "comma-separated key=value pairs — shards=N, placement=PLACEMENT "
        "(same grammar as --backend). E.g. 'shards=8,placement=mixed'. "
        "Default no migration",
    )
    demo.set_defaults(handler=cmd_demo)

    matrix = commands.add_parser(
        "matrix",
        help="workload × architecture compare matrix (statistical sweep)",
    )
    matrix.add_argument(
        "--reps", type=_positive_int("repetition count"), default=3,
        help="seeded repetitions per cell (median + bootstrap CI; default 3)",
    )
    matrix.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale multiplier applied to every axis entry",
    )
    matrix.add_argument(
        "--quick", action="store_true",
        help="the reduced 2x2 CI smoke grid (one Zipfian + one "
        "deep-lineage workload, one plain + one cached cell)",
    )
    matrix.add_argument(
        "--probe-reads", type=_positive_int("probe read count"), default=40,
        metavar="N",
        help="Q1 point reads per repetition, drawn from the workload's "
        "own read distribution (what the cache hit-rate column measures)",
    )
    matrix.add_argument(
        "--workloads", default=None, metavar="KEYS",
        help="comma-separated workload keys to keep (default: all)",
    )
    matrix.add_argument(
        "--cells", default=None, metavar="KEYS",
        help="comma-separated cell keys to keep (default: all)",
    )
    matrix.add_argument(
        "--out", default="benchmarks/results", metavar="DIR",
        help="directory for matrix.json + matrix.md ('' to skip writing)",
    )
    matrix.add_argument(
        "--no-replay-check", action="store_true",
        help="skip writing rep 0 of each cell to a run file and "
        "replaying it from that file against the captured meter",
    )
    matrix.set_defaults(handler=cmd_matrix)

    replay = commands.add_parser(
        "replay", help="replay a run file; print its bill and stored refs"
    )
    replay.add_argument("file", help="a run file (repro.schedule.dumps)")
    replay.set_defaults(handler=cmd_replay)

    export = commands.add_parser(
        "export", help="provenance as PROV-JSON or lineage DOT"
    )
    export.add_argument("--scale", type=float, default=0.05)
    export.add_argument(
        "--format", choices=["prov-json", "dot"], default="prov-json"
    )
    export.add_argument(
        "--focus", help="restrict DOT output to one object's ancestry "
        "(encoded ref, e.g. 'linux/vmlinux:v0001')"
    )
    export.set_defaults(handler=cmd_export)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
