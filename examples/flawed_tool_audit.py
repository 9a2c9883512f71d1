#!/usr/bin/env python3
"""The paper's audit scenario: find everything a flawed tool touched.

"Imagine that a researcher discovers that a particular version of a
widely-used analysis tool is flawed. She can identify all data sets
affected by the flawed software by querying the provenance." (§1)

A Blast campaign runs with two releases of the aligner: blast-2.2.16
(later found flawed) and blast-2.2.18. The audit:

1. finds every *process instance* whose argv pins the flawed release,
2. finds their direct outputs (paper query Q2),
3. closes over descendants (paper query Q3) — summaries built from
   flawed alignments are tainted too,

all through indexed SimpleDB queries, then cross-checks the result
against the in-memory ground-truth graph.

    python examples/flawed_tool_audit.py
"""

from repro.blob import SyntheticBlob
from repro.passlib.capture import PassSystem
from repro.query.ancestry import AncestryWalker
from repro.sim import Simulation

FLAWED = "blast-2.2.16"
FIXED = "blast-2.2.18"


def run_campaign(sim: Simulation) -> AncestryWalker:
    pas = PassSystem(workload="audit")
    pas.stage_input("db/nr.fasta", SyntheticBlob("nr", 5_000_000))
    for index in range(8):
        release = FLAWED if index < 3 else FIXED
        query_path = f"queries/q{index}.fa"
        hits_path = f"hits/q{index}.blast"
        summary_path = f"summaries/q{index}.txt"
        pas.stage_input(query_path, SyntheticBlob(f"q{index}", 2_000))
        with pas.process(
            release, argv=f"-p blastp -d nr -i {query_path}"
        ) as blast:
            blast.read("db/nr.fasta")
            blast.read(query_path)
            blast.write(hits_path, SyntheticBlob(f"hits{index}", 80_000))
            blast.close(hits_path)
        with pas.process("summarize", argv=f"--top 10 {hits_path}") as post:
            post.read(hits_path)
            post.write(summary_path, SyntheticBlob(f"sum{index}", 4_000))
            post.close(summary_path)
    events = pas.drain_flushes()
    sim.store_events(events)
    print(f"campaign stored: {len(events)} objects")
    return AncestryWalker(b for e in events for b in e.all_bundles())


def audit(sim: Simulation, oracle: AncestryWalker) -> None:
    engine = sim.query_engine()

    direct = engine.q2_outputs_of(FLAWED)
    print(
        f"\nQ2 — direct outputs of {FLAWED}: {direct.result_count} files "
        f"in {direct.operations} operations"
    )
    for ref in direct.refs:
        print(f"  TAINTED {ref.encode()}")

    tainted = engine.q3_descendants_of(FLAWED)
    print(
        f"\nQ3 — all descendants of {FLAWED} outputs: "
        f"{tainted.result_count} files in {tainted.operations} operations"
    )
    derived_only = set(tainted.refs) - set(direct.refs)
    for ref in sorted(derived_only):
        print(f"  TAINTED (derived) {ref.encode()}")

    # Every claim cross-checked against the ground-truth graph.
    assert set(direct.refs) == oracle.outputs_of(FLAWED)
    assert set(tainted.refs) == oracle.descendants_of_outputs(FLAWED)

    clean = engine.q3_descendants_of(FIXED)
    overlap = set(clean.refs) & set(tainted.refs)
    print(
        f"\nresults from {FIXED}: {clean.result_count} files; "
        f"overlap with tainted set: {len(overlap)}"
    )
    print("audit verified against the in-memory provenance graph")


def main() -> None:
    sim = Simulation(architecture="s3+simpledb", seed=7)
    oracle = run_campaign(sim)
    audit(sim, oracle)


if __name__ == "__main__":
    main()
