"""Integration: an 8-client fleet over a 4-way sharded provenance domain.

The production shape the ROADMAP drives toward: many clients, the WAL
architecture (s3+simpledb+sqs), the provenance domain split across four
SimpleDB shards, a client crash with takeover mid-run — and fleet-wide
scatter-gather queries that must agree with an unsharded control fleet
run over the same traces.
"""

from __future__ import annotations

from repro.fleet import ClientFleet
from repro.passlib.capture import PassSystem
from tests.conftest import crash_during_store

N_CLIENTS = 8
PROGRAM = "ingest"


def lab_pipeline(lab: str, n_chains: int = 2, depth: int = 3):
    """Per-lab traces with real depth: ingest → refine → ... chains.

    Returns a list of whole traces so each chain's causal order is kept
    when the fleet deals them out to different clients.
    """
    traces = []
    for chain in range(n_chains):
        pas = PassSystem(workload=f"{lab}-{chain}")
        pas.stage_input(f"{lab}/raw/{chain}.dat", f"{lab} raw {chain}".encode())
        events = list(pas.drain_flushes())
        previous = f"{lab}/raw/{chain}.dat"
        for stage in range(depth):
            program = PROGRAM if stage == 0 else f"refine{stage}"
            output = f"{lab}/derived/{chain}/{stage:02d}.dat"
            with pas.process(program, argv=f"--stage {stage}") as proc:
                proc.read(previous)
                proc.write(output, f"{lab}:{chain}:{stage}".encode())
                proc.close(output)
            events.extend(pas.drain_flushes())
            previous = output
        traces.append(events)
    return traces


def build_fleet(shards: int, seed: int = 71) -> ClientFleet:
    fleet = ClientFleet(
        n_clients=N_CLIENTS, architecture="s3+simpledb+sqs",
        seed=seed, shards=shards,
    )
    for index in range(4):
        for trace in lab_pipeline(f"lab{index}"):
            # Deterministic spread over the 8 clients (seeded fleet RNG).
            fleet.scatter([trace])
    return fleet


def test_sharded_fleet_with_crash_matches_unsharded_control():
    sharded = build_fleet(shards=4)
    control = build_fleet(shards=1)

    # Crash the busiest client mid-run on the sharded fleet only; its
    # replacement incarnation takes over the backlog.
    victim = max(sorted(sharded.clients), key=lambda n: sharded.clients[n].backlog)
    assert sharded.clients[victim].backlog >= 2
    stored_sharded = sharded.replay(
        crash_during_store(sharded.round_robin(batch=3), sharded, victim, 1)
    )
    sharded.settle()
    stored_control = control.run_round_robin(batch=3)
    assert sharded.clients[victim].crashes == 1
    assert stored_sharded == stored_control  # nothing lost to the crash

    # The sharded store really is spread over 4 domains.
    assert len(sharded.router.domains) == 4
    counts = sharded.router.item_counts(sharded.account)
    assert sum(counts.values()) > 0
    assert sum(1 for count in counts.values() if count) >= 2

    # Fleet-wide Q3: descendants across every lab and every shard must
    # equal the unsharded control run exactly.
    sharded_q3 = sharded.query_engine().q3_descendants_of(PROGRAM)
    control_q3 = control.query_engine().q3_descendants_of(PROGRAM)
    assert set(sharded_q3.refs) == set(control_q3.refs)
    assert sharded_q3.result_count > 0
    # Every lab's chains contribute descendants.
    names = {ref.name for ref in sharded_q3.refs}
    for index in range(4):
        assert any(name.startswith(f"lab{index}/derived/") for name in names)

    # Q2 agrees too, and per-shard accounting covers the whole spend.
    sharded_q2 = sharded.query_engine().q2_outputs_of(PROGRAM)
    control_q2 = control.query_engine().q2_outputs_of(PROGRAM)
    assert set(sharded_q2.refs) == set(control_q2.refs)
    assert sum(ops for _, ops, _ in sharded_q2.per_shard) == sharded_q2.operations


def test_sharded_fleet_reads_any_object_consistently():
    fleet = build_fleet(shards=4, seed=73)
    fleet.run_round_robin(batch=4)
    for index in range(4):
        result = fleet.read(f"lab{index}/derived/0/02.dat")
        assert result.consistent
        assert result.data.read() == f"lab{index}:0:2".encode()
