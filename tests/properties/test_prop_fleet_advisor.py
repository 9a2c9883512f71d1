"""Property tests: fleet-level crash tolerance and advisor invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.advisor import ProvenanceAdvisor
from repro.fleet import ClientFleet
from repro.passlib.capture import PassSystem
from tests.conftest import crash_during_store


def lab_trace(lab: str, n_files: int):
    pas = PassSystem(workload=lab)
    pas.stage_input(f"{lab}/in.dat", f"{lab}".encode())
    events = list(pas.drain_flushes())
    for index in range(n_files):
        with pas.process("tool", argv=f"-{index}") as proc:
            proc.read(f"{lab}/in.dat")
            proc.write(f"{lab}/out{index}.dat", f"{lab}:{index}".encode())
            proc.close(f"{lab}/out{index}.dat")
        events.extend(pas.drain_flushes())
    return events


@settings(max_examples=15, deadline=None)
@given(
    n_clients=st.integers(1, 3),
    files_per_client=st.integers(1, 4),
    crash_at=st.integers(0, 3),
    seed=st.integers(0, 200),
)
def test_fleet_crashes_lose_nothing_submitted(
    n_clients, files_per_client, crash_at, seed
):
    """Whatever the interleaving and wherever one client crashes, every
    submitted object is eventually stored and reads back consistently."""
    fleet = ClientFleet(
        n_clients=n_clients, architecture="s3+simpledb+sqs", seed=seed
    )
    for index, name in enumerate(sorted(fleet.clients)):
        fleet.submit(name, lab_trace(f"lab{index}", files_per_client))
    steps = fleet.round_robin(batch=2)
    fleet.replay(crash_during_store(steps, fleet, "client-0", min(crash_at, files_per_client)))
    fleet.settle()
    for index in range(n_clients):
        for file_index in range(files_per_client):
            result = fleet.read(f"lab{index}/out{file_index}.dat")
            assert result.consistent
            assert result.data.read() == f"lab{index}:{file_index}".encode()


@settings(max_examples=25, deadline=None)
@given(
    n_pipelines=st.integers(1, 5),
    outputs_per_stage=st.integers(1, 3),
    shuffle=st.randoms(use_true_random=False),
)
def test_advice_does_not_depend_on_bundle_order(n_pipelines, outputs_per_stage, shuffle):
    """A cloud hands its bundles over in whatever order its items sort
    in; the advisor must learn the same workflow from any order."""
    pas = PassSystem(workload="prop")
    events = []
    for p in range(n_pipelines):
        pas.stage_input(f"p{p}/in.dat", b"x")
        events.extend(pas.drain_flushes())
        with pas.process("stage1") as proc:
            proc.read(f"p{p}/in.dat")
            for o in range(outputs_per_stage):
                proc.write(f"p{p}/mid{o}.dat", b"y")
                proc.close(f"p{p}/mid{o}.dat")
        events.extend(pas.drain_flushes())
        # Two consumer programs, so ``most_common`` has ties to break.
        with pas.process(f"stage2-{p % 2}") as proc:
            for o in range(outputs_per_stage):
                proc.read(f"p{p}/mid{o}.dat")
            proc.write(f"p{p}/final.dat", b"z")
            proc.close(f"p{p}/final.dat")
        events.extend(pas.drain_flushes())
    bundles = [b for e in events for b in e.all_bundles()]
    shuffled = shuffle.sample(bundles, len(bundles))

    def advice(advisor):
        return (
            advisor.model.transitions.most_common(),
            advisor.dedup_report(),
            advisor.placement_groups(),
            [advisor.prefetch_for(event.subject) for event in events],
        )

    ordered = ProvenanceAdvisor.from_bundles(bundles)
    assert advice(ProvenanceAdvisor.from_bundles(shuffled)) == advice(ordered)
    assert sum(ordered.model.transitions.values()) == n_pipelines * outputs_per_stage


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 500))
def test_advisor_only_suggests_known_objects(seed):
    """Prefetch suggestions always reference objects whose provenance
    was ingested — the advisor never invents keys."""
    rng = random.Random(seed)
    pas = PassSystem(workload="prop")
    known_names = set()
    for index in range(rng.randint(1, 6)):
        with pas.process(f"tool{index}") as proc:
            for o in range(rng.randint(1, 3)):
                path = f"out/{index}_{o}.dat"
                proc.write(path, b"d")
                proc.close(path)
                known_names.add(path)
    events = pas.drain_flushes()
    advisor = ProvenanceAdvisor.from_bundles(
        b for e in events for b in e.all_bundles()
    )
    for event in events:
        for suggestion in advisor.prefetch_for(event.subject):
            assert suggestion.name in known_names
