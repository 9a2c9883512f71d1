"""Integration: a fleet of clients sharing one provenance-aware cloud."""

import random

import pytest

from repro.errors import ClientCrash
from repro.fleet import ClientFleet
from repro.graph.provgraph import ProvenanceGraph
from repro.passlib.capture import PassSystem
from repro.workloads import BlastWorkload, ProvenanceChallengeWorkload
from tests.conftest import crash_during_store


def lab_trace(lab: str, n_files: int = 6):
    pas = PassSystem(workload=lab)
    pas.stage_input(f"{lab}/input.dat", f"{lab} source".encode())
    events = list(pas.drain_flushes())
    for index in range(n_files):
        with pas.process("analyze", argv=f"--part {index}") as proc:
            proc.read(f"{lab}/input.dat")
            proc.write(f"{lab}/out/{index:02d}.dat", f"{lab}:{index}".encode())
            proc.close(f"{lab}/out/{index:02d}.dat")
        events.extend(pas.drain_flushes())
    return events


@pytest.mark.parametrize("architecture", ["s3", "s3+simpledb", "s3+simpledb+sqs"])
class TestInterleavedClients:
    def test_three_labs_share_one_cloud(self, architecture):
        fleet = ClientFleet(n_clients=3, architecture=architecture, seed=41)
        traces = {}
        for index, name in enumerate(sorted(fleet.clients)):
            trace = lab_trace(f"lab{index}")
            traces[name] = trace
            fleet.submit(name, trace)
        stored = fleet.run_round_robin(batch=2)
        assert stored == sum(len(t) for t in traces.values())
        # Every lab's objects readable through any client.
        for index in range(3):
            result = fleet.read(f"lab{index}/out/00.dat")
            assert result.consistent
            assert result.data.read() == f"lab{index}:0".encode()

    def test_cross_lab_queries(self, architecture):
        fleet = ClientFleet(n_clients=2, architecture=architecture, seed=43)
        for index, name in enumerate(sorted(fleet.clients)):
            fleet.submit(name, lab_trace(f"lab{index}", n_files=3))
        fleet.run_round_robin()
        engine = fleet.query_engine()
        outputs = engine.q2_outputs_of("analyze")
        # 'analyze' ran in both labs; the shared domain sees all of it.
        names = {ref.name for ref in outputs.refs}
        assert any(name.startswith("lab0/") for name in names)
        assert any(name.startswith("lab1/") for name in names)
        assert len(outputs.refs) == 6


class TestFleetCrashes:
    def test_client_crash_and_takeover(self):
        fleet = ClientFleet(n_clients=2, architecture="s3+simpledb+sqs", seed=47)
        for index, name in enumerate(sorted(fleet.clients)):
            fleet.submit(name, lab_trace(f"lab{index}", n_files=4))
        fleet.replay(crash_during_store(fleet.round_robin(batch=3), fleet, "client-0", 2))
        fleet.settle()
        assert fleet.clients["client-0"].crashes == 1
        # Nothing lost: the resubmitted backlog all landed.
        for index in range(4):
            result = fleet.read(f"lab0/out/{index:02d}.dat")
            assert result.consistent

    def test_a_commit_daemon_crash_propagates_out_of_a_store_step(self):
        """Only a client's own crash ends its store step; its daemon's
        crash (inside that store's monitor tick) is nobody's to absorb."""
        fleet = ClientFleet(n_clients=2, architecture="s3+simpledb+sqs", seed=47)
        for index, name in enumerate(sorted(fleet.clients)):
            fleet.submit(name, lab_trace(f"lab{index}", n_files=4))
        fleet.clients["client-0"].store.commit_daemon.faults.crash_at("daemon.apply.begin")
        with pytest.raises(ClientCrash) as crash:
            fleet.run_round_robin()
        assert crash.value.point == "daemon.apply.begin"
        assert fleet.schedule[-1] == ("client-0", "store", None)
        assert all(step.action != "reboot" for step in fleet.schedule)
        assert all(client.crashes == 0 for client in fleet.clients.values())

    def test_crash_does_not_corrupt_other_clients(self):
        fleet = ClientFleet(n_clients=3, architecture="s3+simpledb+sqs", seed=53)
        for index, name in enumerate(sorted(fleet.clients)):
            fleet.submit(name, lab_trace(f"lab{index}", n_files=3))
        fleet.replay(crash_during_store(fleet.round_robin(batch=1), fleet, "client-1", 1))
        fleet.settle()
        for index in (0, 2):
            result = fleet.read(f"lab{index}/out/02.dat")
            assert result.consistent


class TestFleetWorkloads:
    def test_real_workloads_across_clients(self):
        fleet = ClientFleet(n_clients=2, architecture="s3+simpledb", seed=59)
        blast = list(
            BlastWorkload(n_runs=1, queries_per_run=4).iter_events(
                random.Random("fleet-blast"), 1.0
            )
        )
        fmri = list(
            ProvenanceChallengeWorkload(n_workflows=1).iter_events(
                random.Random("fleet-fmri"), 1.0
            )
        )
        fleet.submit("client-0", blast)
        fleet.submit("client-1", fmri)
        fleet.run_round_robin(batch=4)

        engine = fleet.query_engine()
        oracle = ProvenanceGraph.from_events(blast + fmri)
        assert set(engine.q2_outputs_of("blast").refs) == oracle.outputs_of("blast")
        assert set(engine.q2_outputs_of("softmean").refs) == oracle.outputs_of(
            "softmean"
        )
