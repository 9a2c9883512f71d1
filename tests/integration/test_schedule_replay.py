"""A run file replays a run exactly, from the file alone — crashes included.

A fleet records every step its one interpreter applies. Written with the
backlogs it was given to a run file and replayed with
:meth:`~repro.sim.Cloud.from_run` — no test helper rebuilds the cloud —
the run reproduces byte for byte: the meter, every store's fault log,
the provenance the cloud holds and the answers of Q1–Q4. Every file
under ``tests/regressions/`` is such a run file.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import pytest

from repro import schedule
from repro.core.base import DATA_BUCKET
from repro.fleet import ClientFleet
from repro.passlib.capture import PassSystem
from repro.passlib.records import ObjectRef
from repro.sim import Cloud
from repro.workloads import ZipfianFleetWorkload
from tests.conftest import A3_MID_LOG
from tests.oracles import store_names

REGRESSIONS = Path(__file__).resolve().parent.parent / "regressions"
COMMITTED = REGRESSIONS / "two_a3_clients_crash_and_migrate.json"


def lab_trace(lab: str, n_files: int) -> list:
    pas = PassSystem(workload=lab)
    pas.stage_input(f"{lab}/in.dat", f"{lab} source".encode())
    events = list(pas.drain_flushes())
    for index in range(n_files):
        with pas.process("tool", argv=f"-{index}") as proc:
            proc.read(f"{lab}/in.dat")
            proc.write(f"{lab}/out{index}.dat", f"{lab}:{index}".encode())
            proc.close(f"{lab}/out{index}.dat")
        events.extend(pas.drain_flushes())
    return events


def fleet_with_labs(n_files: int, **knobs) -> tuple[ClientFleet, dict]:
    """Two A3 clients, client-k holding lab k's pipeline; returns the
    fleet and the backlogs it was given."""
    fleet = ClientFleet(2, "s3+simpledb+sqs", **knobs)
    backlogs = {name: lab_trace(f"lab{index}", n_files)
                for index, name in enumerate(sorted(fleet.clients))}
    for name, events in backlogs.items():
        fleet.submit(name, events)
    return fleet, backlogs


def observe(fleet: ClientFleet) -> dict:
    engine = fleet.query_engine()
    provenance = fleet.stores()[0].stored_provenance()
    return {
        "meter": fleet.account.meter.snapshot(),
        "fault_logs": [
            (client.store.faults.log, client.store.commit_daemon.faults.log)
            for client in fleet.clients.values()
        ],
        "provenance": provenance,
        "q1": [engine.q1(ref).refs for ref in sorted(provenance)],
        "q2": engine.q2_outputs_of("tool").refs,
        "q3": engine.q3_descendants_of("tool").refs,
        "q4": engine.q4_time_range(0, 10).refs,
    }


def test_a_crashed_live_migration_replays_byte_identically():
    capture, backlogs = fleet_with_labs(6, seed=36, shards=2)
    capture.apply(("client-1", "crash", A3_MID_LOG))
    capture.run_live_migration(shards=3, placement="mixed", batch=2)
    assert capture.clients["client-1"].crashes == 1
    assert ("client-1", "reboot", None) in capture.schedule

    replayed = Cloud.from_run(schedule.loads(schedule.dumps(capture, backlogs)))

    assert replayed.schedule == capture.schedule
    assert observe(replayed) == observe(capture)


@pytest.mark.parametrize("path", sorted(REGRESSIONS.glob("*.json")), ids=lambda path: path.name)
def test_every_committed_run_file_is_canonical_and_replays(path):
    text = path.read_text()
    run = schedule.loads(text)
    cloud = Cloud.from_run(run)
    assert schedule.dumps(cloud, run.backlogs) == text
    assert not any(client.backlog for client in cloud.clients.values())


def test_the_committed_run_replays_to_its_recorded_meter():
    """Two A3 clients; client-1 dies mid-log and reboots; a live
    migration takes one step; the cloud settles."""
    run = schedule.loads(COMMITTED.read_text())
    fleet = Cloud.from_run(run)
    assert sum(len(events) for events in run.backlogs.values()) == 6
    assert not any(client.backlog for client in fleet.clients.values())
    assert [client.crashes for client in fleet.clients.values()] == [0, 1]
    assert fleet.routing.migration.phase == "copy"
    assert dataclasses.asdict(fleet.account.meter.snapshot()) == {
        "requests": (
            (("dynamodb", "CreateTable"), 1),
            (("s3", "COPY"), 6),
            (("s3", "DELETE"), 6),
            (("s3", "PUT"), 10),
            (("simpledb", "CreateDomain"), 4),
            (("simpledb", "PutAttributes"), 10),
            (("sqs", "ChangeMessageVisibility"), 12),
            (("sqs", "CreateQueue"), 4),
            (("sqs", "DeleteMessage"), 28),
            (("sqs", "GetQueueAttributes"), 6),
            (("sqs", "ReceiveMessage"), 106),
            (("sqs", "SendMessage"), 39),
        ),
        "bytes_in": (("s3", 52), ("simpledb", 822), ("sqs", 5938)),
        "bytes_out": (("sqs", 4452),),
        "byte_seconds": (("s3", 183300.0), ("simpledb", 1230300.0), ("sqs", 3487800.0)),
        "stored_bytes": (("s3", 112), ("simpledb", 758), ("sqs", 2086)),
        "box_usage_hours": 0.002219999999999999,
        "read_capacity_units": (),
        "write_capacity_units": (),
    }
    assert fleet.stores()[0].stored_provenance() == {
        ObjectRef(name, 1)
        for name in (
            "lab0/in.dat", "lab0/out0.dat", "lab0/out1.dat",
            "lab1/in.dat", "lab1/out0.dat", "lab1/out1.dat",
            "proc/tool.1000", "proc/tool.1001",
        )
    }


def test_two_replays_in_one_process_name_the_same_queues_and_keys():
    """WAL transaction ids and migration WAL queues are numbered per
    account, so replaying one run file twice in one process names the
    same queues and keys (the crashed incarnation's temp object keeps
    its epoch in its key)."""
    text = COMMITTED.read_text()

    def names(cloud):
        return store_names(cloud.account.sqs), cloud.account.s3.authoritative_keys(DATA_BUCKET)

    first, second = (Cloud.from_run(schedule.loads(text)) for _ in range(2))
    assert "sqs://queues/migration-wal-0001" in names(first)[0]
    assert ".pass/tmp/client-1.e00002-000002/lab1/out0.dat" in names(first)[1]
    assert names(first) == names(second)


#: The order a fault-free three-client round-robin stored its events
#: in, recorded as the client column of the op-log trace (the JSONL
#: trace's digest pinned it) on the tree before run files existed.
ROUND_ROBIN_ORDER = (
    ["client-1"] * 3 + ["client-2"] * 3 + ["client-1"] * 3 + ["client-2"] * 3
    + ["client-1"] * 3 + ["client-2"] * 3 + ["client-1"] * 3 + ["client-2"] * 2
    + ["client-1"] * 4
)


def test_a_fault_free_round_robin_keeps_its_store_order():
    workload = ZipfianFleetWorkload(n_tenants=3, keys_per_tenant=5, n_ops=24)
    events = list(workload.iter_events(random.Random(workload.seed_key(11))))
    fleet = ClientFleet(n_clients=3, architecture="s3+simpledb+sqs", seed=11, shards=2)
    backlogs = fleet.scatter([events[i : i + 8] for i in range(0, len(events), 8)])
    fleet.run_round_robin(batch=3)
    assert [actor for actor, action, _ in fleet.schedule if action == "store"] == (
        ROUND_ROBIN_ORDER
    )
    replayed = Cloud.from_run(schedule.loads(schedule.dumps(fleet, backlogs)))
    assert replayed.account.meter.snapshot() == fleet.account.meter.snapshot()
