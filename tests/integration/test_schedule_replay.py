"""A recorded fault schedule replays a run exactly — crashes included.

A fleet records every step its one interpreter applies. Put through the
canonical JSON codec and replayed on a fresh fleet built with the same
arguments and given the same backlogs, the schedule reproduces the
run byte for byte: the meter, every store's fault log, the provenance
the cloud holds and the answers of Q1–Q4. The fault-free op-log trace
(which cannot replay a crash) keeps its bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from pathlib import Path

from repro import schedule
from repro.fleet import ClientFleet
from repro.passlib.capture import PassSystem
from repro.passlib.records import ObjectRef
from repro.workloads import ZipfianFleetWorkload
from tests.conftest import A3_MID_LOG

REGRESSIONS = Path(__file__).resolve().parent.parent / "regressions"


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


def fleet_with_labs(n_files: int, **knobs) -> ClientFleet:
    """Two A3 clients, client-k holding lab k's pipeline."""
    fleet = ClientFleet(2, "s3+simpledb+sqs", **knobs)
    for index, name in enumerate(sorted(fleet.clients)):
        fleet.submit(name, lab_trace(f"lab{index}", n_files))
    return fleet


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
    knobs = dict(seed=36, shards=2)
    capture = fleet_with_labs(6, **knobs)
    capture.apply(("client-1", "crash", A3_MID_LOG))
    capture.run_live_migration(shards=3, placement="mixed", batch=2)
    assert capture.clients["client-1"].crashes == 1
    assert ("client-1", "reboot", None) in capture.schedule
    text = schedule.dumps(capture.schedule)

    replayer = fleet_with_labs(6, **knobs)
    replayer.replay(schedule.loads(text))

    assert replayer.schedule == capture.schedule
    assert observe(replayer) == observe(capture)


def test_the_committed_schedule_replays_to_its_recorded_meter():
    """Two A3 clients; client-1 dies mid-log and reboots; a live
    migration takes one step; the cloud settles."""
    text = (REGRESSIONS / "two_a3_clients_crash_and_migrate.json").read_text()
    steps = schedule.loads(text)
    assert schedule.dumps(steps) == text

    fleet = fleet_with_labs(2, seed=36)
    assert fleet.replay(steps) == 6
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


def test_a_fault_free_op_log_keeps_its_bytes():
    """The JSONL trace of a fault-free round-robin run, recorded on the
    tree before the schedule existed: same length, same digest."""
    workload = ZipfianFleetWorkload(n_tenants=3, keys_per_tenant=5, n_ops=24)
    events = list(workload.iter_events(random.Random(workload.seed_key(11))))
    fleet = ClientFleet(n_clients=3, architecture="s3+simpledb+sqs", seed=11, shards=2)
    fleet.scatter([events[i : i + 8] for i in range(0, len(events), 8)])
    fleet.run_round_robin(batch=3)
    text = fleet.trace_document().dumps()
    assert len(text) == 56909
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8b0cadffd336fa45b546c47297f62745897bc3e83c3acdb74a0059c52d2a96f8"
    )
