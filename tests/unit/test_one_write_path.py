"""Width 1 is a batch of one: the single write path at its neutral
setting issues the paper's requests, at the paper's fault points.

The literals below were recorded on the commit *before* the legacy
one-transaction-at-a-time apply loop, the single-item routed put and the
coalescer bypass were deleted; the general path at width 1 has to
reproduce them — meter, fault-point order (``crash_at_call(n)`` users
depend on the call indices) and daemon counters alike.
"""

from __future__ import annotations

import dataclasses


from repro.aws.account import ConsistencyConfig
from repro.errors import ClientCrash
from repro.sim import Simulation
from repro.workloads import CombinedWorkload


def crash_and_restart_run():
    """A small seeded A3 run at ``write_batch=1`` over an eventually
    consistent cloud, whose commit daemon crashes at its 9th fault point
    (mid-apply of its second transaction) and is restarted with no
    memory. Every knob is pinned."""
    events = CombinedWorkload().generate(seed=7, scale=0.02).events[:14]
    sim = Simulation(
        "s3+simpledb+sqs",
        seed=5,
        consistency=ConsistencyConfig.eventual(window=2.0, immediate_fraction=0.4),
        placement="sdb",
        ddb_indexes="",
        write_batch=1,
        read_cache="off",
        commit_threshold=12,
    )
    plans = {"client": sim.store.faults, "daemon": sim.store.commit_daemon.faults}
    plans["daemon"].crash_at_call(9)
    stats = []
    for event in events:
        try:
            sim.store.store(event)
        except ClientCrash:
            stats.append(dataclasses.asdict(sim.store.commit_daemon.stats))
            sim.account.clock.advance(200.0)  # past the visibility timeout
            sim.store.restart()
            plans["restarted"] = sim.store.commit_daemon.faults
    sim.settle()
    stats.append(dataclasses.asdict(sim.store.commit_daemon.stats))
    logs = {name: plan.log for name, plan in plans.items()}
    return sim.account.meter.snapshot(), logs, stats


def points(text: str, prefix: str) -> list[str]:
    return [prefix + word for word in text.split()]


CLIENT_LOG = """
begin after_begin_record after_temp_put after_record after_record
before_commit done begin after_begin_record after_temp_put after_record
after_record before_commit done begin after_begin_record after_temp_put
after_record after_record before_commit done begin after_begin_record
after_temp_put after_record after_record before_commit done begin
after_begin_record after_temp_put after_record after_record before_commit
done begin after_begin_record after_temp_put after_record after_record
after_record after_record after_record after_record after_record
after_record after_record before_commit done begin after_begin_record
after_temp_put after_record after_record after_record after_record
after_record after_record after_record after_record after_record
after_record after_record after_record before_commit done begin
after_begin_record after_temp_put after_record after_record after_record
after_record after_record after_record after_record after_record
before_commit done begin after_begin_record after_temp_put after_record
after_record after_record after_record before_commit done begin
after_begin_record after_temp_put after_record after_record after_record
after_record before_commit done begin after_begin_record after_temp_put
after_record after_record after_record before_commit done begin
after_begin_record after_temp_put after_record after_record after_record
after_record after_record after_record after_record after_record
after_record after_record before_commit done begin after_begin_record
after_temp_put after_record after_record after_record after_record
before_commit done begin after_begin_record after_temp_put after_record
after_record after_record before_commit done
"""

#: The armed daemon: one whole apply, then the crash at call 9.
DAEMON_LOG = """
begin after_copy after_overflow after_put_attributes after_delete_messages
done begin after_copy after_overflow
"""

#: The restarted daemon. The run of bare ``begin``s is one transaction
#: deferred run after run (its temp object on no sampled replica yet):
#: a deferral visits ``begin`` and nothing else, at width 1 as above it.
RESTARTED_LOG = """
begin after_copy after_overflow after_put_attributes after_delete_messages
done begin after_copy after_overflow after_put_attributes
after_delete_messages done begin after_copy after_overflow
after_put_attributes after_delete_messages done begin begin begin begin
begin begin begin begin begin begin begin after_copy after_overflow
after_put_attributes after_delete_messages done begin after_copy
after_overflow after_put_attributes after_delete_messages done begin
after_copy after_overflow after_put_attributes after_delete_messages done
begin after_copy after_overflow after_put_attributes after_delete_messages
done begin after_copy after_overflow after_put_attributes
after_delete_messages done begin after_copy after_overflow
after_put_attributes after_delete_messages done begin after_copy
after_overflow after_put_attributes after_delete_messages done begin
after_copy after_overflow after_put_attributes after_delete_messages done
begin after_copy after_overflow after_put_attributes after_delete_messages
done begin after_copy after_overflow after_put_attributes
after_delete_messages done
"""


def test_width_one_crash_and_restart_is_unchanged():
    usage, logs, stats = crash_and_restart_run()

    assert logs["client"] == points(CLIENT_LOG, "a3.log.")
    assert logs["daemon"] == points(DAEMON_LOG, "daemon.apply.")
    assert logs["restarted"] == points(RESTARTED_LOG, "daemon.apply.")

    crashed, restarted = stats
    assert crashed == {
        "runs": 1,
        "transactions_applied": 1,
        "messages_received": 12,
        "duplicate_applies": 0,
        "incomplete_rounds": 0,
        "transactions_deferred": 0,
    }
    assert restarted == {
        "runs": 13,
        "transactions_applied": 13,
        "messages_received": 626,
        "duplicate_applies": 0,
        "incomplete_rounds": 5,
        "transactions_deferred": 10,
    }

    assert dataclasses.asdict(usage) == {
        "requests": (
            (("s3", "COPY"), 78),
            (("s3", "DELETE"), 14),
            (("s3", "PUT"), 23),
            (("simpledb", "CreateDomain"), 1),
            (("simpledb", "PutAttributes"), 45),
            (("sqs", "ChangeMessageVisibility"), 535),
            (("sqs", "CreateQueue"), 1),
            (("sqs", "DeleteMessage"), 95),
            (("sqs", "GetQueueAttributes"), 14),
            (("sqs", "ReceiveMessage"), 137),
            (("sqs", "SendMessage"), 95),
        ),
        "bytes_in": (("s3", 1462408), ("simpledb", 16630), ("sqs", 63265)),
        "bytes_out": (("sqs", 478094),),
        "byte_seconds": (
            ("s3", 222592213.16348043),
            ("simpledb", 102341.2946009161),
            ("sqs", 9503248.10855594),
        ),
        "stored_bytes": (("s3", 790195), ("simpledb", 16630), ("sqs", 0)),
        "box_usage_hours": 0.0014900000000000022,
        "read_capacity_units": (),
        "write_capacity_units": (),
    }
