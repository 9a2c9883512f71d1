"""One settle loop for both drivers, byte-identical to the two it merged.

``ClientFleet.settle`` used to restart each client's commit daemon and
drain for up to 10 rounds; ``Simulation.settle`` pumped the existing
daemon for up to 12 and checked the queue on the other side of
``quiesce()``. The literals below were recorded on the commit *before*
the two became ``Cloud.settle`` (this file passes unchanged on it): the
shared loop has to reproduce both runs on the meter.
"""

from __future__ import annotations

import dataclasses

from repro.aws.account import ConsistencyConfig
from repro.fleet import ClientFleet
from repro.sim import Simulation
from repro.workloads import CombinedWorkload
from tests.conftest import crash_during_store

KNOBS = dict(
    seed=11,
    consistency=ConsistencyConfig.eventual(window=2.0, immediate_fraction=0.4),
    shards=1,
    placement="sdb",
    concurrency=1,
    ddb_indexes="",
    write_batch=1,
    read_cache="off",
    planner="off",
)


def events(n: int):
    return CombinedWorkload().generate(seed=7, scale=0.02).events[:n]


def wal_depth(cloud, store) -> int:
    return cloud.account.sqs.exact_message_count(store.queue_url)


def test_fleet_settle_with_a_crashed_client_is_unchanged():
    """Three A3 clients over an eventually consistent cloud; client-1
    dies mid-log at its fifth store and a new incarnation takes over.
    The dead incarnation's begin record can never commit, so its queue
    never empties and the settle loop runs out its round bound — the
    literal meter pins that bound along with the drain itself."""
    fleet = ClientFleet(3, "s3+simpledb+sqs", **KNOBS)
    trace = events(24)
    for index, name in enumerate(sorted(fleet.clients)):
        fleet.submit(name, trace[index * 8 : index * 8 + 8])

    steps = crash_during_store(fleet.round_robin(batch=3), fleet, "client-1", 4)
    assert fleet.replay(steps) == 24
    fleet.settle()

    clients = fleet.clients
    assert {n: (c.stored, c.crashes) for n, c in clients.items()} == {
        "client-0": (8, 0),
        "client-1": (4, 1),  # the new incarnation's count; 4 landed before
        "client-2": (8, 0),
    }
    # Every committed transaction was applied; what is left on client-1's
    # queue is the abandoned begin record SQS retention will reap.
    assert [wal_depth(fleet, c.store) for c in clients.values()] == [0, 1, 0]
    assert dataclasses.asdict(fleet.account.meter.snapshot()) == {
        "requests": (
            (("s3", "COPY"), 156),
            (("s3", "DELETE"), 24),
            (("s3", "PUT"), 39),
            (("simpledb", "CreateDomain"), 4),
            (("simpledb", "PutAttributes"), 67),
            (("sqs", "ChangeMessageVisibility"), 649),
            (("sqs", "CreateQueue"), 4),
            (("sqs", "DeleteMessage"), 149),
            (("sqs", "GetQueueAttributes"), 24),
            (("sqs", "ReceiveMessage"), 331),
            (("sqs", "SendMessage"), 150),
        ),
        "bytes_in": (("s3", 2973723), ("simpledb", 26397), ("sqs", 86454)),
        "bytes_out": (("sqs", 397335),),
        "byte_seconds": (
            ("s3", 2604735203.512691),
            ("simpledb", 35785288.196691416),
            ("sqs", 11243292.25996124),
        ),
        "stored_bytes": (("s3", 1595820), ("simpledb", 26397), ("sqs", 50)),
        "box_usage_hours": 0.003473999999999993,
        "read_capacity_units": (),
        "write_capacity_units": (),
    }


def test_simulation_settle_is_unchanged():
    """One A3 client over the same cloud: a transaction is deferred
    past the event loop (replica lag on its temp object), so settling
    takes a second round after the visibility timeout lapses."""
    sim = Simulation("s3+simpledb+sqs", pump_every=6, **KNOBS)

    assert sim.store_events(events(20)) == 20

    assert wal_depth(sim, sim.store) == 0
    assert dataclasses.asdict(sim.usage()) == {
        "requests": (
            (("s3", "COPY"), 152),
            (("s3", "DELETE"), 20),
            (("s3", "PUT"), 31),
            (("simpledb", "CreateDomain"), 1),
            (("simpledb", "PutAttributes"), 62),
            (("sqs", "ChangeMessageVisibility"), 1729),
            (("sqs", "CreateQueue"), 1),
            (("sqs", "DeleteMessage"), 132),
            (("sqs", "GetQueueAttributes"), 20),
            (("sqs", "ReceiveMessage"), 318),
            (("sqs", "SendMessage"), 132),
        ),
        "bytes_in": (("s3", 2424540), ("simpledb", 25045), ("sqs", 83054)),
        "bytes_out": (("sqs", 1149464),),
        "byte_seconds": (
            ("s3", 364174053.6035153),
            ("simpledb", 49771.595144677536),
            ("sqs", 12620279.489263572),
        ),
        "stored_bytes": (("s3", 1046597), ("simpledb", 25045), ("sqs", 0)),
        "box_usage_hours": 0.001864000000000004,
        "read_capacity_units": (),
        "write_capacity_units": (),
    }
