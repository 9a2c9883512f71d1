"""One client is one client: :class:`~repro.sim.Simulation` and a
one-client :class:`~repro.fleet.ClientFleet` are the same
:class:`~repro.sim.Cloud`, so the same events stored through either
leave the same meter — request for request, byte for byte.

The two drivers share every hook (``add_client``, the store's ``pump``
and ``wal_backlog``, ``settle``); they differ only in scheduling. With
``pump_every`` past the end of the stream the simulation pumps only in
its closing settle, exactly as the fleet's round-robin drain does.
"""

from __future__ import annotations

import random

import pytest

from repro.core import ARCHITECTURES
from repro.fleet import ClientFleet
from repro.sim import Simulation
from repro.workloads import CombinedWorkload

SEED = 3
#: Requests the stream costs per architecture (recorded literals).
REQUESTS = {"s3": 541, "s3+simpledb": 1187, "s3+simpledb+sqs": 5919}


@pytest.mark.parametrize("architecture", sorted(ARCHITECTURES))
def test_a_simulation_and_a_one_client_fleet_meter_the_same(architecture):
    events = list(
        CombinedWorkload().iter_events(random.Random(f"differential:{SEED}"), 0.3)
    )
    sim = Simulation(architecture, seed=SEED, pump_every=len(events) + 1)
    assert sim.store_events(events) == len(events)
    fleet = ClientFleet(n_clients=1, architecture=architecture, seed=SEED)
    fleet.submit("client-0", events)
    assert fleet.run_round_robin() == len(events)

    usage = sim.usage()
    assert usage.request_count() == REQUESTS[architecture]
    assert fleet.account.meter.snapshot() == usage
    assert not any(store.wal_backlog() for store in sim.stores() + fleet.stores())


@pytest.mark.parametrize(
    "build", [lambda: Simulation("s3"), lambda: ClientFleet(1, "s3")],
    ids=["simulation", "fleet"],
)
def test_s3_has_no_provenance_shards_to_migrate(build):
    cloud = build()
    with pytest.raises(ValueError) as raised:
        cloud.start_migration(shards=2)
    assert str(raised.value) == "the s3 architecture has no provenance shards to migrate"
