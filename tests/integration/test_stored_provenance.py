"""``stored_provenance()``, the one oracle the Table 1 checks read, on every
architecture and every provenance layout: one SimpleDB domain, four
shards across both backends, three DynamoDB shards with indexes."""

from __future__ import annotations

import pytest

from repro.core.base import DATA_BUCKET, PROV_DOMAIN
from repro.errors import ClientCrash
from repro.passlib.capture import PassSystem
from repro.sim import Simulation

LAYOUTS = {
    "sdb-1": dict(shards=1, placement="sdb"),
    "mixed-4": dict(shards=4, placement="mixed"),
    "ddb-3": dict(shards=3, placement="ddb", ddb_indexes="name,input"),
}
#: A1 keeps provenance in object metadata: it has no layout to vary.
DEPLOYMENTS = [("s3", "metadata")] + [
    (architecture, layout)
    for architecture in ("s3+simpledb", "s3+simpledb+sqs")
    for layout in LAYOUTS
]


def build_trace():
    """Compile, then link: every file is written once (A1 keeps only a
    file's current version), and each compiler process piggybacks on the
    first of its two outputs."""
    pas = PassSystem(workload="build")
    for i in range(6):
        pas.stage_input(f"src/{i}.c", f"source {i}".encode())
    for j in range(5):
        with pas.process("cc", argv=f"-c {j}.c") as cc:
            cc.read(f"src/{j}.c")
            cc.read(f"src/{j + 1}.c")
            for suffix in ("o", "d"):
                cc.write(f"obj/{j}.{suffix}", f"{j}.{suffix}".encode())
                cc.close(f"obj/{j}.{suffix}")
    with pas.process("ld", argv="-o app") as ld:
        for j in range(5):
            ld.read(f"obj/{j}.o")
        ld.write("bin/app", b"linked")
        ld.close("bin/app")
    return pas.drain_flushes()


def refs_of(events) -> set:
    return {bundle.subject for event in events for bundle in event.all_bundles()}


@pytest.mark.parametrize(
    ("architecture", "layout"), DEPLOYMENTS, ids=[f"{a}-{l}" for a, l in DEPLOYMENTS]
)
def test_the_oracle_holds_exactly_the_stored_trace(architecture, layout):
    trace = build_trace()
    sim = Simulation(architecture, seed=7, **LAYOUTS.get(layout, {}))
    assert sim.store.stored_provenance() == set()
    sim.store_events(trace, collect=False)
    assert sim.store.stored_provenance() == refs_of(trace)


def test_the_oracle_sees_the_papers_anomaly_on_a_sharded_mixed_layout():
    """§4.2: an A2 client that dies between its provenance and its data
    PUT leaves provenance but no data — on whichever shard and backend
    the object routes to, none of them ``pass-prov``."""
    trace = build_trace()
    *stored, victim = trace
    sim = Simulation("s3+simpledb", seed=7, **LAYOUTS["mixed-4"])
    assert PROV_DOMAIN not in sim.routing.current.domains
    sim.store_events(stored, collect=False)
    sim.store.faults.crash_at("a2.store.before_data_put")
    with pytest.raises(ClientCrash):
        sim.store.store(victim)
    sim.settle()

    assert victim.subject in sim.store.stored_provenance()
    assert not sim.account.s3.exists_authoritative(DATA_BUCKET, victim.subject.name)
    assert sim.store.stored_provenance() == refs_of(trace)
