"""``stored_bundles()`` and its keys, ``stored_provenance()`` — the oracle
the Table 1 checks read and the §7 advisor hydrates from — on every
architecture and every provenance layout: one SimpleDB domain, four
shards across both backends, three DynamoDB shards with indexes."""

from __future__ import annotations

import pytest

import repro.properties
from repro.core.base import DATA_BUCKET, PROV_DOMAIN
from repro.errors import ClientCrash, ReadCorrectnessViolation
from repro.passlib.capture import PassSystem
from repro.properties import _chain_trace, check_atomicity
from repro.sim import Simulation
from tests.oracles import emitted_bundles

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


@pytest.mark.parametrize(
    ("architecture", "layout"),
    [
        ("s3", {}),
        ("s3+simpledb", {}),
        ("s3+simpledb+sqs", {}),
        ("s3+simpledb", dict(shards=4)),
        ("s3+simpledb+sqs", dict(placement="ddb")),
    ],
    ids=["s3", "s3+simpledb", "s3+simpledb+sqs", "s3+simpledb-shards4", "s3+simpledb+sqs-ddb"],
)
def test_stored_bundles_hold_the_emitted_records(architecture, layout):
    """Every version PASS emitted comes back decoded, with its kind and
    its exact record set, and reading the oracle spends nothing."""
    pas = PassSystem(workload="chain")
    trace = _chain_trace(4, pas=pas)
    sim = Simulation(architecture, seed=3, **layout)
    sim.store_events(trace, collect=False)
    sim.settle()
    before = sim.account.meter.snapshot()
    stored = sim.store.stored_bundles()
    assert sim.account.meter.snapshot() == before
    emitted = {bundle.subject: bundle for bundle in emitted_bundles(pas, trace)}
    assert stored.keys() == emitted.keys()
    for subject, bundle in stored.items():
        assert bundle.kind == emitted[subject].kind
        assert set(bundle.records) == set(emitted[subject].records)


def test_disagreeing_copies_of_one_ancestor_are_a_fault():
    """Two systems each name their first process ``proc/stage0.1000``;
    A1 then carries two different bundles for it, one per chain, and the
    oracle refuses to pick one."""
    sim = Simulation("s3", seed=3)
    sim.store_events(
        _chain_trace(2, prefix="baseline") + _chain_trace(2, prefix="victim"),
        collect=False,
    )
    with pytest.raises(ReadCorrectnessViolation, match="proc/stage0.1000:v0001"):
        sim.store.stored_bundles()


def test_the_atomicity_trace_names_each_version_once(monkeypatch):
    """Table 1's atomicity worlds store one trace; no subject in it may
    carry two different record sets (A2/A3 would merge them into one
    item, and A1 would hold two disagreeing copies)."""
    traces = []
    crash_world = repro.properties._crash_world

    def spy(architecture, seed, events):
        traces.append(events)
        return crash_world(architecture, seed, events)

    monkeypatch.setattr(repro.properties, "_crash_world", spy)
    check_atomicity("s3+simpledb", seed=5)
    for events in traces:
        records: dict = {}
        for bundle in (bundle for event in events for bundle in event.all_bundles()):
            assert records.setdefault(bundle.subject, bundle.records) == bundle.records
