"""A1 stores bundles of any width: when even the keys of a bundle are over
S3's 2 KB metadata limit, the bundle moves whole into one overflow object
and every reader follows the pointer.

The paper's dataset has such bundles: at 16× and above, the ``ld`` that
links ``linux/vmlinux`` reads 60-120 inputs, and its process bundle
piggybacks on the object's metadata.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.base import DATA_BUCKET
from repro.errors import ClientCrash
from repro.passlib.capture import PassSystem
from repro.passlib.serializer import BUNDLE_KEY, to_s3_metadata
from repro.sim import Simulation
from repro.units import KB

OUTPUT = "linux/vmlinux"


def link_event(n_inputs: int, env_bytes: int = 0):
    """The flush of ``ld`` linking ``n_inputs`` objects into :data:`OUTPUT`."""
    pas = PassSystem(workload="link")
    inputs = [f"linux/obj/built-in{i:03d}.o" for i in range(n_inputs)]
    for path in inputs:
        pas.stage_input(path, path.encode())
    pas.drain_flushes()
    env = {"BIG": "x" * env_bytes} if env_bytes else {"PATH": "/bin"}
    with pas.process("ld", argv="-o vmlinux", env=env) as ld:
        for path in inputs:
            ld.read(path)
        ld.write(OUTPUT, b"kernel image")
        return ld.close(OUTPUT)


def records_of(bundle) -> list[str]:
    return sorted(str(record) for record in bundle.records)


@settings(max_examples=20, deadline=None)
@given(n_inputs=st.integers(0, 500), env_bytes=st.integers(0, 3 * KB))
def test_every_reader_returns_the_stored_bundle(n_inputs, env_bytes):
    event = link_event(n_inputs, env_bytes)
    (process,) = event.ancestors
    sim = Simulation("s3")
    sim.store_events([event], collect=False)

    head = sim.store.head_provenance(OUTPUT)
    assert head.subject == event.subject
    assert records_of(head.bundle) == records_of(event.bundle)
    own, ancestors = sim.store.read_with_ancestors(OUTPUT)
    assert records_of(own) == records_of(event.bundle)
    assert [records_of(a) for a in ancestors] == [records_of(process)]

    engine = sim.query_engine()
    assert set(engine.q1_all().refs) == {event.subject, process.subject}
    assert engine.q2_outputs_of("ld").refs == (event.subject,)
    assert sim.store.stored_provenance() == {event.subject, process.subject}


def test_a_crash_anywhere_on_the_bundle_path_keeps_data_and_provenance_together():
    event = link_event(120, env_bytes=2 * KB)
    payload = to_s3_metadata(event)
    assert BUNDLE_KEY in payload.metadata and len(payload.overflow) == 2

    dry_store = Simulation("s3").store
    dry_store.store(event)
    dry_log = dry_store.faults.log
    assert dry_log.count("a1.store.overflow_put") == 2
    outcomes = []
    for crash_call in range(1, len(dry_log) + 1):
        sim = Simulation("s3")
        sim.store.faults.crash_at_call(crash_call)
        with pytest.raises(ClientCrash) as crash:
            sim.store.store(event)
        sim.settle()
        data = sim.account.s3.exists_authoritative(DATA_BUCKET, OUTPUT)
        provenance = event.subject in sim.store.stored_provenance()
        assert data == provenance, crash.value.point
        outcomes.append((crash.value.point, data))
    assert outcomes == [(point, point == "a1.store.done") for point in dry_log]
