"""The runtime sanitizer (``sanitize.ACTIVE``): spend a query records
outside its stream and memo scopes is detected when it is on, and the
build is byte-identical when it is off."""

from __future__ import annotations

import pytest

from repro.aws.billing import Meter, PriceBook, Usage
from repro.clock import SimClock
from repro.devtools import sanitize
from repro.sim import Simulation
from repro.workloads import CombinedWorkload
from tests.conftest import leak_between_waves


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setattr(sanitize, "ACTIVE", True)
    sanitize.reset()
    yield
    sanitize.reset()


@pytest.fixture
def unsanitized(monkeypatch):
    monkeypatch.setattr(sanitize, "ACTIVE", False)
    sanitize.reset()
    yield
    sanitize.reset()


def loaded_sim(**knobs) -> Simulation:
    """A small seeded 4-shard deployment, every knob pinned."""
    settings = dict(
        seed=11, shards=4, placement="sdb", ddb_indexes="", write_batch=1,
        read_cache="off", planner="off", concurrency=4,
    )
    settings.update(knobs)
    sim = Simulation("s3+simpledb", **settings)
    events = CombinedWorkload().generate(seed=3, scale=0.02).events
    sim.store_events(events, collect=False)
    sim.settle()
    return sim


# -- the audit itself --------------------------------------------------------


def _scoped_reads(meter: Meter, leak: bool) -> tuple[Usage, Usage]:
    """(query scope usage, sum of its stream scopes) of a two-stream
    'query'; ``leak`` records one request between the streams."""
    attributed = Usage.empty()
    with meter.scoped() as query:
        for _ in range(2):
            with meter.scoped() as stream:
                meter.record_request("simpledb", "Select")
                meter.record_transfer_out("simpledb", 512)
            attributed += stream.usage()
            if leak:
                meter.record_request("s3", "GET")
                meter.record_transfer_out("s3", 40)
                leak = False
    return meter.spent(query, meter.levels()), attributed


def test_stream_scopes_summing_to_the_query_scope_is_clean(sanitized):
    sanitize.audit_spend(*_scoped_reads(Meter(SimClock()), leak=False))
    assert sanitize.violations() == ()


def test_a_request_between_streams_is_flagged_with_key_and_amount(sanitized):
    sanitize.audit_spend(*_scoped_reads(Meter(SimClock()), leak=True))
    requests, transfer = sanitize.violations()
    assert {requests.kind, transfer.kind} == {"unattributed-spend"}
    assert "1 request(s) s3/GET" in requests.message
    assert "40 byte(s) out of s3" in transfer.message
    assert requests.render().startswith("[unattributed-spend] ")
    sanitize.reset()


def test_over_attribution_is_flagged_too(sanitized):
    spent, attributed = _scoped_reads(Meter(SimClock()), leak=False)
    sanitize.audit_spend(spent, attributed + attributed)
    messages = [violation.message for violation in sanitize.violations()]
    assert any("-2 request(s) simpledb/Select" in m for m in messages)
    sanitize.reset()


# -- wired into the engine ---------------------------------------------------


def test_real_queries_attribute_every_request(sanitized):
    """Streams, Q1 point reads, planner statistics consults and memo
    consults / fills all sit in a stream or memo scope."""
    sim = loaded_sim(placement="mixed", ddb_indexes="name,input",
                     read_cache="on", planner="cost")
    engine = sim.query_engine()
    for _ in range(2):  # second issue = memo hits
        engine.q2_outputs_of("blast")
        engine.q3_descendants_of("blast")
        engine.q4_time_range(1, 2)
    refs = engine.q1_all().refs
    engine.q1(refs[0])
    assert sanitize.violations() == ()


def test_backend_request_outside_its_stream_scope_is_flagged(sanitized, monkeypatch):
    sim = loaded_sim()
    engine = sim.query_engine()
    clean = engine.q2_outputs_of("blast")
    assert sanitize.violations() == ()

    leak_between_waves(engine, monkeypatch)
    leaky = engine.q2_outputs_of("blast")
    # Two scatter phases, one leaked DomainMetadata each: billed to the
    # query, absent from the per-shard split.
    assert leaky.refs == clean.refs
    assert leaky.operations == clean.operations + 2
    assert sum(ops for _, ops, _ in leaky.per_shard) == clean.operations
    found = sanitize.violations()
    assert [v.kind for v in found].count("unattributed-spend") == len(found) >= 1
    assert any("2 request(s) simpledb/DomainMetadata" in v.message for v in found)
    sanitize.reset()


def test_sanitizer_off_records_nothing_for_the_same_leak(unsanitized, monkeypatch):
    engine = loaded_sim().query_engine()
    leak_between_waves(engine, monkeypatch)
    engine.q2_outputs_of("blast")
    assert sanitize.violations() == ()


def test_the_sanitizer_is_decided_when_the_engine_is_built(sanitized, monkeypatch):
    """The flag is read once at construction: an engine built with the
    sanitizer on keeps auditing, one built with it off stays inert even
    if the flag is switched on later."""
    sim = loaded_sim()
    built_on = sim.query_engine()
    monkeypatch.setattr(sanitize, "ACTIVE", False)
    built_off = sim.query_engine()
    monkeypatch.setattr(sanitize, "ACTIVE", True)

    leak_between_waves(built_off, monkeypatch)
    built_off.q2_outputs_of("blast")
    assert sanitize.violations() == ()

    monkeypatch.setattr(sanitize, "ACTIVE", False)
    leak_between_waves(built_on, monkeypatch)
    built_on.q2_outputs_of("blast")
    assert {v.kind for v in sanitize.violations()} == {"unattributed-spend"}
    sanitize.reset()


def test_violations_record_but_never_raise(sanitized, monkeypatch):
    engine = loaded_sim().query_engine()
    leak_between_waves(engine, monkeypatch)
    measurement = engine.q3_descendants_of("blast")  # runs to completion
    assert measurement.refs
    assert sanitize.violations()
    sanitize.reset()


# -- off means off -----------------------------------------------------------


def _exercise(meter: Meter, clock: SimClock):
    meter.record_request("s3", "PutObject")
    meter.record_transfer_in("s3", 4096)
    meter.adjust_stored("s3", 4096)
    with meter.scoped() as query:
        with meter.scoped():
            meter.record_request("simpledb", "Select")
            meter.record_capacity("dynamodb", read_units=1.5)
    clock.advance(3600.0)
    return query


def test_sanitizer_off_is_byte_identical_on_the_meter(unsanitized, monkeypatch):
    clock_off = SimClock()
    meter_off = Meter(clock_off)
    scope_off = _exercise(meter_off, clock_off)
    monkeypatch.setattr(sanitize, "ACTIVE", True)
    clock_on = SimClock()
    meter_on = Meter(clock_on)
    scope_on = _exercise(meter_on, clock_on)

    off, on = meter_off.snapshot(), meter_on.snapshot()
    assert off == on
    assert scope_off.usage() == scope_on.usage()
    book = PriceBook()
    assert book.cost(off).total == book.cost(on).total
    assert sanitize.violations() == ()


def test_sanitizer_on_leaves_a_whole_run_byte_identical(unsanitized, monkeypatch):
    def run():
        sim = loaded_sim(read_cache="on", planner="cost", placement="mixed")
        engine = sim.query_engine()
        measured = [engine.q2_outputs_of("blast"), engine.q3_descendants_of("blast")]
        return sim.usage(), measured

    off = run()
    monkeypatch.setattr(sanitize, "ACTIVE", True)
    assert run() == off
    assert sanitize.violations() == ()



def test_the_sanitizer_is_off_by_default():
    assert sanitize.ACTIVE is False
    assert loaded_sim().query_engine()._audited is False
