"""A query's spend is read from its own meter scope — and equals what
two account-wide snapshots and a ``Usage`` diff would have read.

* **Differential** — for every query class × placement × read cache
  (off / first issue / memo hit) × planner × wave width, the returned
  measurement equals a ``Meter.snapshot()`` delta the *test* takes
  around the call.
* **Determinism** — two fresh seeded deployments issue the identical
  service request sequence at ``concurrency=4``: a wave is one list,
  run in order.
* **Exception safety** — a query that raises mid-wave leaves the
  meter's scope stack empty and the same engine measures the next
  query correctly.
* **No zero entries** — a read-only query leaves no zero-valued key in
  any scope's ``Usage`` (the snapshot diff never had any).
* **Scope contract** — a scope is a plain context manager: nested
  scopes are both credited in record order, a scope stays readable
  after it closes, a raising block pops it; read directly it prices and
  counts exactly as its ``Usage`` would, and a query builds no ``Usage``
  until its measurement's is read — then exactly one.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.aws import billing
from repro.aws.account import ConsistencyConfig
from repro.aws.billing import ELASTICACHE, Meter, MeterScope, Usage
from repro.clock import SimClock
from repro.devtools import sanitize
from repro.errors import ServiceUnavailable
from repro.query.latency import DEFAULT_LATENCY_MODEL
from repro.sim import Simulation
from repro.workloads import CombinedWorkload

SRC = str(Path(__file__).resolve().parents[2] / "src")
EVENTS = CombinedWorkload().generate(seed=7, scale=0.1).events
SUBJECT = max(event.subject for event in EVENTS)

LAYOUTS = {
    "sdb": dict(placement="sdb", ddb_indexes=""),
    "ddb-gsi": dict(placement="ddb", ddb_indexes="name,input"),
    "mixed": dict(placement="mixed", ddb_indexes=""),
}


def loaded(architecture="s3+simpledb", consistency=None, **knobs) -> Simulation:
    """A seeded 4-shard deployment holding EVENTS, every knob pinned."""
    settings = dict(
        seed=5, shards=4, placement="sdb", ddb_indexes="", write_batch=1,
        read_cache="off", planner="off", concurrency=1,
    )
    settings.update(knobs)
    if architecture == "s3":
        del settings["write_batch"]
    sim = Simulation(
        architecture, consistency=consistency or ConsistencyConfig.strong(), **settings
    )
    sim.store_events(EVENTS, collect=False)
    sim.settle()
    return sim


def issue(engine, name):
    if name == "q1":
        return engine.q1(SUBJECT)
    if name == "q1_all":
        return engine.q1_all()
    if name == "q2":
        return engine.q2_outputs_of("blast")
    if name == "q3":
        return engine.q3_descendants_of("blast")
    return engine.q4_time_range(1, 2)


# -- differential: scope-derived == snapshot-derived -------------------------


def assert_equals_snapshot_delta(measurement, spent: Usage) -> None:
    cache_ops = spent.request_count(ELASTICACHE)
    cache_bytes = spent.transfer_out(ELASTICACHE)
    assert measurement.operations == spent.request_count() - cache_ops
    assert measurement.bytes_out == spent.transfer_out() - cache_bytes
    assert measurement.cache_operations == cache_ops
    assert measurement.cache_bytes_out == cache_bytes
    for field in dataclasses.fields(Usage):
        if field.name != "box_usage_hours":
            assert getattr(measurement.usage, field.name) == getattr(spent, field.name), field.name
    assert measurement.usage.box_usage_hours == pytest.approx(
        spent.box_usage_hours, rel=1e-9, abs=1e-18
    )
    assert sum(ops for _, ops, _ in measurement.per_shard) == measurement.operations
    assert sum(n for _, _, n in measurement.per_shard) == measurement.bytes_out
    assert sum(ops for _, ops, _ in measurement.per_shard_cache) == cache_ops
    assert sum(n for _, _, n in measurement.per_shard_cache) == cache_bytes
    assert sum(ops for _, ops, _ in measurement.per_backend) == measurement.operations


@pytest.mark.parametrize("concurrency", (1, 4))
@pytest.mark.parametrize("planner", ("off", "cost"))
@pytest.mark.parametrize("read_cache", ("off", "on"))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_measurement_equals_the_snapshot_delta_around_the_call(
    layout, read_cache, planner, concurrency
):
    sim = loaded(
        read_cache=read_cache, planner=planner, concurrency=concurrency,
        **LAYOUTS[layout],
    )
    engine = sim.query_engine()
    meter = sim.account.meter
    # With the cache on the second issue answers from memo entries.
    for _ in range(2 if read_cache == "on" else 1):
        for name in ("q1", "q1_all", "q2", "q3", "q4"):
            before = meter.snapshot()
            measurement = issue(engine, name)
            assert_equals_snapshot_delta(measurement, meter.snapshot() - before)
            assert measurement.refs, name
    if read_cache == "on":
        assert sim.account.read_cache.hits > 0


def test_scan_engine_measurement_equals_the_snapshot_delta():
    sim = loaded("s3", shards=1)
    engine = sim.query_engine()
    meter = sim.account.meter
    for name in ("q1", "q1_all", "q2", "q3", "q4"):
        before = meter.snapshot()
        measurement = issue(engine, name)
        spent = meter.snapshot() - before
        assert measurement.refs
        assert measurement.usage == dataclasses.replace(
            spent, box_usage_hours=measurement.usage.box_usage_hours
        )
        assert measurement.operations == spent.request_count()
        assert measurement.bytes_out == spent.transfer_out()
        assert measurement.latency == measurement.sequential_latency > 0


# -- determinism: one list, run in order -------------------------------------


def test_seeded_runs_issue_identical_request_sequences_at_width_4(monkeypatch):
    log: list[tuple[str, str, int]] = []
    record_request = Meter.record_request

    def logging_record(self, service, op, count=1):
        log.append((service, op, count))
        record_request(self, service, op, count)

    monkeypatch.setattr(Meter, "record_request", logging_record)

    def run() -> list[tuple[str, str, int]]:
        del log[:]
        # Unconverged replicas: every read draws a replica from the
        # account's seeded RNG, so the draw order is part of the run.
        sim = loaded(
            consistency=ConsistencyConfig.eventual(window=2.0, immediate_fraction=0.4),
            placement="mixed", ddb_indexes="name,input", read_cache="on",
            planner="cost", concurrency=4,
        )
        engine = sim.query_engine()
        for name in ("q2", "q3", "q4", "q1_all", "q1", "q3"):
            issue(engine, name)
        return list(log)

    first = run()
    assert len(first) > 100
    assert run() == first


# -- exception safety ----------------------------------------------------------


def test_sharded_query_raising_mid_wave_pops_its_scopes():
    sim = loaded(placement="mixed", ddb_indexes="", concurrency=4)
    engine = sim.query_engine()
    meter = sim.account.meter
    expected = {name: issue(engine, name) for name in ("q1", "q2")}

    # Shard 0 (SimpleDB) answers; shard 1's Scan 503s past the retry
    # budget, so the wave dies in its second stream.
    sim.account.request_faults.fail_next("dynamodb", "Scan", times=4)
    before = meter.snapshot()
    with pytest.raises(ServiceUnavailable):
        engine.q2_outputs_of("blast")
    assert (meter.snapshot() - before).request_count() > 0
    assert meter._scopes == []

    sim.account.request_faults.fail_next("dynamodb", "GetItem", times=4)
    with pytest.raises(ServiceUnavailable):
        engine.q1(SUBJECT)
    assert meter._scopes == []

    for name, measurement in expected.items():
        before = meter.snapshot()
        again = issue(engine, name)
        assert again == measurement
        assert_equals_snapshot_delta(again, meter.snapshot() - before)


def test_scan_query_raising_mid_scan_pops_its_scope():
    sim = loaded("s3", shards=1)
    engine = sim.query_engine()
    meter = sim.account.meter
    expected = engine.q2_outputs_of("blast")

    sim.account.request_faults.fail_next("s3", "HEAD")  # after the LIST
    before = meter.snapshot()
    with pytest.raises(ServiceUnavailable):
        engine.q2_outputs_of("blast")
    assert (meter.snapshot() - before).request_count("s3", "LIST") > 0
    assert meter._scopes == []
    assert engine.q2_outputs_of("blast") == expected


# -- no zero-valued entries ----------------------------------------------------


def _zero_entries(usage: Usage) -> list:
    return [
        (field.name, key)
        for field in dataclasses.fields(Usage)
        if isinstance(getattr(usage, field.name), tuple)
        for key, value in getattr(usage, field.name)
        if field.name != "stored_bytes" and not value
    ]


def test_read_only_dynamodb_query_leaves_no_zero_entries(monkeypatch):
    """A GSI Query records read units only; crediting its 0.0 write
    units used to leave ``('dynamodb-gsi', 0.0)`` in every open scope."""
    scopes: list[MeterScope] = []
    scoped = Meter.scoped

    @contextmanager
    def collecting_scoped(self):
        with scoped(self) as scope:
            scopes.append(scope)
            yield scope

    monkeypatch.setattr(Meter, "scoped", collecting_scoped)
    sim = loaded(placement="ddb", ddb_indexes="name,input", planner="cost")
    engine = sim.query_engine()
    measurements = [issue(engine, name) for name in ("q2", "q3", "q4", "q1")]
    assert sim.account.provenance_backends()["ddb"].gsi_queries > 0
    assert len(scopes) > len(measurements)  # query scopes + stream scopes
    for scope in scopes:
        assert _zero_entries(scope.usage()) == []
    for measurement in measurements:
        assert measurement.usage.read_units() > 0
        assert _zero_entries(measurement.usage) == []


def test_record_capacity_credits_scopes_only_what_it_credits_the_meter():
    sim = loaded(shards=1)
    meter = sim.account.meter
    with meter.scoped() as scope:
        meter.record_capacity("dynamodb-gsi", read_units=0.5)
        meter.record_capacity("dynamodb", write_units=2.0)
        meter.record_capacity("dynamodb")
    assert scope.usage().read_capacity_units == (("dynamodb-gsi", 0.5),)
    assert scope.usage().write_capacity_units == (("dynamodb", 2.0),)


# -- nothing left of the pool ----------------------------------------------------


def test_importing_the_simulation_imports_no_thread_pool():
    probe = "import repro.sim, sys; sys.exit('concurrent.futures' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": SRC}).returncode == 0


def test_every_wave_width_runs_the_same_requests():
    runs = []
    for concurrency in (1, 2, 4, 16):
        sim = loaded(placement="mixed", ddb_indexes="name,input", concurrency=concurrency)
        engine = sim.query_engine()
        measured = [issue(engine, name) for name in ("q2", "q3", "q4", "q1_all")]
        runs.append((sim.usage(), [(m.refs, m.per_shard, m.usage) for m in measured]))
        if concurrency > 1:
            assert all(m.latency < m.sequential_latency for m in measured)
    assert all(run == runs[0] for run in runs[1:])


# -- the scope contract ------------------------------------------------------------


def test_nested_scopes_are_both_credited_in_record_order():
    meter = Meter(SimClock())
    with meter.scoped() as outer:
        meter.record_capacity(billing.DDB, read_units=0.1)
        meter.record_request(billing.SDB, "Query")
        with meter.scoped() as inner:
            meter.record_capacity(billing.DDB, read_units=0.2)
            meter.record_capacity(billing.DDB, read_units=0.3)
            meter.record_request(billing.SDB, "GetAttributes", count=2)
    # Left to right: 0.1 + 0.2 + 0.3 != 0.1 + (0.2 + 0.3) in floats.
    assert outer.usage().read_capacity_units == ((billing.DDB, 0.1 + 0.2 + 0.3),)
    assert inner.usage().read_capacity_units == ((billing.DDB, 0.2 + 0.3),)
    query, get = (billing.SDB_BOX_USAGE_HOURS[op] for op in ("Query", "GetAttributes"))
    assert outer.usage().box_usage_hours == 0.0 + query + get * 2
    assert inner.usage().box_usage_hours == 0.0 + get * 2
    assert (outer.request_count(), inner.request_count()) == (3, 2)


def test_a_scope_stays_readable_after_its_enclosing_scope_closes():
    meter = Meter(SimClock())
    with meter.scoped():
        with meter.scoped() as inner:
            meter.record_request(billing.S3, "GET")
            meter.record_transfer_out(billing.S3, 40)
    meter.record_request(billing.S3, "GET")  # no scope is open any more
    assert meter._scopes == []
    assert inner.requests == (((billing.S3, "GET"), 1),)
    assert (inner.request_count(), inner.transfer_out()) == (1, 40)
    assert inner.usage().bytes_out == ((billing.S3, 40),)


def test_a_raising_block_pops_its_scope_and_reraises():
    meter = Meter(SimClock())
    with pytest.raises(KeyError):
        with meter.scoped() as outer:
            with meter.scoped() as inner:
                meter.record_request(billing.SQS, "SendMessage")
                raise KeyError("boom")
    assert meter._scopes == []
    meter.record_request(billing.SQS, "SendMessage")
    assert outer.request_count() == inner.request_count() == 1


_SERVICES = st.sampled_from([billing.S3, billing.SDB, billing.DDB, ELASTICACHE])
_RECORDS = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"), _SERVICES,
            st.sampled_from(["GET", "Query", "GetAttributes", "Get", "Scan"]),
            st.integers(1, 5),
        ),
        st.tuples(st.just("in"), _SERVICES, st.integers(0, 10**6)),
        st.tuples(st.just("out"), _SERVICES, st.integers(0, 10**6)),
        st.tuples(
            st.just("capacity"), _SERVICES,
            st.floats(0, 50, allow_nan=False), st.floats(0, 50, allow_nan=False),
        ),
        st.tuples(st.just("box"), st.floats(0, 1, allow_nan=False)),
    ),
    max_size=30,
)


@given(_RECORDS)
def test_a_scope_read_directly_agrees_with_its_usage(records):
    meter = Meter(SimClock())
    with meter.scoped() as scope:
        for kind, *args in records:
            record = {
                "request": meter.record_request,
                "in": meter.record_transfer_in,
                "out": meter.record_transfer_out,
                "capacity": meter.record_capacity,
                "box": meter.record_box_usage,
            }[kind]
            record(*args)
    usage = scope.usage()
    seconds = DEFAULT_LATENCY_MODEL.stream_seconds(scope)
    assert seconds.hex() == DEFAULT_LATENCY_MODEL.stream_seconds(usage).hex()
    assert scope.requests == usage.requests
    for service in (None, billing.S3, billing.SDB, billing.DDB, ELASTICACHE):
        assert scope.request_count(service) == usage.request_count(service)
        assert scope.transfer_out(service) == usage.transfer_out(service)


@pytest.mark.parametrize("name", ("q1", "q2"))
def test_a_query_builds_its_usage_only_when_it_is_read(monkeypatch, name):
    """The structural claim behind the cheap measurement: the query
    records its scopes and stored levels and builds no ``Usage`` (the
    sanitizer, off here, sums some); reading ``usage`` builds exactly
    one, and a re-read returns that same object."""
    monkeypatch.setattr(sanitize, "ACTIVE", False)
    engine = loaded().query_engine()
    built: list[Usage] = []
    init = Usage.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Usage, "__init__", counting_init)
    measurement = issue(engine, name)
    assert measurement.refs and measurement.operations
    assert built == []
    usage = measurement.usage
    assert len(built) == 1 and built[0] is usage
    assert measurement.usage is usage and len(built) == 1


#: The public fields ``QueryMeasurement`` has had since it was a frozen
#: dataclass; the record keeps them, and no other.
MEASUREMENT_FIELDS = (
    "refs", "operations", "bytes_out", "usage", "per_shard", "per_backend",
    "latency", "sequential_latency", "cache_operations", "cache_bytes_out",
    "per_shard_cache", "predicted_cost",
)


def _counting(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` to log each call; returns the log."""
    calls: list = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_warm_q1_reuses_its_routing_answers(monkeypatch):
    """The work a warm ``q1`` does besides its read: no ring hash, no new
    ``Site``, no ``Usage`` — and a warm write plan is handed out, not
    rebuilt. The measurement is an immutable record with the
    dataclass's public fields."""
    from repro import sharding
    from repro.migration.handle import Site, WritePlan
    from repro.query.engine import QueryMeasurement

    monkeypatch.setattr(sanitize, "ACTIVE", False)
    engine = loaded().query_engine()
    routing = engine.routing
    item_name = SUBJECT.item_name
    engine.q1(SUBJECT)
    routing.write_plan(item_name)
    hashed = _counting(monkeypatch, sharding, "_hash_point")
    sites = _counting(monkeypatch, Site, "__init__")
    plans = _counting(monkeypatch, WritePlan, "__init__")
    usages = _counting(monkeypatch, Usage, "__init__")
    measurement = engine.q1(SUBJECT)
    assert measurement.refs == (SUBJECT,)
    assert (len(hashed), len(sites), len(usages)) == (0, 0, 0)
    assert routing.write_plan(item_name) is routing.write_plan(item_name)
    assert plans == [] and hashed == []

    assert QueryMeasurement._fields == MEASUREMENT_FIELDS
    public = {
        name for name in dir(measurement)
        if not name.startswith("_") and name not in ("result_count", "speedup")
    }
    assert public == set(MEASUREMENT_FIELDS)
    for name in MEASUREMENT_FIELDS:
        getattr(measurement, name)
        with pytest.raises(AttributeError):
            setattr(measurement, name, 0)
