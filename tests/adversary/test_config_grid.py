"""The configuration grid: every deployment the knobs can build answers
exactly what the paper's default deployment answers.

Each knob (architecture, shard layout, DynamoDB indexes, modeled wave
width, group-commit width, read cache, planner) is set by its
constructor argument and nowhere else, so a knob's safety net is this
one table instead of a full-suite pass per knob value. :data:`CELLS`
covers every *pair* of knob values (``test_the_cells_cover_every_pair``)
and contains each knob-variant configuration CI used to re-run the whole
suite under (:data:`FORMER_CI_ROWS`).

Every cell, with the spend sanitizer on, is a differential against one
default-configuration reference run of the same seeded workload:

1. store the workload under eventual consistency while a live
   migration to a different layout is stepped between event batches,
   then settle;
2. Q1 of every latest version, ``q1_all``, Q2, Q3, Q4, ``store.read`` of
   every object and the authoritative item snapshot equal the
   reference's;
3. invariants hold: every size audit is empty, every WAL queue is
   drained, per-shard operations sum to the query's, the cache never
   served past its staleness bound, and the modeled latency is the
   sequential sum at width 1 and below it for a multi-stream wave at
   width 4;
4. Q2–Q4 repeated, then a write burst, then Q2–Q4 again — both rounds
   equal the reference's;
5. on A3, one more client crashes at the cell's fault point; after
   settling, its object's data and provenance are both present or both
   absent (present exactly when the crash came after the commit
   record), and together the A3 cells hit every client fault point.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

import pytest

from repro.aws.account import ConsistencyConfig
from repro.aws.faults import FaultPlan
from repro.core.base import DATA_BUCKET
from repro.devtools import sanitize
from repro.errors import ClientCrash
from repro.migration import parse_migration_spec
from repro.passlib.capture import PassSystem
from repro.sharding import authoritative_snapshot
from repro.sim import Simulation
from repro.workloads import CombinedWorkload

ARCHITECTURES = {"A2": "s3+simpledb", "A3": "s3+simpledb+sqs"}
COMPOSITE = "name/nonce+*,type/nonce,name,input"


class Cell(NamedTuple):
    arch: str
    shards: int
    placement: str
    ddb_indexes: str
    concurrency: int
    write_batch: int
    read_cache: str
    planner: str
    migrate: str             # target layout, ``repro demo --migrate`` grammar
    crash: str | None        # A3 client fault point (step 5)

    def knobs(self) -> dict:
        return dict(
            shards=self.shards, placement=self.placement,
            ddb_indexes=self.ddb_indexes, concurrency=self.concurrency,
            write_batch=self.write_batch, read_cache=self.read_cache,
            planner=self.planner,
        )


#: The grid. Its first seven rows are the former CI knob-variant passes
#: (architecture and shard count chosen freely); the rest complete the
#: pairwise cover.
CELLS = (
    Cell("A2", 4, "sdb", "", 4, 1, "off", "off", "shards=2", None),
    Cell("A3", 4, "mixed", "", 4, 1, "off", "off", "shards=2", "a3.log.begin"),
    Cell("A2", 3, "ddb", "name,input", 4, 1, "off", "off", "shards=4,placement=mixed", None),
    Cell("A2", 4, "mixed", "name,input", 4, 1, "off", "off", "placement=ddb", None),
    Cell("A2", 1, "sdb", "", 1, 8, "off", "off", "shards=3", None),
    Cell("A3", 1, "sdb", "", 4, 1, "on", "off", "shards=4", "a3.log.after_begin_record"),
    Cell("A3", 3, "ddb", COMPOSITE, 4, 1, "off", "cost", "shards=2", "a3.log.after_temp_put"),
    Cell("A3", 4, "sdb", "name,input", 1, 8, "on", "cost", "shards=2,placement=mixed",
         "a3.log.after_record"),
    Cell("A2", 4, "mixed", COMPOSITE, 1, 8, "on", "cost", "shards=3", None),
    Cell("A2", 3, "ddb", "", 1, 8, "on", "cost", "shards=1,placement=sdb", None),
    Cell("A3", 1, "sdb", COMPOSITE, 4, 8, "off", "off", "shards=2,placement=ddb",
         "a3.log.before_commit"),
    Cell("A2", 1, "sdb", "name,input", 1, 1, "off", "cost", "placement=ddb", None),
    Cell("A3", 4, "sdb", COMPOSITE, 1, 1, "on", "off", "shards=2,placement=mixed",
         "a3.log.done"),
)

#: The knob-variant passes CI ran the whole suite under before this grid
#: (a knob not named is at its default). The ``sanitize`` row is the
#: plain width-4 row: every cell runs sanitized.
FORMER_CI_ROWS = (
    dict(concurrency=4),
    dict(concurrency=4, placement="mixed"),
    dict(concurrency=4, placement="ddb", ddb_indexes="name,input"),
    dict(concurrency=4, placement="mixed", ddb_indexes="name,input"),
    dict(write_batch=8),
    dict(concurrency=4, sanitize=True),
    dict(concurrency=4, read_cache="on"),
    dict(concurrency=4, placement="ddb", ddb_indexes=COMPOSITE, planner="cost"),
)

#: The values each knob takes across the grid.
AXES = {
    "arch": ("A2", "A3"),
    "layout": ((1, "sdb"), (4, "sdb"), (4, "mixed"), (3, "ddb")),
    "ddb_indexes": ("", "name,input", COMPOSITE),
    "concurrency": (1, 4),
    "write_batch": (1, 8),
    "read_cache": ("off", "on"),
    "planner": ("off", "cost"),
}


def axis_values(cell: Cell) -> dict:
    values = cell._asdict()
    values["layout"] = (cell.shards, cell.placement)
    return {axis: values[axis] for axis in AXES}


SEED = 5
CONSISTENCY = ConsistencyConfig.eventual(window=2.0, immediate_fraction=0.4)
EVENTS = CombinedWorkload().generate(seed=3, scale=0.02).events
PROGRAM = "blast"
#: Versions 2..3: few enough that a composite ``type/nonce`` range slice
#: is the cost planner's pick, and its upper bound holds data.
Q4_RANGE = (2, 3)
#: Events stored per migration step.
STEP_BATCH = 4


def burst_events():
    """New outputs of :data:`PROGRAM`, each written twice (v1 and v2), so
    the burst changes Q2, Q3 and Q4 alike."""
    pas = PassSystem(workload="burst")
    pas.stage_input("burst/in.dat", b"burst input")
    for round_ in range(2):
        for i in range(3):
            with pas.process(PROGRAM, argv=f"-burst {round_}.{i}") as proc:
                proc.read("burst/in.dat")
                proc.write(f"burst/out{i}.dat", f"{round_}.{i}".encode())
                proc.close(f"burst/out{i}.dat")
    return pas.drain_flushes()


def latest_refs(events) -> list:
    latest = {}
    for ref in sorted(event.subject for event in events):
        latest[ref.name] = ref
    return list(latest.values())


def scatter_round(engine) -> tuple:
    return (
        engine.q2_outputs_of(PROGRAM),
        engine.q3_descendants_of(PROGRAM),
        engine.q4_time_range(*Q4_RANGE),
    )


def observe(sim, engine, measured: list) -> dict:
    """Step 2's observations, every query measurement kept for step 3."""
    point = [engine.q1(ref) for ref in latest_refs(EVENTS)]
    everything = engine.q1_all()
    scatter = scatter_round(engine)
    measured.extend([*point, everything, *scatter])
    reads = {}
    for ref in latest_refs(EVENTS):
        result = sim.read(ref.name)
        reads[ref.name] = (
            result.subject,
            result.data.md5() if result.data is not None else None,
            result.bundle,
            result.consistent,
        )
    return {
        "q1": [m.refs for m in point],
        "q1_all": everything.refs,
        "scatter": [m.refs for m in scatter],
        "reads": reads,
        "snapshot": authoritative_snapshot(sim.account, sim.routing.current),
    }


def run(cell: Cell | None) -> tuple[Simulation, dict, list]:
    """Steps 1, 2 and 4 on ``cell`` (``None``: the default deployment,
    no migration); returns the simulation, its observations and every
    query measurement taken."""
    if cell is None:
        sim = Simulation(seed=SEED, consistency=CONSISTENCY)
        sim.store_events(EVENTS, collect=False)
    else:
        sim = Simulation(
            ARCHITECTURES[cell.arch], seed=SEED, consistency=CONSISTENCY,
            **cell.knobs(),
        )
        half = len(EVENTS) // 2
        sim.store_events(EVENTS[:half], collect=False)
        migration = sim.start_migration(**parse_migration_spec(cell.migrate))
        rest = iter(EVENTS[half:])
        while migration.step():
            for event in itertools.islice(rest, STEP_BATCH):
                sim.store.store(event)
            sim.pump()
        sim.store_events(rest, collect=False)
    engine = sim.query_engine()
    measured: list = []
    seen = observe(sim, engine, measured)
    repeated = scatter_round(engine)
    sim.store_events(burst_events(), collect=False)
    after_burst = scatter_round(engine)
    measured.extend([*repeated, *after_burst])
    seen["repeated"] = [m.refs for m in repeated]
    seen["after_burst"] = [m.refs for m in after_burst]
    return sim, seen, measured


@lru_cache(maxsize=None)
def reference() -> dict:
    return run(None)[1]


def crash_one_client(sim: Simulation, point: str) -> bool:
    """Step 5: a second A3 client dies at ``point`` storing a new object;
    its commit daemon restarts with no memory and the cloud settles.
    Returns whether the object's data is visible — asserting first that
    its provenance agrees."""
    client = sim.new_store(faults=FaultPlan().crash_at(point), client_id="doomed")
    pas = PassSystem(workload="doomed")
    with pas.process("doomed", argv=point) as proc:
        proc.write("doomed/out.dat", b"never acknowledged")
        proc.close("doomed/out.dat")
    (victim,) = pas.drain_flushes()
    with pytest.raises(ClientCrash):
        client.store(victim)
    client.restart_commit_daemon().drain()
    sim.settle()
    data = sim.account.s3.exists_authoritative(DATA_BUCKET, victim.subject.name)
    provenance = victim.subject.item_name in authoritative_snapshot(
        sim.account, sim.routing.current
    )
    assert data == provenance, f"crash at {point}: data={data}, provenance={provenance}"
    return data


@pytest.mark.parametrize(
    "cell", CELLS, ids=[f"{i:02d}-{c.arch}-{c.shards}{c.placement}" for i, c in enumerate(CELLS)]
)
def test_cell_matches_the_default_deployment(cell, monkeypatch):
    monkeypatch.setattr(sanitize, "ACTIVE", True)
    sim, seen, measured = run(cell)
    expected = reference()
    for key in ("q1", "q1_all", "scatter", "reads", "snapshot", "repeated", "after_burst"):
        assert seen[key] == expected[key], key
    assert seen["after_burst"] != seen["scatter"]  # the burst is visible

    account = sim.account
    assert account.simpledb.size_audit() == []
    assert account.dynamodb.size_audit() == []
    assert all(account.sqs.exact_message_count(url) == 0 for url in account.sqs.list_queues())
    for measurement in measured:
        assert sum(ops for _, ops, _ in measurement.per_shard) == measurement.operations
        if cell.concurrency == 1:
            assert measurement.latency == measurement.sequential_latency
        else:
            assert measurement.latency <= measurement.sequential_latency
    if cell.concurrency > 1:
        wave = sim.query_engine().q1_all()  # one wave, one stream per shard
        assert len(wave.per_shard) > 1
        assert wave.latency < wave.sequential_latency
    if account.read_cache is not None:
        assert account.read_cache.max_served_age <= account.read_cache.staleness_bound
    assert sanitize.violations() == ()

    if cell.crash is not None:
        assert crash_one_client(sim, cell.crash) == (cell.crash == "a3.log.done")


def test_the_cells_cover_every_pair():
    covered = {
        pair
        for cell in CELLS
        for pair in itertools.combinations(axis_values(cell).items(), 2)
    }
    for (a, a_values), (b, b_values) in itertools.combinations(AXES.items(), 2):
        for pair in itertools.product(a_values, b_values):
            assert ((a, pair[0]), (b, pair[1])) in covered, (a, b, pair)
    assert len(CELLS) <= 14


def test_the_cells_contain_every_former_ci_row():
    defaults = dict(placement="sdb", ddb_indexes="", concurrency=1, write_batch=1,
                    read_cache="off", planner="off")
    projections = [{knob: getattr(cell, knob) for knob in defaults} for cell in CELLS]
    for row in FORMER_CI_ROWS:
        wanted = {**defaults, **row}
        wanted.pop("sanitize", None)
        assert wanted in projections, row


def test_the_a3_cells_crash_at_every_client_fault_point():
    plan = FaultPlan()
    sim = Simulation(seed=SEED, faults=plan)
    sim.store_events(EVENTS[:1], collect=False)
    assert {cell.crash for cell in CELLS if cell.arch == "A3"} == set(plan.points_seen)
    assert all(cell.crash is None for cell in CELLS if cell.arch == "A2")
