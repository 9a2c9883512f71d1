"""The configuration grid: every deployment the knobs can build answers
exactly what the paper's default deployment answers.

A cell is an architecture plus a :class:`~repro.deployment.Deployment`
(shard layout, DynamoDB indexes, modeled wave width, group-commit
width, read cache, planner, commit threshold) — the one value a cloud's
settings are built from — so a setting's safety net is this one table
instead of a full-suite pass per value. :data:`CELLS` covers every
*pair* of values of the architecture and of every ``Deployment`` field
(``test_the_cells_cover_every_pair``) and contains each knob-variant
configuration CI used to re-run the whole suite under
(:data:`FORMER_CI_ROWS`).

Every cell, with the spend sanitizer on, is a differential against one
default-configuration reference run of the same seeded workload
(``reference_deployment`` in ``tests/oracles.py``):

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
5. on A3, one more client crashes at the cell's fault point (a
   schedule of steps on the cloud's one interpreter); after its daemon
   reboots and the cloud settles, its object's data and provenance (the
   store's ``stored_provenance()`` oracle) are both present or both
   absent (present exactly when the crash came after the commit
   record), and together the A3 cells hit every client fault point.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import NamedTuple

import pytest

from repro.core.base import DATA_BUCKET
from repro.deployment import Deployment
from repro.devtools import sanitize
from repro.migration import parse_migration_spec
from repro.passlib.capture import PassSystem
from repro.sim import PUMP, Simulation
from tests.oracles import (
    GRID_CONSISTENCY,
    GRID_EVENTS,
    GRID_SEED,
    observe_deployment,
    reference_deployment,
    store_names,
)

ARCHITECTURES = {"A2": "s3+simpledb", "A3": "s3+simpledb+sqs"}
COMPOSITE = "name/nonce+*,type/nonce,name,input"


class Cell(NamedTuple):
    arch: str
    deployment: Deployment
    migrate: str             # target layout, ``repro demo --migrate`` grammar
    crash: str | None        # A3 client fault point (step 5)


#: The grid. Its first seven rows are the former CI knob-variant passes
#: (architecture and shard count chosen freely); the rest complete the
#: pairwise cover. Deployment columns: shards, placement, ddb_indexes,
#: concurrency, write_batch, read_cache, planner.
CELLS = (
    Cell("A2", Deployment(4, "sdb", "", 4, 1, "off", "off"), "shards=2", None),
    Cell("A3", Deployment(4, "mixed", "", 4, 1, "off", "off"), "shards=2", "a3.log.begin"),
    Cell("A2", Deployment(3, "ddb", "name,input", 4, 1, "off", "off"),
         "shards=4,placement=mixed", None),
    Cell("A2", Deployment(4, "mixed", "name,input", 4, 1, "off", "off"), "placement=ddb", None),
    Cell("A2", Deployment(1, "sdb", "", 1, 8, "off", "off"), "shards=3", None),
    Cell("A3", Deployment(1, "sdb", "", 4, 1, "on", "off"), "shards=4",
         "a3.log.after_begin_record"),
    Cell("A3", Deployment(3, "ddb", COMPOSITE, 4, 1, "off", "cost"), "shards=2",
         "a3.log.after_temp_put"),
    Cell("A3", Deployment(4, "sdb", "name,input", 1, 8, "on", "cost"),
         "shards=2,placement=mixed", "a3.log.after_record"),
    Cell("A2", Deployment(4, "mixed", COMPOSITE, 1, 8, "on", "cost"), "shards=3", None),
    Cell("A2", Deployment(3, "ddb", "", 1, 8, "on", "cost"), "shards=1,placement=sdb", None),
    Cell("A3", Deployment(1, "sdb", COMPOSITE, 4, 8, "off", "off"), "shards=2,placement=ddb",
         "a3.log.before_commit"),
    Cell("A2", Deployment(1, "sdb", "name,input", 1, 1, "off", "cost"), "placement=ddb", None),
    Cell("A3", Deployment(4, "sdb", COMPOSITE, 1, 1, "on", "off"), "shards=2,placement=mixed",
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

#: The values each axis takes across the grid: the architecture and
#: every :class:`Deployment` field (as the deployment holds it), with
#: ``shards`` and ``placement`` varying together as the layout.
AXES = {
    "arch": ("A2", "A3"),
    "layout": ((1, "sdb"), (4, "sdb"), (4, "mixed"), (3, "ddb")),
    "ddb_indexes": ("", "name,input", COMPOSITE),
    "concurrency": (1, 4),
    "write_batch": (1, 8),
    "read_cache": ("", "on"),
    "planner": ("off", "cost"),
    "commit_threshold": (10,),
}


def axis_values(cell: Cell) -> dict:
    values = {"arch": cell.arch}
    for spec in dataclasses.fields(Deployment):
        values[spec.name] = getattr(cell.deployment, spec.name)
    values["layout"] = (values.pop("shards"), values.pop("placement"))
    return values


#: Events stored per migration step.
STEP_BATCH = 4


def run(cell: Cell) -> tuple[Simulation, dict, list]:
    """Steps 1, 2 and 4 on ``cell``; returns the simulation, its
    observations and every query measurement taken."""
    sim = Simulation(
        ARCHITECTURES[cell.arch], seed=GRID_SEED, consistency=GRID_CONSISTENCY,
        deployment=cell.deployment,
    )
    half = len(GRID_EVENTS) // 2
    sim.store_events(GRID_EVENTS[:half], collect=False)
    migration = sim.start_migration(**parse_migration_spec(cell.migrate))
    rest = iter(GRID_EVENTS[half:])
    while migration.step():
        for event in itertools.islice(rest, STEP_BATCH):
            sim.store.store(event)
        sim.apply(PUMP)
    sim.store_events(rest, collect=False)
    measured: list = []
    return sim, observe_deployment(sim, measured), measured


def crash_one_client(sim: Simulation, point: str) -> bool:
    """Step 5: a second A3 client dies at ``point`` storing a new object;
    its commit daemon restarts with no memory and the cloud settles.
    Returns whether the object's data is visible — asserting first that
    its provenance agrees."""
    doomed = sim.add_client()
    daemon = doomed.replace("client", "daemon")
    pas = PassSystem(workload="doomed")
    with pas.process("doomed", argv=point) as proc:
        proc.write("doomed/out.dat", b"never acknowledged")
        proc.close("doomed/out.dat")
    (victim,) = pas.drain_flushes()
    sim.submit(doomed, [victim])
    sim.apply((doomed, "crash", point))
    assert sim.apply((doomed, "store", None)) == point
    sim.replay([(daemon, "reboot", None), (daemon, "pump", None), ("cloud", "settle", None)])
    data = sim.account.s3.exists_authoritative(DATA_BUCKET, victim.subject.name)
    provenance = victim.subject in sim.store.stored_provenance()
    assert data == provenance, f"crash at {point}: data={data}, provenance={provenance}"
    return data


@pytest.mark.parametrize(
    "cell",
    CELLS,
    ids=[
        f"{i:02d}-{c.arch}-{c.deployment.shards}{c.deployment.placement}"
        for i, c in enumerate(CELLS)
    ],
)
def test_cell_matches_the_default_deployment(cell, monkeypatch):
    monkeypatch.setattr(sanitize, "ACTIVE", True)
    sim, seen, measured = run(cell)
    expected = reference_deployment()
    for key in ("q1", "q1_all", "scatter", "reads", "snapshot", "repeated", "after_burst"):
        assert seen[key] == expected[key], key
    assert seen["after_burst"] != seen["scatter"]  # the burst is visible

    account = sim.account
    assert account.simpledb.size_audit() == []
    assert account.dynamodb.size_audit() == []
    assert all(account.sqs.exact_message_count(url) == 0 for url in store_names(account.sqs))
    for measurement in measured:
        assert sum(ops for _, ops, _ in measurement.per_shard) == measurement.operations
        if cell.deployment.concurrency == 1:
            assert measurement.latency == measurement.sequential_latency
        else:
            assert measurement.latency <= measurement.sequential_latency
    if cell.deployment.concurrency > 1:
        wave = sim.query_engine().q1_all()  # one wave, one stream per shard
        assert len(wave.per_shard) > 1
        assert wave.latency < wave.sequential_latency
    if account.read_cache is not None:
        assert account.read_cache.max_served_age <= account.read_cache.staleness_bound
    assert sanitize.violations() == ()

    if cell.crash is not None:
        assert crash_one_client(sim, cell.crash) == (cell.crash == "a3.log.done")


def test_the_cells_cover_every_pair():
    # Every Deployment field is an axis, so a field added later cannot
    # escape the cover.
    assert all(set(axis_values(cell)) == set(AXES) for cell in CELLS)
    covered = {
        frozenset(pair)
        for cell in CELLS
        for pair in itertools.combinations(axis_values(cell).items(), 2)
    }
    for (a, a_values), (b, b_values) in itertools.combinations(AXES.items(), 2):
        for pair in itertools.product(a_values, b_values):
            assert frozenset({(a, pair[0]), (b, pair[1])}) in covered, (a, b, pair)
    assert len(CELLS) <= 14


def test_the_cells_contain_every_former_ci_row():
    # The former rows left the shard count free.
    deployments = [dataclasses.replace(cell.deployment, shards=1) for cell in CELLS]
    for row in FORMER_CI_ROWS:
        knobs = {knob: value for knob, value in row.items() if knob != "sanitize"}
        assert Deployment(**knobs) in deployments, row


def test_the_a3_cells_crash_at_every_client_fault_point():
    sim = Simulation(seed=GRID_SEED)
    sim.store_events(GRID_EVENTS[:1], collect=False)
    assert {cell.crash for cell in CELLS if cell.arch == "A3"} == set(sim.store.faults.points_seen)
    assert all(cell.crash is None for cell in CELLS if cell.arch == "A2")
