"""One cloud, declared once: ``Simulation`` and ``ClientFleet`` are the
same :class:`~repro.sim.Cloud` at one client and at N.

The knobs meet in the shared base, so both drivers must hand out the
same engines for the same knobs, reject the same bad input with the
same words, and inherit — not re-implement — the engine hand-out, the
migration bootstrap and the settle loop.
"""

from __future__ import annotations

import pytest

from repro.bench import MatrixCell
from repro.core import ARCHITECTURES, make_architecture
from repro.fleet import ClientFleet
from repro.sim import Cloud, Simulation

KNOB_SETS = [
    dict(shards=1, placement="sdb", concurrency=1, ddb_indexes="",
         write_batch=1, read_cache="off", planner="off"),
    dict(shards=4, placement="mixed", concurrency=3, ddb_indexes="name,input",
         write_batch=8, read_cache="on", planner="cost"),
]


@pytest.mark.parametrize("architecture", ["s3+simpledb", "s3+simpledb+sqs"])
@pytest.mark.parametrize("knobs", KNOB_SETS, ids=["paper", "everything-on"])
def test_both_drivers_hand_out_the_same_engine(architecture, knobs):
    def shape(cloud):
        engine = cloud.query_engine()
        assert engine.routing is cloud.routing
        store = cloud.stores()[0]
        assert store.routing is cloud.routing
        return (
            engine.concurrency,
            engine.planner_mode,
            engine.routing.current.placement,
            engine.cache is not None,
            store.coalescer.batch_size,
        )

    sim = Simulation(architecture, seed=3, **knobs)
    fleet = ClientFleet(2, architecture, seed=3, **knobs)
    assert shape(sim) == shape(fleet) == (
        knobs["concurrency"],
        knobs["planner"],
        sim.routing.current.placement,
        knobs["read_cache"] == "on",
        knobs["write_batch"],
    )


def test_unknown_architecture_is_rejected_once():
    expected = f"unknown architecture 'a4'; expected one of {sorted(ARCHITECTURES)}"
    for build in (
        lambda: Simulation("a4"),
        lambda: ClientFleet(2, "a4"),
        lambda: make_architecture("a4", account=None),
    ):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == expected


@pytest.mark.parametrize(
    "build", [lambda **kw: Simulation("s3", **kw), lambda **kw: ClientFleet(2, "s3", **kw)],
    ids=["simulation", "fleet"],
)
def test_s3_has_no_write_path_to_batch(build):
    with pytest.raises(ValueError, match="no provenance write path to batch"):
        build(write_batch=8)
    # None — the default width — stays fine on s3.
    assert build(write_batch=None).query_engine().q1_all().result_count == 0


def test_matrix_cells_name_the_architectures_they_support():
    with pytest.raises(ValueError, match=r"one of \['s3\+simpledb', 's3\+simpledb\+sqs'\]"):
        MatrixCell(key="scan", architecture="s3")


def test_the_drivers_inherit_the_wiring():
    for name in ("new_store", "query_engine", "start_migration", "settle"):
        shared = getattr(Cloud, name)
        assert getattr(Simulation, name) is shared
        assert getattr(ClientFleet, name) is shared


def test_the_environment_sets_no_knob(monkeypatch):
    """A knob is set by its argument or its demo flag, nowhere else: the
    variables that used to supply defaults change nothing, even set."""
    from repro.devtools import sanitize

    for name, value in {
        "REPRO_BACKEND_PLACEMENT": "ddb", "REPRO_DDB_INDEXES": "name",
        "REPRO_QUERY_CONCURRENCY": "4", "REPRO_WRITE_BATCH": "8",
        "REPRO_READ_CACHE": "1", "REPRO_QUERY_PLANNER": "cost",
        "REPRO_SANITIZE": "1",
    }.items():
        monkeypatch.setenv(name, value)
    sim = Simulation("s3+simpledb+sqs", seed=3)
    engine = sim.query_engine()
    assert (
        engine.concurrency,
        engine.planner_mode,
        engine.cache,
        engine._audited,
        sim.routing.current.placement,
        sim.store.coalescer.batch_size,
        sim.store.commit_daemon.write_batch,
        sim.account.provenance_backends()["ddb"].index_specs,
    ) == (1, "off", None, False, ("sdb",), 1, 1, ())
    assert not sanitize.ACTIVE
