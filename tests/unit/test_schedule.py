"""The run-file codec: canonical text, validated whole at the boundary."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import schedule
from repro.aws.account import ConsistencyConfig
from repro.aws.backend import parse_index_specs
from repro.bench.matrix import default_cells, quick_cells
from repro.errors import ScheduleFormatError
from repro.fleet import ClientFleet
from repro.schedule import Step
from repro.sim import Cloud, Simulation
from repro.workloads import ZipfianFleetWorkload
from tests.adversary.test_config_grid import ARCHITECTURES, CELLS
from tests.oracles import GRID_CONSISTENCY, GRID_SEED

SAMPLE = [
    ("client-0", "crash", "a3.log.after_temp_put"),
    ("client-0", "store", None),
    ("client-0", "reboot", None),
    ("client-1", "crash", 3),
    ("daemon-0", "reboot", None),
    ("daemon-0", "pump", None),
    ("cloud", "advance", 300.0),
    ("cloud", "migrate", "shards=4,placement=mixed"),
    ("cloud", "settle", None),
]


def sample_text() -> str:
    """The run file of :data:`SAMPLE` applied to two A3 clients."""
    workload = ZipfianFleetWorkload(n_tenants=2, keys_per_tenant=4, n_ops=4)
    events = list(workload.iter_events(random.Random(workload.seed_key(0))))
    fleet = ClientFleet(2, "s3+simpledb+sqs", seed=4)
    backlogs = {"client-0": events[:3], "client-1": events[3:]}
    for name, backlog in backlogs.items():
        fleet.submit(name, backlog)
    fleet.replay(SAMPLE)
    return schedule.dumps(fleet, backlogs)


def rejects(text: str, match: str | None = None) -> ScheduleFormatError:
    with pytest.raises(ScheduleFormatError, match=match) as excinfo:
        schedule.loads(text)
    return excinfo.value


def test_round_trip_is_canonical():
    text = sample_text()
    assert '\n["client-0","crash","a3.log.after_temp_put"],\n' in text
    run = schedule.loads(text)
    assert run.steps == SAMPLE
    assert all(isinstance(step, Step) for step in run.steps)
    assert [len(events) for events in run.backlogs.values()] == [3, 2]
    assert schedule.dumps(Cloud.from_run(run), run.backlogs) == text


def header_round_trips(architecture, deployment, consistency=None, seed=0):
    cloud = Cloud(architecture, seed, consistency, deployment)
    cloud.add_client()
    run = schedule.loads(schedule.dumps(cloud, {}))
    assert (run.architecture, run.seed) == (architecture, seed)
    assert run.consistency == cloud.account.consistency
    assert run.deployment == deployment


@pytest.mark.parametrize("cell", default_cells() + quick_cells(), ids=lambda cell: cell.key)
def test_the_header_round_trips_every_matrix_deployment(cell):
    header_round_trips(cell.architecture, cell.deployment, seed=3007)


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: f"{cell.arch}-{cell.migrate}")
def test_the_header_round_trips_every_grid_deployment(cell):
    header_round_trips(
        ARCHITECTURES[cell.arch], cell.deployment, GRID_CONSISTENCY, GRID_SEED
    )


def test_dumps_refuses_a_setting_it_cannot_write_back():
    # A placement map is kept as its spec string, so its run replays.
    workload = ZipfianFleetWorkload(n_tenants=2, keys_per_tenant=4, n_ops=6)
    events = list(workload.iter_events(random.Random(workload.seed_key(0))))
    sim = Simulation("s3+simpledb", seed=5, shards=2, placement={0: "sdb", 1: "ddb"})
    assert sim.deployment.placement == "0:sdb,1:ddb"
    sim.store_events(events)
    replayed = Cloud.from_run(schedule.loads(schedule.dumps(sim, {"client-0": events})))
    assert replayed.account.meter.snapshot() == sim.account.meter.snapshot()
    assert replayed.routing.current.placement == ("sdb", "ddb")
    # Index names are free text: a tuple of IndexSpecs has no spec string.
    indexes = parse_index_specs("name,input")
    with pytest.raises(ValueError, match="ddb_indexes"):
        schedule.dumps(Cloud("s3+simpledb", 0, placement="ddb", ddb_indexes=indexes), {})
    with pytest.raises(ValueError, match="client-3"):
        schedule.dumps(Simulation("s3"), {"client-3": []})


# -- rejection: a run file is outside input ------------------------------------


def test_rejects_non_json_and_truncation():
    rejects("steps: [client-0 store]", "not JSON")
    text = sample_text()
    for cut in (len(text) // 3, len(text) - 5, len(text) - 2):
        rejects(text[:cut], "not JSON")


def test_rejects_trailing_garbage():
    rejects(sample_text() + "[]", "trailing garbage")


def test_rejects_version_skew_and_foreign_documents():
    text = sample_text()
    error = rejects(text.replace('"version":1', '"version":2'), "unsupported run file version 2")
    assert error.line == 1
    for foreign in ('[]', '{"format":"repro-fault-schedule","version":1,"steps":[]}',
                    '{"events":0,"format":"repro-prov-trace","version":1,"workload":"x"}'):
        rejects(foreign, "not a repro-run document")
    rejects(text.replace('"seed":4,', '"seed":4,"note":1,'), "exactly the keys")
    rejects(text[: text.index('"steps":[')] + '"steps":{}}\n', "steps must be a list")


@pytest.mark.parametrize("old, new, match", [
    ('"architecture":"s3+simpledb+sqs"', '"architecture":["s3"]', "unknown architecture"),
    ('"seed":4', '"seed":4.5', "seed must be an integer"),
    ('"planner":"off"', '"planner":"bogus"', "deployment: unknown planner mode"),
    ('"shards":1', '"shards":true', "wrong deployment field type"),
    ('"window":0.0', '"window":"0"', "wrong consistency field type"),
    (',"sqs_hosts":8', "", "consistency must name exactly"),
    ('"n_replicas":1', '"n_replicas":0', "consistency: n_replicas must be an integer >= 1"),
    ('"n_replicas":1', '"n_replicas":1.5', "consistency: n_replicas must be an integer"),
    ('"sqs_sample_fraction":1.0', '"sqs_sample_fraction":-1.0', "consistency: sqs_sample"),
    ('"client-1":[', '"client-2":[', "backlogs must map client-0"),
    ('"pending":{"client-0":3,', '"pending":{"client-0":4,', "pending must map each client"),
    ('"pending":{"client-0":3,', '"pending":{"client-0":true,', "pending must map each client"),
    ('"client-0":3,"client-1":2', '"client-1":2,"client-0":3', "pending must map each client"),
])
def test_rejects_a_malformed_header(old, new, match):
    text = sample_text()
    assert old in text
    rejects(text.replace(old, new, 1), match)


@pytest.mark.parametrize("old, new, match", [
    ('["daemon-0","pump",null]', '["migrator","pump",null]', "step 5: unknown actor .migrator."),
    ('["daemon-0","pump",null]', '["client-0","pump",null]',
     "step 5: unknown action 'pump' for client-0"),
    ('["daemon-0","pump",null]', '["daemon-0","crash",1]',
     "step 5: unknown action 'crash' for daemon-0"),
    ('["client-1","crash",3]', '["client-7","crash",3]', "step 3: the run has no client-7"),
    ('["client-1","crash",3]', '["client-1","crash",true]', "step 3: wrong argument"),
    ('["client-1","crash",3]', '["client-1","crash",0]', "step 3: wrong argument"),
    ('["cloud","advance",300.0]', '["cloud","advance","soon"]', "step 6: wrong argument"),
    ('"shards=4,placement=mixed"', '"shards=0"', "step 7: wrong argument"),
    ('["client-0","store",null]', '["client-0","store",1]', "step 1: wrong argument"),
    ('["cloud","settle",null]', '["cloud","nap",null]', "step 8: unknown action 'nap'"),
])
def test_rejects_a_malformed_step(old, new, match):
    text = sample_text()
    assert old in text
    rejects(text.replace(old, new), match)


def test_a_malformed_event_names_its_line():
    text = sample_text()
    lines = text.splitlines()
    number = lines.index('"client-0":[') + 3  # client-0's second event
    event = json.loads(lines[number - 1].rstrip(","))
    bundle = event["bundle"]

    def without(mapping: dict, key: str) -> dict:
        return {name: value for name, value in mapping.items() if name != key}

    for damage in (
        {**event, "bundle": {**bundle, "subject": ["x", True]}},  # a bool ref version
        {**event, "bundle": without(bundle, "kind")},
        {**event, "bundle": {**bundle, "records": [*bundle["records"], ["attr", "int", 3]]}},
        {**event, "data": ["carved", "x", 3]},
        {**event, "data": ["bytes", "!!not base64!!"]},
        {**event, "data": ["synthetic", "s", True]},
        {**event, "surprise": 1},
        {**event, "ancestors": {}},
        without(event, "data"),
        [1, 2, 3],
    ):
        line = json.dumps(damage, sort_keys=True, separators=(",", ":"))
        error = rejects(text.replace(lines[number - 1], line + ","), "client-0 event 1: ")
        assert error.line == number
        assert f"(line {number})" in str(error)


def test_a_bad_run_is_never_partially_applied():
    """Loading is all or nothing: a defect in the last step rejects the
    whole file, so no cloud is built and no step runs."""
    text = sample_text().replace('["cloud","settle",null]', '["cloud","nap",null]')
    rejects(text)


def test_a_run_that_does_not_replay_as_recorded_is_rejected():
    """What :func:`schedule.loads` cannot see, :meth:`Cloud.from_run`
    refuses: an event line dropped or duplicated changes the pending
    counts the file records, and a step that cannot run names itself
    (a backlog shorter than its pending count fails to load)."""
    text = sample_text()
    lines = text.splitlines()
    event = lines[lines.index('"client-0":[') + 1] + "\n"
    rejects(text.replace(event, ""), "pending must map each client to a count within")
    for damaged, match in (
        (text.replace(event, event * 2), "leaves {'client-0': 4, 'client-1': 2} events pending"),
        (text.replace('["client-1","crash",3]', '["client-0","store",null]'),
         "leaves {'client-0': 2, 'client-1': 2} events pending"),
        (text.replace('"architecture":"s3+simpledb+sqs"', '"architecture":"s3"'),
         "step 7: the s3 architecture has no provenance shards"),
    ):
        run = schedule.loads(damaged)
        with pytest.raises(ScheduleFormatError, match=match):
            Cloud.from_run(run)


def test_a_bad_step_is_never_applied():
    sim = Simulation("s3")
    with pytest.raises(ScheduleFormatError):
        sim.apply(("client-0", "store", "twice"))
    with pytest.raises(ScheduleFormatError, match="step 0: this cloud has no client-7"):
        sim.apply(("client-7", "crash", 1))
    with pytest.raises(ScheduleFormatError, match="step 0: this cloud has no daemon-1"):
        sim.apply(("daemon-1", "pump", None))
    with pytest.raises(ScheduleFormatError, match="step 0: client-0 has no pending event"):
        sim.apply(("client-0", "store", None))
    assert sim.schedule == []


def test_a_migrate_step_must_name_the_running_layout():
    fleet = ClientFleet(2, "s3+simpledb", seed=1)
    fleet.apply(("cloud", "migrate", "shards=3,placement=mixed"))
    migration = fleet.routing.migration
    before = (list(fleet.schedule), migration.phase, migration.report)
    with pytest.raises(ScheduleFormatError, match="step 1: .* not the running migration"):
        fleet.apply(("cloud", "migrate", "shards=7,placement=ddb"))
    assert (fleet.schedule, migration.phase, migration.report) == before
    fleet.apply(("cloud", "migrate", "placement=mixed,shards=3"))
    assert len(fleet.schedule) == 2


# -- fuzzing ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_run_files_reject_cleanly_or_load_whole(data):
    """Random damage either raises ScheduleFormatError, from loading or
    from replaying, or leaves a document that loads and replays whole —
    never a foreign exception type."""
    text = sample_text()
    lines = text.splitlines(keepends=True)
    at = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
    line = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    char = data.draw(st.characters(min_codepoint=32, max_codepoint=126))
    mode = data.draw(st.sampled_from(["truncate", "drop-line", "dup-line", "splice", "insert"]))
    damaged = {
        "truncate": text[:at],
        "drop-line": "".join(lines[:line] + lines[line + 1 :]),
        "dup-line": "".join(lines[: line + 1] + lines[line:]),
        "splice": text[:at] + char + text[at + 1 :],
        "insert": text[:at] + char + text[at:],
    }[mode]
    try:
        run = schedule.loads(damaged)
        assert isinstance(run.consistency, ConsistencyConfig)
        assert Cloud.from_run(run).schedule == run.steps
    except ScheduleFormatError:
        return


@pytest.mark.parametrize("char", ["=", ":"])
def test_a_malformed_read_cache_spec_fails_to_load(char):
    """The fuzz test's one recorded escape: a damaged ``read_cache``
    spec loaded and then raised a bare ``ValueError`` as the replay
    built the cloud's cache."""
    text = sample_text()
    at = text.index('"read_cache":"') + len('"read_cache":"')
    with pytest.raises(ScheduleFormatError, match="read_cache"):
        schedule.loads(text[:at] + char + text[at:])


@settings(max_examples=40, deadline=None)
@given(blob=st.text(max_size=200))
def test_arbitrary_text_never_escapes_the_typed_error(blob):
    try:
        schedule.loads(blob)
    except ScheduleFormatError:
        return
    pytest.fail("arbitrary text loaded as a run file")
