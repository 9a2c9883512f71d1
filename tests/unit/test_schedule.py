"""The fault-schedule codec: canonical text, validated whole at the boundary."""

from __future__ import annotations

import pytest

from repro import schedule
from repro.errors import ScheduleFormatError
from repro.schedule import Step
from repro.sim import Simulation

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


def document(*steps: str) -> str:
    body = ",".join(steps)
    return f'{{"format":"repro-fault-schedule","version":1,"steps":[{body}]}}'


def test_round_trip_is_canonical():
    text = schedule.dumps(SAMPLE)
    assert text.splitlines()[1] == '["client-0","crash","a3.log.after_temp_put"],'
    steps = schedule.loads(text)
    assert steps == SAMPLE
    assert all(isinstance(step, Step) for step in steps)
    assert schedule.dumps(steps) == text
    assert schedule.loads(schedule.dumps([])) == []


def test_rejects_non_json():
    with pytest.raises(ScheduleFormatError, match="not JSON"):
        schedule.loads("steps: [client-0 store]")


def test_rejects_trailing_garbage():
    with pytest.raises(ScheduleFormatError, match="trailing garbage"):
        schedule.loads(schedule.dumps(SAMPLE) + "[]")


def test_rejects_an_unknown_actor():
    with pytest.raises(ScheduleFormatError, match="step 1: unknown actor .migrator."):
        schedule.loads(document('["client-0","store",null]', '["migrator","settle",null]'))


def test_rejects_an_unknown_action():
    with pytest.raises(ScheduleFormatError, match="unknown action 'pump' for client-0"):
        schedule.loads(document('["client-0","pump",null]'))
    with pytest.raises(ScheduleFormatError, match="unknown action 'crash' for daemon-0"):
        schedule.loads(document('["daemon-0","crash",1]'))


def test_rejects_a_wrong_argument_type():
    for step in ('["client-0","crash",true]', '["client-0","crash",0]',
                 '["cloud","advance","soon"]', '["cloud","migrate","shards=0"]',
                 '["client-0","store",1]'):
        with pytest.raises(ScheduleFormatError, match="wrong argument"):
            schedule.loads(document(step))


def test_rejects_a_foreign_document():
    for text in ('[]', '{"format":"repro-prov-trace","version":1,"steps":[]}',
                 '{"format":"repro-fault-schedule","version":2,"steps":[]}',
                 '{"format":"repro-fault-schedule","version":1,"steps":{}}'):
        with pytest.raises(ScheduleFormatError):
            schedule.loads(text)


def test_a_bad_step_is_never_applied():
    sim = Simulation("s3")
    with pytest.raises(ScheduleFormatError):
        sim.apply(("client-0", "store", "twice"))
    with pytest.raises(ScheduleFormatError):
        sim.replay(schedule.loads(document('["cloud","settle",null]', '["cloud","nap",null]')))
    assert sim.schedule == []
    with pytest.raises(ScheduleFormatError, match="step 0: this cloud has no client-7"):
        sim.apply(("client-7", "crash", 1))
    with pytest.raises(ScheduleFormatError, match="step 0: this cloud has no daemon-1"):
        sim.apply(("daemon-1", "pump", None))
    with pytest.raises(ScheduleFormatError, match="step 0: client-0 has no pending event"):
        sim.apply(("client-0", "store", None))
    assert sim.schedule == [] and sim.trace == []
