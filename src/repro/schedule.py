"""Fault schedules: every crash, reboot and daemon round as a recorded step.

The paper's Table 1 properties are argued under *"a client [that]
crashes before recording the provenance"*. A **schedule** is how a run
interleaves such faults with its work: an ordered list of
``(actor, action, arg)`` steps, executed one at a time by
:meth:`repro.sim.Cloud.apply` — the only code that executes a step —
with :meth:`~repro.sim.Cloud.replay` a loop over it. A cloud records
every step it applies in :attr:`~repro.sim.Cloud.schedule`, so any run
driven through steps (the fleet's round-robin drain and live
migration, Table 1's crash sweeps, the configuration grid's crash) can
be written out with :func:`dumps` and replayed on a fresh cloud built
with the same arguments and given the same backlogs.

Actors and their actions (``arg`` in parentheses):

* ``client-<k>`` — ``store`` (none): store the client's next pending
  event; ``crash`` (a fault point name, or an integer *n*): arm the
  client's :class:`~repro.aws.faults.FaultPlan` to crash at the next
  visit of that point, or at its *n*-th next check; ``reboot`` (none):
  the host comes back as a fresh incarnation over the same backlog;
* ``daemon-<k>`` — client *k*'s commit daemon: ``pump`` (none): drain
  the WAL; ``reboot`` (none): the daemon comes back with no memory;
* ``cloud`` — ``advance`` (seconds): move the simulated clock;
  ``migrate`` (a ``repro demo --migrate`` layout spec): start a live
  migration to that layout, or advance the running one by one step;
  ``settle`` (none): run daemons and let replication converge.

The file format is one small canonical JSON document, one step per
line. :func:`loads` validates the whole document before returning any
step, and rejects non-JSON text, trailing garbage, an unknown actor or
action and an argument of the wrong type with
:class:`~repro.errors.ScheduleFormatError`.
"""

from __future__ import annotations

import json
import math
import re
from typing import Iterable, NamedTuple

from repro.errors import ScheduleFormatError
from repro.migration.live import parse_migration_spec

#: The ``format`` field every schedule file carries.
SCHEDULE_FORMAT = "repro-fault-schedule"
#: The (only) format version this codec reads and writes.
SCHEDULE_VERSION = 1

_HEADER = f'{{"format":"{SCHEDULE_FORMAT}","version":{SCHEDULE_VERSION},"steps":['
_ACTOR = re.compile(r"(client|daemon)-(?:0|[1-9][0-9]*)|cloud")


class Step(NamedTuple):
    """One schedule step (equal to the plain tuple of its values)."""

    actor: str
    action: str
    arg: str | int | float | None = None


_none = lambda arg: arg is None


def _crash(arg) -> bool:
    """A fault point's name, or *n* >= 1 for the *n*-th next check."""
    if isinstance(arg, str):
        return arg != ""
    return isinstance(arg, int) and not isinstance(arg, bool) and arg >= 1


def _seconds(arg) -> bool:
    return isinstance(arg, (int, float)) and not isinstance(arg, bool) and 0 <= arg < math.inf


def _layout(arg) -> bool:
    try:
        return isinstance(arg, str) and bool(parse_migration_spec(arg))
    except ValueError:
        return False


#: Actor kind -> action -> the check its argument must pass.
ACTIONS = {
    "client": {"store": _none, "crash": _crash, "reboot": _none},
    "daemon": {"pump": _none, "reboot": _none},
    "cloud": {"advance": _seconds, "migrate": _layout, "settle": _none},
}


def check_step(step, index: int) -> Step:
    """Step number ``index`` as a :class:`Step`, or
    :class:`ScheduleFormatError`."""
    if not isinstance(step, (list, tuple)) or len(step) != 3:
        raise ScheduleFormatError(f"step {index}: not [actor, action, arg]: {step!r}")
    actor, action, arg = step
    match = _ACTOR.fullmatch(actor) if isinstance(actor, str) else None
    if match is None:
        raise ScheduleFormatError(f"step {index}: unknown actor {actor!r}")
    actions = ACTIONS[match[1] or "cloud"]
    if not (isinstance(action, str) and action in actions):
        raise ScheduleFormatError(f"step {index}: unknown action {action!r} for {actor}")
    if not actions[action](arg):
        raise ScheduleFormatError(f"step {index}: wrong argument {arg!r} for {actor} {action}")
    return Step(actor, action, arg)


def dumps(schedule: Iterable) -> str:
    """The canonical text of ``schedule`` (steps as :meth:`~repro.sim.
    Cloud.apply` records them): a JSON object, one step per line, so
    identical schedules are identical bytes."""
    lines = (json.dumps(list(step), separators=(",", ":")) for step in schedule)
    return _HEADER + ",".join("\n" + line for line in lines) + "\n]}\n"


def loads(text: str) -> list[Step]:
    """Parse and validate a whole schedule document — all or nothing."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        what = "trailing garbage after the schedule" if exc.msg == "Extra data" else "not JSON"
        raise ScheduleFormatError(f"{what}: {exc}") from exc
    header = {"format": SCHEDULE_FORMAT, "version": SCHEDULE_VERSION}
    steps = document.pop("steps", None) if isinstance(document, dict) else None
    if document != header or not isinstance(steps, list):
        raise ScheduleFormatError(f"not a {SCHEDULE_FORMAT} v{SCHEDULE_VERSION} document")
    return [check_step(step, index) for index, step in enumerate(steps)]
