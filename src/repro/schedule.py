"""Run files: a whole run — its cloud, its backlogs and its schedule — as one document.

The paper's Table 1 properties are argued under *"a client [that]
crashes before recording the provenance"*. A **schedule** is how a run
interleaves such faults with its work: an ordered list of
``(actor, action, arg)`` steps, executed one at a time by
:meth:`repro.sim.Cloud.apply` — the only code that executes a step —
with :meth:`~repro.sim.Cloud.replay` a loop over it. A cloud records
every step it applies in :attr:`~repro.sim.Cloud.schedule`, and every
driver runs through steps (a simulation's event loop, the fleet's
round-robin drain and live migration, Table 1's crash sweeps, the
configuration grid's crash).

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
  migration to that layout, or advance the running one (to the same
  layout) by one step; ``settle`` (none): run daemons and let
  replication converge.

A **run file** is the only thing a run is written to or replayed from:
a header (the architecture, the seed, the
:class:`~repro.aws.account.ConsistencyConfig` fields and the
:class:`~repro.deployment.Deployment` fields), each client's backlog of
flush events (:func:`repro.workloads.trace.encode_event`), how many of
each client's events are still pending when the run ends, and the
steps. :func:`dumps` writes it as one canonical JSON document, one
event or step per line, so identical runs are identical bytes;
:func:`loads` validates the whole document before returning a
:class:`Run`, and :meth:`~repro.sim.Cloud.from_run` rebuilds the cloud
and replays it. Truncation, version skew, trailing garbage, a malformed
event (named by its line), an unknown actor or action and an argument
of the wrong type raise :class:`~repro.errors.ScheduleFormatError`, and
so does the replay of a step that cannot run or of a run that does not
end with the recorded pending counts (a dropped or duplicated line).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, fields
from typing import Iterable, Mapping, NamedTuple

from repro.aws.account import ConsistencyConfig
from repro.core import ARCHITECTURES
from repro.deployment import Deployment
from repro.errors import ScheduleFormatError
from repro.migration.live import parse_migration_spec
from repro.passlib.records import FlushEvent
from repro.workloads.trace import decode_event, encode_event

#: The ``format`` field every run file carries.
RUN_FORMAT = "repro-run"
#: The (only) format version this codec reads and writes.
RUN_VERSION = 1

_KEYS = ["format", "version", "architecture", "seed", "consistency", "deployment",
         "backlogs", "pending", "steps"]
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
    return step if type(step) is Step else Step(actor, action, arg)


class Run(NamedTuple):
    """A loaded run file: everything :meth:`~repro.sim.Cloud.from_run`
    needs to rebuild and replay the run."""

    architecture: str
    seed: int
    consistency: ConsistencyConfig
    deployment: Deployment
    #: Client name (``client-0``, ``client-1``, …, in order) -> the
    #: flush events submitted to it before the first step.
    backlogs: dict[str, list[FlushEvent]]
    #: Client name -> how many of its events are pending when the run
    #: ends (what :meth:`~repro.sim.Cloud.from_run` checks its replay by).
    pending: dict[str, int]
    steps: list[Step]


#: The step that closes a driver's run.
SETTLE = Step("cloud", "settle")


def _json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _lines(items: Iterable[str]) -> str:
    return "[" + ",".join("\n" + item for item in items) + "\n]"


def _settings(value) -> dict:
    """A settings dataclass's fields, each a JSON scalar."""
    settings = asdict(value)
    for name, field in settings.items():
        if isinstance(field, bool) or not isinstance(field, (str, int, float)):
            raise ValueError(f"a run file records {name} as a spec, got {field!r}")
    return settings


def dumps(cloud, backlogs: Mapping[str, Iterable[FlushEvent]]) -> str:
    """The canonical run file of ``cloud`` (a :class:`~repro.sim.Cloud`)
    after its run: its settings, ``backlogs`` (client name -> the
    events its driver submitted to it, every client's at the start of
    the run), each client's pending count and
    :attr:`~repro.sim.Cloud.schedule`."""
    unknown = set(backlogs) - set(cloud.clients)
    if unknown:
        raise ValueError(f"backlogs for clients the cloud does not have: {sorted(unknown)}")
    header = {
        "format": RUN_FORMAT,
        "version": RUN_VERSION,
        "architecture": cloud.architecture,
        "seed": cloud.seed,
        "consistency": _settings(cloud.account.consistency),
        "deployment": _settings(cloud.deployment),
    }
    head = ",\n".join(f"{_json(key)}:{_json(value)}" for key, value in header.items())
    queues = ",\n".join(
        f"{_json(name)}:" + _lines(_json(encode_event(event)) for event in backlogs.get(name, ()))
        for name in cloud.clients
    )
    pending = ",".join(f"{_json(name)}:{cloud.clients[name].backlog}" for name in cloud.clients)
    steps = _lines(_json(list(step)) for step in cloud.schedule)
    return f'{{{head},\n"backlogs":{{\n{queues}}},\n"pending":{{{pending}}},\n"steps":{steps}}}\n'


def _line_of(text: str, value) -> int | None:
    """The line of ``text`` holding ``value`` as :func:`dumps` writes it."""
    needle = _json(value)
    for number, line in enumerate(text.splitlines(), 1):
        if line.rstrip(",") == needle:
            return number
    return None


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _scalar(value) -> bool:
    return isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool))


def _build(cls, values, check, what: str):
    """``cls(**values)`` when ``values`` names exactly ``cls``'s fields
    and every value passes ``check``."""
    names = [spec.name for spec in fields(cls)]
    if not isinstance(values, dict) or sorted(values) != sorted(names):
        raise ScheduleFormatError(f"{what} must name exactly the fields {sorted(names)}")
    if not all(check(value) for value in values.values()):
        raise ScheduleFormatError(f"wrong {what} field type in {values!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScheduleFormatError(f"{what}: {exc}") from None


def loads(text: str) -> Run:
    """Parse and validate a whole run file — all or nothing."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        what = "trailing garbage after the run" if exc.msg == "Extra data" else "not JSON"
        raise ScheduleFormatError(f"{what}: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(document, dict) or document.get("format") != RUN_FORMAT:
        raise ScheduleFormatError(f"not a {RUN_FORMAT} document", line=1)
    if document.get("version") != RUN_VERSION:
        raise ScheduleFormatError(
            f"unsupported run file version {document.get('version')!r} "
            f"(this codec reads {RUN_VERSION})", line=1,
        )
    if sorted(document) != sorted(_KEYS):
        raise ScheduleFormatError(f"a run file has exactly the keys {_KEYS}, got {list(document)}")
    architecture, seed = document["architecture"], document["seed"]
    if not isinstance(architecture, str) or architecture not in ARCHITECTURES:
        raise ScheduleFormatError(f"unknown architecture {architecture!r}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScheduleFormatError(f"the seed must be an integer, got {seed!r}")
    consistency = _build(ConsistencyConfig, document["consistency"], _number, "consistency")
    deployment = _build(Deployment, document["deployment"], _scalar, "deployment")

    queues, pending, steps = document["backlogs"], document["pending"], document["steps"]
    if not (
        isinstance(queues, dict)
        and queues
        and list(queues) == [f"client-{index}" for index in range(len(queues))]
        and all(isinstance(queue, list) for queue in queues.values())
    ):
        raise ScheduleFormatError("backlogs must map client-0, client-1, … to event lists")
    backlogs = {}
    for name, queue in queues.items():
        backlogs[name] = events = []
        for index, value in enumerate(queue):
            try:
                events.append(decode_event(value))
            except ScheduleFormatError as exc:
                raise ScheduleFormatError(
                    f"{name} event {index}: {exc}", line=_line_of(text, value)
                ) from None
    if not (
        isinstance(pending, dict)
        and list(pending) == list(backlogs)
        and all(type(count) is int and 0 <= count <= len(backlogs[name])
                for name, count in pending.items())
    ):
        raise ScheduleFormatError("pending must map each client to a count within its backlog")
    if not isinstance(steps, list):
        raise ScheduleFormatError("steps must be a list")
    run = Run(architecture, seed, consistency, deployment, backlogs, pending,
              [check_step(step, index) for index, step in enumerate(steps)])
    for index, (actor, _, _) in enumerate(run.steps):
        number = actor.partition("-")[2]
        if number and int(number) >= len(backlogs):
            raise ScheduleFormatError(f"step {index}: the run has no {actor}")
    return run
