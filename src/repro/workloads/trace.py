"""A versioned JSONL trace format for provenance op logs, plus replay.

Re-execution from a captured trace is the reproducibility bar the
cloud-provenance literature sets: a run serialised to a trace file must
replay **byte-identically** — same events, same store order, same meter.
This module owns that format:

* :func:`dump_trace` serialises a flush-event stream (optionally with
  the fleet client that stored each event) to canonical JSONL — header
  line first, one event per line, ``sort_keys`` + fixed separators so
  identical traces are identical bytes;
* :func:`load_trace` parses and validates a whole document before
  returning anything. Any malformed line, unsupported version, length
  mismatch, or trailing garbage raises :class:`~repro.errors.
  TraceFormatError` and yields **no** events — a corrupt capture can
  never be partially applied;
* :class:`TraceReplayWorkload` adapts a loaded document back into the
  :class:`~repro.workloads.base.Workload` interface, so a captured run
  drops into every harness (simulations, fleets, the matrix runner)
  that accepts a workload.

Round-tripping is pinned by property tests:
``load(dump(events)) == events`` and ``dump(load(text)) == text``.
"""

from __future__ import annotations

import base64
import binascii
import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.blob import Blob, BytesBlob, SyntheticBlob
from repro.errors import TraceFormatError
from repro.passlib.records import (
    FlushEvent,
    ObjectRef,
    ProvenanceBundle,
    ProvenanceRecord,
)
from repro.workloads import base

#: Magic string identifying a trace file's first line.
TRACE_FORMAT = "repro-prov-trace"
#: The (only) format version this codec reads and writes.
TRACE_VERSION = 1

_DUMP_KWARGS = {"sort_keys": True, "separators": (",", ":")}


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _encode_ref(ref: ObjectRef) -> list:
    return [ref.name, ref.version]


def _encode_record(record: ProvenanceRecord) -> list:
    if isinstance(record.value, ObjectRef):
        return [record.attribute, "ref", record.value.name, record.value.version]
    return [record.attribute, "str", record.value]


def _encode_bundle(bundle: ProvenanceBundle) -> dict:
    return {
        "subject": _encode_ref(bundle.subject),
        "kind": bundle.kind,
        "records": [_encode_record(r) for r in bundle.records],
    }


def _encode_data(data: Blob) -> list:
    if isinstance(data, SyntheticBlob):
        return ["synthetic", data.seed, data.size_bytes]
    return ["bytes", base64.b64encode(data.read()).decode("ascii")]


def encode_event(
    event: FlushEvent, client: str | None = None, delay: float | None = None
) -> dict:
    """One trace line's payload for ``event`` (canonical dict form)."""
    payload = {
        "bundle": _encode_bundle(event.bundle),
        "ancestors": [_encode_bundle(b) for b in event.ancestors],
        "data": _encode_data(event.data),
    }
    if client is not None:
        payload["client"] = client
    if delay is not None:
        payload["dt"] = delay
    return payload


def _parallel(events: list, column, what: str) -> list:
    if column is None:
        return [None] * len(events)
    column = list(column)
    if len(column) != len(events):
        raise ValueError(f"{len(events)} events but {len(column)} {what} entries")
    return column


def dump_trace(
    events: Iterable[FlushEvent],
    workload: str = "capture",
    clients: Iterable[str | None] | None = None,
    delays: Iterable[float | None] | None = None,
) -> str:
    """Serialise an op log to canonical JSONL text.

    ``clients`` (optional, parallel to ``events``) records which fleet
    client stored each event, enabling fleet-faithful replay.
    ``delays`` (optional, parallel) records each event's inter-arrival
    time on the simulated clock, so bursty captures replay with the
    same clock profile (JSON round-trips Python floats exactly).
    """
    events = list(events)
    client_list = _parallel(events, clients, "client")
    delay_list = _parallel(events, delays, "delay")
    lines = [
        json.dumps(
            {
                "format": TRACE_FORMAT,
                "version": TRACE_VERSION,
                "workload": workload,
                "events": len(events),
            },
            **_DUMP_KWARGS,
        )
    ]
    lines.extend(
        json.dumps(encode_event(event, client, delay), **_DUMP_KWARGS)
        for event, client, delay in zip(events, client_list, delay_list)
    )
    return "\n".join(lines) + "\n"


def write_trace(
    path,
    events: Iterable[FlushEvent],
    workload: str = "capture",
    clients: Iterable[str | None] | None = None,
) -> None:
    """Write a trace file (text, UTF-8) at ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_trace(events, workload=workload, clients=clients))


# ---------------------------------------------------------------------------
# Decoding — strict, all-or-nothing
# ---------------------------------------------------------------------------

def _fail(message: str, line: int | None = None) -> TraceFormatError:
    return TraceFormatError(message, line=line)


def _decode_ref(obj, line: int) -> ObjectRef:
    if not isinstance(obj, list) or len(obj) != 2 or not isinstance(obj[0], str):
        raise _fail(f"not an object reference: {obj!r}", line)
    try:  # ObjectRef rejects a version that is not an int >= 1
        return ObjectRef(name=obj[0], version=obj[1])
    except ValueError as exc:
        raise _fail(str(exc), line) from exc


def _decode_record(obj, subject: ObjectRef, line: int) -> ProvenanceRecord:
    if not isinstance(obj, list) or len(obj) < 3 or not isinstance(obj[0], str):
        raise _fail(f"not a provenance record: {obj!r}", line)
    attribute, kind = obj[0], obj[1]
    if kind == "ref" and len(obj) == 4:
        value: str | ObjectRef = _decode_ref(obj[2:], line)
    elif kind == "str" and len(obj) == 3 and isinstance(obj[2], str):
        value = obj[2]
    else:
        raise _fail(f"not a provenance record: {obj!r}", line)
    return ProvenanceRecord(subject=subject, attribute=attribute, value=value)


def _decode_bundle(obj, line: int) -> ProvenanceBundle:
    if not isinstance(obj, dict) or set(obj) != {"subject", "kind", "records"}:
        raise _fail(f"not a provenance bundle: {obj!r}", line)
    subject = _decode_ref(obj["subject"], line)
    kind = obj["kind"]
    if not isinstance(kind, str):
        raise _fail(f"bundle kind must be a string, got {kind!r}", line)
    records = obj["records"]
    if not isinstance(records, list):
        raise _fail("bundle records must be a list", line)
    return ProvenanceBundle(
        subject=subject,
        kind=kind,
        records=tuple(_decode_record(r, subject, line) for r in records),
    )


def _decode_data(obj, line: int) -> Blob:
    if isinstance(obj, list) and len(obj) == 3 and obj[0] == "synthetic":
        seed, size = obj[1], obj[2]
        if not isinstance(seed, str) or not isinstance(size, int) or isinstance(size, bool):
            raise _fail(f"not a synthetic blob: {obj!r}", line)
        try:
            return SyntheticBlob(seed=seed, size_bytes=size)
        except ValueError as exc:
            raise _fail(str(exc), line) from exc
    if isinstance(obj, list) and len(obj) == 2 and obj[0] == "bytes":
        if not isinstance(obj[1], str):
            raise _fail(f"not a bytes blob: {obj!r}", line)
        try:
            return BytesBlob(base64.b64decode(obj[1], validate=True))
        except (binascii.Error, ValueError) as exc:
            raise _fail(f"invalid base64 data: {exc}", line) from exc
    raise _fail(f"not a blob encoding: {obj!r}", line)


def decode_event(obj, line: int = 0) -> tuple[FlushEvent, str | None, float | None]:
    """Decode one event line; raises :class:`TraceFormatError` on any defect."""
    if not isinstance(obj, dict):
        raise _fail(f"event line must be a JSON object, got {type(obj).__name__}", line)
    keys = set(obj)
    if not {"bundle", "ancestors", "data"} <= keys or keys - {
        "bundle",
        "ancestors",
        "data",
        "client",
        "dt",
    }:
        raise _fail(f"unexpected event keys {sorted(keys)!r}", line)
    client = obj.get("client")
    if client is not None and not isinstance(client, str):
        raise _fail(f"client must be a string, got {client!r}", line)
    delay = obj.get("dt")
    if delay is not None and (
        isinstance(delay, bool) or not isinstance(delay, (int, float)) or delay < 0
    ):
        raise _fail(f"dt must be a non-negative number, got {delay!r}", line)
    ancestors = obj["ancestors"]
    if not isinstance(ancestors, list):
        raise _fail("ancestors must be a list", line)
    try:
        event = FlushEvent(
            bundle=_decode_bundle(obj["bundle"], line),
            data=_decode_data(obj["data"], line),
            ancestors=tuple(_decode_bundle(b, line) for b in ancestors),
        )
    except ValueError as exc:  # e.g. bundle/record subject mismatch
        raise _fail(str(exc), line) from exc
    return event, client, None if delay is None else float(delay)


@dataclass
class TraceDocument:
    """A fully validated trace: the op log plus its provenance of origin."""

    workload: str
    events: list[FlushEvent]
    clients: list[str | None] = field(default_factory=list)
    delays: list[float | None] = field(default_factory=list)

    def dumps(self) -> str:
        clients = self.clients if any(c is not None for c in self.clients) else None
        delays = self.delays if any(d is not None for d in self.delays) else None
        return dump_trace(
            self.events, workload=self.workload, clients=clients, delays=delays
        )


def load_trace(text: str) -> TraceDocument:
    """Parse and validate a whole trace document — all or nothing.

    The header must parse, declare this codec's format/version, and its
    event count must match the number of event lines exactly (so
    truncated and padded files are both rejected). Every line must
    decode. Only then is anything returned.
    """
    lines = text.splitlines()
    if not lines:
        raise _fail("empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise _fail(f"header is not valid JSON: {exc}", 1) from exc
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise _fail(f"not a {TRACE_FORMAT} file", 1)
    version = header.get("version")
    if version != TRACE_VERSION:
        raise _fail(
            f"unsupported trace version {version!r} (this codec reads {TRACE_VERSION})", 1
        )
    declared = header.get("events")
    if not isinstance(declared, int) or isinstance(declared, bool) or declared < 0:
        raise _fail(f"invalid event count {declared!r}", 1)
    workload = header.get("workload")
    if not isinstance(workload, str):
        raise _fail(f"invalid workload name {workload!r}", 1)

    body = lines[1:]
    if len(body) != declared:
        raise _fail(
            f"header declares {declared} events but file has {len(body)} event lines"
        )
    events: list[FlushEvent] = []
    clients: list[str | None] = []
    delays: list[float | None] = []
    for index, line in enumerate(body, start=2):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _fail(f"event line is not valid JSON: {exc}", index) from exc
        event, client, delay = decode_event(obj, line=index)
        events.append(event)
        clients.append(client)
        delays.append(delay)
    return TraceDocument(
        workload=workload, events=events, clients=clients, delays=delays
    )


def read_trace(path) -> TraceDocument:
    """Load and validate the trace file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return load_trace(handle.read())


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

class TraceReplayWorkload(base.Workload):
    """Replay a captured op log through the standard workload interface.

    The event stream is literal: the RNG is unused and ``scale`` must be
    1.0 (a replay is a replay — resizing it would forge provenance).
    Feeding the same document twice produces byte-identical events, so a
    replay against an identically-seeded simulation reproduces the
    original run's meter exactly.
    """

    def __init__(self, document: TraceDocument):
        self.document = document
        self.name = f"replay:{document.workload}"
        # A capture that recorded inter-arrival delays replays them,
        # reproducing the original run's burst profile (and
        # byte_seconds) exactly — and a re-capture records them again.
        self.timed = any(d is not None for d in document.delays)

    @classmethod
    def from_text(cls, text: str) -> "TraceReplayWorkload":
        return cls(load_trace(text))

    def iter_events(self, rng: random.Random, scale: float = 1.0) -> Iterator[FlushEvent]:
        if scale != 1.0:
            raise ValueError(f"a trace replays only at scale 1.0, got {scale}")
        yield from self.document.events

    def iter_timed_events(
        self, rng: random.Random, scale: float = 1.0
    ) -> Iterator[tuple[float, FlushEvent]]:
        if scale != 1.0:
            raise ValueError(f"a trace replays only at scale 1.0, got {scale}")
        delays = self.document.delays or [None] * len(self.document.events)
        for event, delay in zip(self.document.events, delays):
            yield (0.0 if delay is None else delay), event
