"""The flush-event codec of a run file (:mod:`repro.schedule`).

A run file holds each client's backlog of flush events, one canonical
JSON object per event: :func:`encode_event` writes it (``sort_keys`` +
fixed separators, so identical events are identical bytes) and
:func:`decode_event` reads it back, raising
:class:`~repro.errors.ScheduleFormatError` on any defect, so a corrupt
file is rejected before a single step runs.
"""

from __future__ import annotations

import base64
import binascii

from repro.blob import Blob, BytesBlob, SyntheticBlob
from repro.errors import ScheduleFormatError
from repro.passlib.records import (
    FlushEvent,
    ObjectRef,
    ProvenanceBundle,
    ProvenanceRecord,
)


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


def encode_event(event: FlushEvent) -> dict:
    """A run file's payload for ``event`` (canonical dict form)."""
    return {
        "bundle": _encode_bundle(event.bundle),
        "ancestors": [_encode_bundle(b) for b in event.ancestors],
        "data": _encode_data(event.data),
    }


# ---------------------------------------------------------------------------
# Decoding — strict: any defect raises ScheduleFormatError
# ---------------------------------------------------------------------------

def _decode_ref(obj) -> ObjectRef:
    if not isinstance(obj, list) or len(obj) != 2 or not isinstance(obj[0], str):
        raise ScheduleFormatError(f"not an object reference: {obj!r}")
    try:  # ObjectRef rejects a version that is not an int >= 1
        return ObjectRef(name=obj[0], version=obj[1])
    except ValueError as exc:
        raise ScheduleFormatError(str(exc)) from exc


def _decode_record(obj, subject: ObjectRef) -> ProvenanceRecord:
    if not isinstance(obj, list) or len(obj) < 3 or not isinstance(obj[0], str):
        raise ScheduleFormatError(f"not a provenance record: {obj!r}")
    attribute, kind = obj[0], obj[1]
    if kind == "ref" and len(obj) == 4:
        value: str | ObjectRef = _decode_ref(obj[2:])
    elif kind == "str" and len(obj) == 3 and isinstance(obj[2], str):
        value = obj[2]
    else:
        raise ScheduleFormatError(f"not a provenance record: {obj!r}")
    return ProvenanceRecord(subject=subject, attribute=attribute, value=value)


def _decode_bundle(obj) -> ProvenanceBundle:
    if not isinstance(obj, dict) or set(obj) != {"subject", "kind", "records"}:
        raise ScheduleFormatError(f"not a provenance bundle: {obj!r}")
    subject = _decode_ref(obj["subject"])
    kind = obj["kind"]
    if not isinstance(kind, str):
        raise ScheduleFormatError(f"bundle kind must be a string, got {kind!r}")
    records = obj["records"]
    if not isinstance(records, list):
        raise ScheduleFormatError("bundle records must be a list")
    return ProvenanceBundle(
        subject=subject,
        kind=kind,
        records=tuple(_decode_record(r, subject) for r in records),
    )


def _decode_data(obj) -> Blob:
    if isinstance(obj, list) and len(obj) == 3 and obj[0] == "synthetic":
        seed, size = obj[1], obj[2]
        if not isinstance(seed, str) or not isinstance(size, int) or isinstance(size, bool):
            raise ScheduleFormatError(f"not a synthetic blob: {obj!r}")
        try:
            return SyntheticBlob(seed=seed, size_bytes=size)
        except ValueError as exc:
            raise ScheduleFormatError(str(exc)) from exc
    if isinstance(obj, list) and len(obj) == 2 and obj[0] == "bytes":
        if not isinstance(obj[1], str):
            raise ScheduleFormatError(f"not a bytes blob: {obj!r}")
        try:
            return BytesBlob(base64.b64decode(obj[1], validate=True))
        except (binascii.Error, ValueError) as exc:
            raise ScheduleFormatError(f"invalid base64 data: {exc}") from exc
    raise ScheduleFormatError(f"not a blob encoding: {obj!r}")


def decode_event(obj) -> FlushEvent:
    """The flush event ``obj`` encodes (see :func:`encode_event`)."""
    if not isinstance(obj, dict):
        raise ScheduleFormatError(f"an event must be a JSON object, got {type(obj).__name__}")
    if set(obj) != {"bundle", "ancestors", "data"}:
        raise ScheduleFormatError(f"unexpected event keys {sorted(obj)!r}")
    ancestors = obj["ancestors"]
    if not isinstance(ancestors, list):
        raise ScheduleFormatError("ancestors must be a list")
    try:
        return FlushEvent(
            bundle=_decode_bundle(obj["bundle"]),
            data=_decode_data(obj["data"]),
            ancestors=tuple(_decode_bundle(b) for b in ancestors),
        )
    except ValueError as exc:  # e.g. bundle/record subject mismatch
        raise ScheduleFormatError(str(exc)) from exc
