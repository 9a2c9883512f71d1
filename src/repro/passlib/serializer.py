"""Record serialization: PASS bundles ↔ S3 metadata / SimpleDB / wire JSON.

Three wire formats, one source of truth:

* **S3 metadata** (architecture A1, §4.1) — provenance rides as the ≤2 KB
  user metadata of the data object itself. Repeated attributes (multiple
  ``input`` records) get ``attr.N`` key suffixes; ancestor bundles
  (transient processes piggybacking on their first output file) are
  namespaced ``a{j}.`` with an ``a{j}.subject`` key carrying the
  ancestor's identity. Any record value over **1 KB** is spilled to its
  own S3 object and replaced by a ``@s3:`` pointer — the paper counts
  24,952 such records. If the remaining metadata still exceeds the 2 KB
  limit, the largest values are spilled until it fits (the paper
  acknowledges the limit problem without fully specifying this case; see
  EXPERIMENTS.md).

* **SimpleDB items** (architectures A2/A3, §4.2–4.3) — one item per
  object version, item name ``name_vNNNN``, one attribute-value pair per
  record, multi-valued attributes used for repeated records. Values over
  the 1 KB SimpleDB limit spill to S3 exactly as above. File items
  additionally carry the ``md5`` consistency record (MD5 of data ‖ nonce)
  and the ``nonce`` itself.

* **wire JSON** — compact dict encoding used by the A3 write-ahead log
  (SQS messages are 8 KB Unicode strings).

Spilled values use deterministic keys derived from the subject and record
index, so replaying a store protocol (A3's idempotent commit daemon)
overwrites the same overflow objects instead of leaking new ones.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable

from repro.units import KB, S3_MAX_METADATA_SIZE
from repro.passlib.records import (
    Attr,
    FlushEvent,
    ObjectRef,
    ProvenanceBundle,
    ProvenanceRecord,
    consistency_token,
)

#: Values larger than this are stored as separate S3 objects (§5: "we
#: store any record larger than 1KB in a separate S3 object").
SPILL_THRESHOLD = 1 * KB

#: Prefix marking a value that was spilled to S3.
POINTER_PREFIX = "@s3:"

#: Key namespace for spilled values inside the data bucket.
OVERFLOW_PREFIX = ".pass/overflow/"

#: Valid S3 nonce metadata: optional ``v`` prefix then ASCII digits
#: (``v0007``; not ``v٣``, a second spelling of version 3).
_NONCE_RE = re.compile(r"v?(\d+)\Z", re.ASCII)


def parse_nonce(nonce: str) -> int | None:
    """Version number from S3 nonce metadata, or ``None`` if malformed.

    The store writes ``vNNNN``, but metadata is plain user text: a
    corrupted or hand-written value must not crash a reader with a bare
    ``ValueError`` — callers decide whether to skip the item (repository
    scans) or surface a read-correctness error (targeted reads).
    """
    match = _NONCE_RE.fullmatch(nonce.strip())
    return int(match.group(1)) if match else None


@dataclass(frozen=True)
class OverflowObject:
    """A record value that must be stored as its own S3 object."""

    key: str
    value: str

    @property
    def size(self) -> int:
        return len(self.value.encode("utf-8"))


@dataclass(frozen=True)
class S3MetadataPayload:
    """Serialised provenance for one A1 PUT."""

    metadata: dict[str, str]
    overflow: tuple[OverflowObject, ...]

    @property
    def metadata_size(self) -> int:
        return sum(
            len(k.encode()) + len(v.encode()) for k, v in self.metadata.items()
        )


@dataclass(frozen=True)
class SdbItemPayload:
    """Serialised provenance for one SimpleDB item (one object version)."""

    item_name: str
    attributes: tuple[tuple[str, str], ...]
    overflow: tuple[OverflowObject, ...]


def overflow_key(subject: ObjectRef, index: int) -> str:
    """Deterministic S3 key for the ``index``-th spilled value of a version."""
    return f"{OVERFLOW_PREFIX}{subject.item_name}/{index:03d}"


# ---------------------------------------------------------------------------
# S3 metadata format (architecture A1)
# ---------------------------------------------------------------------------

def to_s3_metadata(
    event: FlushEvent,
    spill_threshold: int = SPILL_THRESHOLD,
    metadata_limit: int = S3_MAX_METADATA_SIZE,
) -> S3MetadataPayload:
    """Encode a flush event's provenance as S3 object metadata.

    The file's own records use bare keys; each transient-ancestor bundle
    ``j`` is namespaced ``a{j}.``. Values above ``spill_threshold`` are
    replaced by pointers; if the encoded metadata still exceeds
    ``metadata_limit``, the largest remaining values are spilled too.
    """
    metadata: dict[str, str] = {}
    overflow: list[OverflowObject] = []
    spill_index = 0

    def emit(prefix: str, subject: ObjectRef, records: tuple[ProvenanceRecord, ...]) -> None:
        nonlocal spill_index
        counters: dict[str, int] = {}
        for record in records:
            occurrence = counters.get(record.attribute, 0)
            counters[record.attribute] = occurrence + 1
            key = f"{prefix}{record.attribute}"
            if occurrence:
                key = f"{key}.{occurrence}"
            value = record.encoded_value()
            if len(value.encode()) > spill_threshold:
                pointer_key = overflow_key(event.subject, spill_index)
                spill_index += 1
                overflow.append(OverflowObject(key=pointer_key, value=value))
                value = POINTER_PREFIX + pointer_key
            metadata[key] = value

    for j, ancestor in enumerate(event.ancestors):
        prefix = f"a{j}."
        metadata[f"{prefix}subject"] = ancestor.subject.encode()
        metadata[f"{prefix}kind"] = ancestor.kind
        emit(prefix, ancestor.subject, ancestor.records)
    emit("", event.subject, event.bundle.records)
    metadata["nonce"] = event.nonce

    # Second pass: the 2 KB ceiling applies to the *total* metadata; keep
    # spilling the largest values until the payload fits.
    def total_size() -> int:
        return sum(len(k.encode()) + len(v.encode()) for k, v in metadata.items())

    while total_size() > metadata_limit:
        key, value = max(
            (
                (k, v)
                for k, v in metadata.items()
                if not v.startswith(POINTER_PREFIX) and k != "nonce"
            ),
            key=lambda kv: len(kv[1].encode()),
            default=(None, None),
        )
        if key is None:
            break  # nothing spillable left; let S3 reject the PUT
        pointer_key = overflow_key(event.subject, spill_index)
        spill_index += 1
        overflow.append(OverflowObject(key=pointer_key, value=value))
        metadata[key] = POINTER_PREFIX + pointer_key

    return S3MetadataPayload(metadata=metadata, overflow=tuple(overflow))


def bundles_from_s3_metadata(
    subject: ObjectRef,
    metadata: dict[str, str],
    fetch_overflow: Callable[[str], str],
) -> tuple[ProvenanceBundle, tuple[ProvenanceBundle, ...]]:
    """Decode S3 metadata back into (own bundle, ancestor bundles).

    ``fetch_overflow`` resolves ``@s3:`` pointers (issuing the GETs the
    query analysis charges for).
    """
    groups: dict[str, dict[str, str]] = {}
    own: dict[str, str] = {}
    for key, value in metadata.items():
        if key == "nonce":
            continue
        if key.startswith("a") and "." in key:
            prefix, rest = key.split(".", 1)
            if prefix[1:].isdigit():
                groups.setdefault(prefix, {})[rest] = value
                continue
        own[key] = value

    def decode_group(
        subject_ref: ObjectRef, kind: str, fields: dict[str, str]
    ) -> ProvenanceBundle:
        records = []
        for key in sorted(fields):
            attribute = key.split(".", 1)[0] if key.rsplit(".", 1)[-1].isdigit() else key
            value = fields[key]
            if value.startswith(POINTER_PREFIX):
                value = fetch_overflow(value[len(POINTER_PREFIX):])
            decoded: str | ObjectRef = value
            if attribute in Attr.REF_VALUED:
                decoded = ObjectRef.decode(value)
            records.append(ProvenanceRecord(subject_ref, attribute, decoded))
        return ProvenanceBundle(subject=subject_ref, kind=kind, records=tuple(records))

    ancestors = []
    for prefix in sorted(groups, key=lambda p: int(p[1:])):
        fields = groups[prefix]
        ancestor_subject = ObjectRef.decode(fields.pop("subject"))
        kind = fields.pop("kind", "process")
        ancestors.append(decode_group(ancestor_subject, kind, fields))
    own_kind = own.get("type", "file")
    own_bundle = decode_group(subject, own_kind, own)
    return own_bundle, tuple(ancestors)


# ---------------------------------------------------------------------------
# SimpleDB item format (architectures A2/A3)
# ---------------------------------------------------------------------------

def to_simpledb_items(
    event: FlushEvent,
    spill_threshold: int = SPILL_THRESHOLD,
) -> list[SdbItemPayload]:
    """Encode a flush event as SimpleDB items, one per bundle.

    The file's own item carries the extra ``md5``/``nonce`` consistency
    records (§4.2): ``md5 = H(md5(data) ‖ nonce)``.

    At the default threshold the (immutable) payloads are encoded once
    per event and kept in the frozen event's ``__dict__`` (where
    ``functools.cached_property`` would put them: not a field, so
    equality, hash, ``repr`` and ``dataclasses.replace`` ignore them and
    they die with the event). The store path, the WAL and ``TraceStats``
    each get their own list of the same payloads.
    """
    if spill_threshold != SPILL_THRESHOLD:
        return list(_encode_simpledb_items(event, spill_threshold))
    memo = event.__dict__
    if "_simpledb_items" not in memo:
        memo["_simpledb_items"] = _encode_simpledb_items(event, spill_threshold)
    return list(memo["_simpledb_items"])


def _encode_simpledb_items(
    event: FlushEvent, spill_threshold: int
) -> tuple[SdbItemPayload, ...]:
    extra = (
        (Attr.MD5, consistency_token(event.data.md5(), event.nonce)),
        (Attr.NONCE, event.nonce),
    )
    return (
        *(_bundle_to_item(bundle, spill_threshold) for bundle in event.ancestors),
        _bundle_to_item(event.bundle, spill_threshold, extra),
    )


def _bundle_to_item(
    bundle: ProvenanceBundle,
    spill_threshold: int,
    extra: tuple[tuple[str, str], ...] = (),
) -> SdbItemPayload:
    attributes: list[tuple[str, str]] = []
    overflow: list[OverflowObject] = []
    spill_index = 0
    for record in bundle.records:
        value = record.encoded_value()
        if len(value.encode()) > spill_threshold:
            pointer_key = overflow_key(bundle.subject, spill_index)
            spill_index += 1
            overflow.append(OverflowObject(key=pointer_key, value=value))
            value = POINTER_PREFIX + pointer_key
        attributes.append((record.attribute, value))
    attributes.extend(extra)
    return SdbItemPayload(
        item_name=bundle.subject.item_name,
        attributes=tuple(attributes),
        overflow=tuple(overflow),
    )


def bundle_from_item(
    item_name: str,
    attributes: dict[str, tuple[str, ...]],
    fetch_overflow: Callable[[str], str],
) -> ProvenanceBundle:
    """Decode one SimpleDB item back into a provenance bundle."""
    subject = ObjectRef.from_item_name(item_name)
    records = []
    kind = "file"
    for attribute in sorted(attributes):
        for value in attributes[attribute]:
            if value.startswith(POINTER_PREFIX):
                value = fetch_overflow(value[len(POINTER_PREFIX):])
            if attribute == Attr.TYPE:
                kind = value
            if attribute in (Attr.MD5, Attr.NONCE):
                continue  # consistency plumbing, not provenance proper
            decoded: str | ObjectRef = value
            if attribute in Attr.REF_VALUED:
                decoded = ObjectRef.decode(value)
            records.append(ProvenanceRecord(subject, attribute, decoded))
    return ProvenanceBundle(subject=subject, kind=kind, records=tuple(records))


# ---------------------------------------------------------------------------
# Wire JSON (A3 write-ahead log)
# ---------------------------------------------------------------------------

def record_to_wire(record: ProvenanceRecord) -> dict[str, str]:
    """Compact JSON-able encoding of one record."""
    return {
        "s": record.subject.encode(),
        "a": record.attribute,
        "v": record.encoded_value(),
    }


def record_from_wire(data: dict[str, str]) -> ProvenanceRecord:
    subject = ObjectRef.decode(data["s"])
    attribute = data["a"]
    value: str | ObjectRef = data["v"]
    if attribute in Attr.REF_VALUED:
        value = ObjectRef.decode(data["v"])
    return ProvenanceRecord(subject, attribute, value)


def bundle_to_wire(bundle: ProvenanceBundle) -> dict:
    return {
        "subject": bundle.subject.encode(),
        "kind": bundle.kind,
        "records": [record_to_wire(r) for r in bundle.records],
    }


def bundle_from_wire(data: dict) -> ProvenanceBundle:
    subject = ObjectRef.decode(data["subject"])
    return ProvenanceBundle(
        subject=subject,
        kind=data["kind"],
        records=tuple(record_from_wire(r) for r in data["records"]),
    )


def wire_dumps(payload: dict | list | tuple) -> str:
    """Canonical compact JSON used for SQS bodies (8 KB budget); ASCII."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def wire_loads(text: str) -> dict:
    return json.loads(text)
