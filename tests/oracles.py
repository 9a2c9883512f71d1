"""From-scratch references the optimised code paths are checked against.

Each reference is the straightforward version of a function the library
implements faster: it re-derives everything on every step, so it is
slow but obviously right. Tests compare the library's output with the
reference's: byte for byte, unless a reference names the weaker
contract it is checked on.
"""

from __future__ import annotations

import random

from repro.passlib.records import FlushEvent, ProvenanceRecord
from repro.passlib.serializer import (
    POINTER_PREFIX,
    SPILL_THRESHOLD,
    OverflowObject,
    S3MetadataPayload,
    overflow_key,
)
from repro.units import S3_MAX_METADATA_SIZE
from repro.workloads.base import _ENV_BASE


def reference_s3_metadata(
    event: FlushEvent,
    spill_threshold: int = SPILL_THRESHOLD,
    metadata_limit: int = S3_MAX_METADATA_SIZE,
) -> S3MetadataPayload:
    """``to_s3_metadata`` with its size pass spelled out: while the
    re-encoded total is over the limit, spill the largest value left
    (``max`` picks the first in key order on a tie), and stop when
    nothing spillable is left."""
    metadata: dict[str, str] = {}
    overflow: list[OverflowObject] = []
    spill_index = 0

    def emit(prefix: str, records: tuple[ProvenanceRecord, ...]) -> None:
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
        emit(prefix, ancestor.records)
    emit("", event.bundle.records)
    metadata["nonce"] = event.nonce

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


def reference_synth_env(rng: random.Random, target_bytes: int) -> str:
    """``synth_env`` drawing each character with ``rng.choices`` (one
    ``random()``, two Mersenne-Twister words, per character). The library
    draws the same words in one call, so it is checked against this on
    the RNG state it leaves and the entries' names and value lengths,
    not on the characters."""
    parts = list(_ENV_BASE)
    size = sum(len(p) + 1 for p in parts)
    counter = 0
    while size < target_bytes:
        name = f"LD_PRELOAD_{counter}" if counter % 7 == 0 else f"APP_VAR_{counter}"
        value = "".join(rng.choices("abcdefghijklmnop/:._-", k=rng.randint(24, 96)))
        entry = f"{name}={value}"
        parts.append(entry)
        size += len(entry) + 1
        counter += 1
    return "\n".join(parts)
