"""S3 holds one blob per distinct byte-backed payload: equal content
written under several keys is one object, a payload no key holds is
freed, and nothing billed or read back changes."""

from __future__ import annotations

import gc

import pytest

from repro.blob import BytesBlob
from repro.sim import Simulation
from repro.workloads import CombinedWorkload

ENV = b"PATH=/usr/bin:/bin\0HOME=/home/scientist\0" * 40


def fresh(data: bytes) -> bytes:
    """Equal bytes in a new object, as each spilling process makes them."""
    return bytes(bytearray(data))


@pytest.fixture
def s3(strong_account):
    strong_account.s3.create_bucket("b")
    return strong_account.s3


def test_equal_content_under_two_keys_is_one_blob(s3):
    first = s3.put("b", "x", fresh(ENV))
    second = s3.put("b", "y", fresh(ENV))
    s3.copy("b", "x", "z")
    blobs = {id(s3.authoritative_record("b", key).blob) for key in "xyz"}
    assert len(blobs) == 1
    assert first == second == BytesBlob(ENV).md5()
    assert all(s3.get("b", key).bytes() == ENV for key in "xyz")


def test_a_payload_no_object_holds_leaves_the_table(s3):
    s3.put("b", "x", fresh(ENV))
    s3.put("b", "y", fresh(ENV))
    entry = (BytesBlob(ENV).md5(), len(ENV))
    assert entry in s3._payloads
    s3.put("b", "x", b"something else")
    s3.delete("b", "y")
    gc.collect()
    assert entry not in s3._payloads
    assert s3.get("b", "x").bytes() == b"something else"


def test_same_size_different_content_is_never_merged(s3, monkeypatch):
    """Even under one (ETag, size) — a forced digest collision — blobs
    whose bytes differ stay apart."""
    other = bytes(reversed(ENV))
    assert len(other) == len(ENV) and other != ENV
    s3.put("b", "x", ENV)
    s3.put("b", "y", other)
    assert s3.authoritative_record("b", "x").blob is not s3.authoritative_record("b", "y").blob
    monkeypatch.setattr(BytesBlob, "md5", lambda self: "collision")
    s3.put("b", "u", fresh(ENV))
    s3.put("b", "v", fresh(other))
    s3.put("b", "w", fresh(ENV))
    assert s3.get("b", "u").bytes() == s3.get("b", "w").bytes() == ENV
    assert s3.get("b", "v").bytes() == other


def test_sharing_changes_no_bill_answer_or_size():
    """An A2 run over spilling events, with and without sharing: the
    same meter, the same ETag and bytes for every object, sizes that
    audit clean — and with sharing, equal payloads are one object."""
    events = CombinedWorkload().generate(seed=7, scale=0.02).events

    class Unshared(dict):
        def setdefault(self, key, blob):
            return blob

    def run(share):
        sim = Simulation("s3+simpledb", seed=0)
        if not share:
            sim.account.s3._payloads = Unshared()
        sim.store_events(events)
        s3 = sim.account.s3
        objects = {
            (bucket, key): s3.authoritative_record(bucket, key)
            for bucket in s3._buckets
            for key in s3.authoritative_keys(bucket)
        }
        return sim, objects

    shared, shared_objects = run(share=True)
    plain, plain_objects = run(share=False)
    assert shared.account.meter.snapshot() == plain.account.meter.snapshot()
    assert shared_objects.keys() == plain_objects.keys()
    for name, record in shared_objects.items():
        twin = plain_objects[name]
        assert (record.etag, record.blob.read()) == (twin.etag, twin.blob.read())
    assert shared.account.simpledb.size_audit() == []

    def blobs(objects):
        return len({id(r.blob) for r in objects.values() if isinstance(r.blob, BytesBlob)})

    assert blobs(shared_objects) < blobs(plain_objects)
