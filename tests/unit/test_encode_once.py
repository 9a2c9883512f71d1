"""A flush event is encoded once: the store path, the WAL and
``TraceStats`` share one serialisation kept on the event, which neither
changes what any of them computes nor shows on the event itself."""

from __future__ import annotations

import dataclasses

import pytest

from repro.blob import BytesBlob
from repro.passlib import serializer
from repro.sim import Simulation
from repro.workloads import CombinedWorkload
from repro.workloads.base import TraceStats, collect_stats
from repro.workloads.trace import dump_trace, load_trace


def small_trace():
    return CombinedWorkload().generate(seed=7, scale=0.02).events


@pytest.fixture
def bundle_encodings(monkeypatch):
    """Item names ``_bundle_to_item`` encoded, in call order."""
    encoded: list[str] = []
    original = serializer._bundle_to_item

    def counting(bundle, *args):
        encoded.append(bundle.subject.item_name)
        return original(bundle, *args)

    monkeypatch.setattr(serializer, "_bundle_to_item", counting)
    return encoded


@pytest.mark.parametrize("architecture", ["s3+simpledb", "s3+simpledb+sqs"])
def test_storing_with_stats_encodes_each_bundle_once(architecture, bundle_encodings):
    events = small_trace()
    sim = Simulation(architecture, seed=0)
    assert sim.store_events(events) == len(events)
    expected = [b.subject.item_name for e in events for b in e.all_bundles()]
    assert bundle_encodings == expected
    assert sim.stats == collect_stats(small_trace())


def test_non_default_thresholds_are_never_memoised(bundle_encodings):
    event = next(e for e in small_trace() if e.ancestors)
    bundles = len(event.all_bundles())
    tight = serializer.to_simpledb_items(event, spill_threshold=16)
    assert len(bundle_encodings) == bundles
    default = serializer.to_simpledb_items(event)
    assert serializer.to_simpledb_items(event, spill_threshold=16) == tight
    assert len(bundle_encodings) == 3 * bundles
    assert serializer.to_simpledb_items(event) == default != tight
    assert len(bundle_encodings) == 3 * bundles


def test_callers_get_their_own_item_list():
    event = small_trace()[0]
    first = serializer.to_simpledb_items(event)
    first.clear()
    assert serializer.to_simpledb_items(event)


def test_trace_stats_are_unchanged():
    """The §5 inputs of one small seeded trace, as the parent commit
    computed them with every consumer encoding for itself."""
    assert collect_stats(small_trace()) == TraceStats(
        n_objects=55,
        raw_bytes=6328606,
        n_records=632,
        n_records_gt_1kb=16,
        s3_prov_bytes=109591,
        n_sdb_items=114,
        sdb_prov_bytes=181306,
        sdb_file_bytes=38941,
        n_file_records_gt_1kb=0,
        n_put_attribute_calls=114,
        n_wal_messages=295,
        wal_prov_bytes=136846,
        n_process_bundles=59,
        per_workload_objects={"linux-compile": 18, "blast": 7, "provchallenge": 30},
    )


class TestTheMemoDoesNotShowOnTheEvent:
    def encoded_and_fresh(self):
        encoded, fresh = small_trace()[3], small_trace()[3]
        serializer.to_simpledb_items(encoded)
        return encoded, fresh

    def test_equality_hash_and_repr_ignore_it(self):
        encoded, fresh = self.encoded_and_fresh()
        assert encoded == fresh
        assert hash(encoded) == hash(fresh)
        assert repr(encoded) == repr(fresh)
        assert dataclasses.asdict(encoded) == dataclasses.asdict(fresh)

    def test_replace_starts_from_a_clean_event(self):
        encoded, _ = self.encoded_and_fresh()
        changed = dataclasses.replace(encoded, data=BytesBlob(b"other bytes"))
        assert serializer.to_simpledb_items(changed) != serializer.to_simpledb_items(encoded)
        md5 = dict(serializer.to_simpledb_items(changed)[-1].attributes)["md5"]
        unmemoised = serializer._encode_simpledb_items(changed, serializer.SPILL_THRESHOLD)
        assert md5 == dict(unmemoised[-1].attributes)["md5"]

    def test_trace_codec_round_trip_is_unaffected(self):
        encoded, fresh = self.encoded_and_fresh()
        assert dump_trace([encoded]) == dump_trace([fresh])
        (decoded,) = load_trace(dump_trace([encoded])).events
        assert decoded == fresh
        assert serializer.to_simpledb_items(decoded) == serializer.to_simpledb_items(fresh)
