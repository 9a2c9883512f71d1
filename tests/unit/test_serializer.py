"""Unit tests for record serialization (S3 metadata / SimpleDB / wire)."""

import pytest

from repro.core.wal import prov_records
from repro.errors import ReadCorrectnessViolation
from repro.passlib.capture import PassSystem
from repro.passlib.records import Attr
from repro.passlib import serializer
from repro.units import KB, S3_MAX_METADATA_SIZE
from tests.oracles import reference_s3_metadata


def event_with_env(env_bytes: int = 0, n_inputs: int = 1):
    pas = PassSystem(workload="t")
    for i in range(n_inputs):
        pas.stage_input(f"in{i}.dat", f"data{i}".encode())
    pas.drain_flushes()
    env = {"BIG": "x" * env_bytes} if env_bytes else {"PATH": "/bin"}
    with pas.process("tool", argv="-v", env=env) as proc:
        for i in range(n_inputs):
            proc.read(f"in{i}.dat")
        proc.write("out.dat", b"result")
        return proc.close("out.dat")


def records_of(bundle):
    return sorted(str(r) for r in bundle.records)


class TestS3Metadata:
    def test_roundtrip_without_overflow(self):
        event = event_with_env()
        payload = serializer.to_s3_metadata(event)
        assert payload.overflow == ()
        own, ancestors = serializer.bundles_from_s3_metadata(
            event.subject, payload.metadata, lambda key: pytest.fail("no overflow")
        )
        assert records_of(own) == records_of(event.bundle)
        assert len(ancestors) == len(event.ancestors)
        assert records_of(ancestors[0]) == records_of(event.ancestors[0])

    def test_values_over_1kb_spill(self):
        event = event_with_env(env_bytes=3 * KB)
        payload = serializer.to_s3_metadata(event)
        assert len(payload.overflow) == 1
        assert payload.overflow[0].size >= 3 * KB
        assert payload.metadata_size <= S3_MAX_METADATA_SIZE
        store = {o.key: o.value for o in payload.overflow}
        own, ancestors = serializer.bundles_from_s3_metadata(
            event.subject, payload.metadata, store.__getitem__
        )
        assert records_of(ancestors[0]) == records_of(event.ancestors[0])

    def test_metadata_fits_2kb_even_with_many_records(self):
        event = event_with_env(n_inputs=30)
        payload = serializer.to_s3_metadata(event)
        assert payload.metadata_size <= S3_MAX_METADATA_SIZE

    def test_nothing_spillable_left_matches_reference(self):
        # Keys and pointers alone exceed 2 KB: the size pass spills every
        # value, is undone, and the bundle moves whole into one object.
        event = event_with_env(env_bytes=1500, n_inputs=120)
        payload = serializer.to_s3_metadata(event)
        assert list(payload.metadata) == [serializer.BUNDLE_KEY, "nonce"]
        assert payload.metadata_size <= S3_MAX_METADATA_SIZE
        reference = reference_s3_metadata(event)
        assert list(payload.metadata.items()) == list(reference.metadata.items())
        assert payload.overflow == reference.overflow
        store = {o.key: o.value for o in payload.overflow}
        own, ancestors = serializer.bundles_from_s3_metadata(
            event.subject, payload.metadata, store.__getitem__
        )
        assert records_of(own) == records_of(event.bundle)
        assert [records_of(a) for a in ancestors] == [
            records_of(a) for a in event.ancestors
        ]

    @pytest.mark.parametrize("body", ["not json", "[1, 2]", '{"type": 7}'])
    def test_malformed_bundle_object_is_a_read_error(self, body):
        # Metadata is user text: a hand-written bundle pointer at an object
        # that is not a JSON object of strings raises the domain error,
        # not a bare JSONDecodeError or AttributeError.
        event = event_with_env()
        metadata = {serializer.BUNDLE_KEY: serializer.POINTER_PREFIX + "k", "nonce": "v0001"}
        with pytest.raises(ReadCorrectnessViolation, match="malformed bundle object"):
            serializer.bundles_from_s3_metadata(event.subject, metadata, {"k": body}.get)

    def test_repeated_attributes_keyed_distinctly(self):
        event = event_with_env(n_inputs=3)
        payload = serializer.to_s3_metadata(event)
        input_keys = [k for k in payload.metadata if k.startswith("a0.input")]
        assert len(input_keys) == 3

    def test_nonce_included(self):
        event = event_with_env()
        payload = serializer.to_s3_metadata(event)
        assert payload.metadata["nonce"] == event.nonce

    def test_overflow_keys_deterministic(self):
        event = event_with_env(env_bytes=2 * KB)
        first = serializer.to_s3_metadata(event)
        second = serializer.to_s3_metadata(event)
        assert [o.key for o in first.overflow] == [o.key for o in second.overflow]


class TestSimpleDBItems:
    def test_one_item_per_bundle(self):
        event = event_with_env()
        items = serializer.to_simpledb_items(event)
        assert len(items) == 1 + len(event.ancestors)
        assert items[-1].item_name == event.subject.item_name

    def test_file_item_carries_md5_and_nonce(self):
        event = event_with_env()
        item = serializer.to_simpledb_items(event)[-1]
        attrs = dict(item.attributes)
        assert attrs[Attr.NONCE] == event.nonce
        assert attrs[Attr.MD5] == __import__(
            "repro.passlib.records", fromlist=["consistency_token"]
        ).consistency_token(event.data.md5(), event.nonce)

    def test_values_over_1kb_spill(self):
        event = event_with_env(env_bytes=2 * KB)
        items = serializer.to_simpledb_items(event)
        process_item = items[0]
        assert len(process_item.overflow) == 1
        values = [v for _, v in process_item.attributes]
        assert any(v.startswith(serializer.POINTER_PREFIX) for v in values)
        assert all(len(v.encode()) <= KB for v in values)

    def test_roundtrip(self):
        event = event_with_env(env_bytes=2 * KB, n_inputs=2)
        for bundle, item in zip(
            event.all_bundles(), serializer.to_simpledb_items(event)
        ):
            attrs: dict[str, list[str]] = {}
            for name, value in item.attributes:
                attrs.setdefault(name, []).append(value)
            store = {o.key: o.value for o in item.overflow}
            decoded = serializer.bundle_from_item(
                item.item_name,
                {k: tuple(v) for k, v in attrs.items()},
                store.__getitem__,
            )
            assert records_of(decoded) == records_of(bundle)
            assert decoded.kind == bundle.kind


class TestWireFormat:
    def test_wire_json_is_compact_and_stable(self):
        payload = serializer.to_simpledb_items(event_with_env())[0]
        (text,) = prov_records("txn-1", payload)
        assert text.startswith('{"attrs":[["')
        assert text.endswith(f'"item":"{payload.item_name}","t":"prov","txn":"txn-1"}}')
        assert prov_records("txn-1", payload) == [text]
