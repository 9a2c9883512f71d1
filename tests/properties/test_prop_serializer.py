"""Property tests: serialization round-trips for arbitrary records."""

from hypothesis import given, settings, strategies as st

from repro.blob import BytesBlob
from repro.passlib import serializer
from repro.passlib.records import (
    Attr,
    FlushEvent,
    ObjectRef,
    ProvenanceBundle,
    ProvenanceRecord,
)
from repro.units import S3_MAX_METADATA_SIZE

names = st.text(
    alphabet="abcdefghij/._-", min_size=1, max_size=24
).filter(lambda s: not s.endswith(":") and ":v" not in s and "_v" not in s)
versions = st.integers(1, 9999)
refs = st.builds(ObjectRef, name=names, version=versions)
attributes = st.sampled_from(
    [Attr.NAME, Attr.ARGV, Attr.ENV, Attr.PID, "custom_attr"]
)
# Values span the 1 KB spill threshold; the serializer must handle both.
small_values = st.text(alphabet="xyz= \n", min_size=0, max_size=64)
large_values = st.integers(1025, 4000).map(lambda n: "v" * n)
string_values = st.one_of(small_values, large_values)


@st.composite
def flush_events(draw):
    subject = draw(refs)
    n_own = draw(st.integers(1, 8))
    own_records = [ProvenanceRecord(subject, Attr.TYPE, "file")]
    for _ in range(n_own):
        attribute = draw(attributes)
        if draw(st.booleans()):
            value = draw(refs)
            attribute = Attr.INPUT
        else:
            value = draw(string_values)
        own_records.append(ProvenanceRecord(subject, attribute, value))
    ancestors = []
    for index in range(draw(st.integers(0, 2))):
        ancestor_subject = ObjectRef(f"proc/a{index}.{index}", 1)
        ancestor_records = [
            ProvenanceRecord(ancestor_subject, Attr.TYPE, "process"),
            ProvenanceRecord(ancestor_subject, Attr.ENV, draw(string_values)),
        ]
        ancestors.append(
            ProvenanceBundle(
                subject=ancestor_subject,
                kind="process",
                records=tuple(ancestor_records),
            )
        )
    bundle = ProvenanceBundle(subject=subject, kind="file", records=tuple(own_records))
    return FlushEvent(
        bundle=bundle,
        data=BytesBlob(draw(st.binary(min_size=1, max_size=64))),
        ancestors=tuple(ancestors),
    )


def record_set(bundle):
    return sorted(str(r) for r in bundle.records)


@settings(max_examples=80, deadline=None)
@given(event=flush_events())
def test_s3_metadata_roundtrip(event):
    payload = serializer.to_s3_metadata(event)
    assert payload.metadata_size <= S3_MAX_METADATA_SIZE
    store = {o.key: o.value for o in payload.overflow}
    own, ancestors = serializer.bundles_from_s3_metadata(
        event.subject, payload.metadata, store.__getitem__
    )
    assert record_set(own) == record_set(event.bundle)
    assert len(ancestors) == len(event.ancestors)
    for decoded, original in zip(ancestors, event.ancestors):
        assert record_set(decoded) == record_set(original)
        assert decoded.subject == original.subject


@settings(max_examples=80, deadline=None)
@given(event=flush_events())
def test_simpledb_items_roundtrip(event):
    items = serializer.to_simpledb_items(event)
    assert len(items) == 1 + len(event.ancestors)
    for bundle, item in zip(event.all_bundles(), items):
        attrs: dict[str, list[str]] = {}
        for name, value in item.attributes:
            assert len(value.encode()) <= 1024  # SimpleDB limit respected
            attrs.setdefault(name, []).append(value)
        store = {o.key: o.value for o in item.overflow}
        decoded = serializer.bundle_from_item(
            item.item_name,
            {k: tuple(v) for k, v in attrs.items()},
            store.__getitem__,
        )
        assert record_set(decoded) == record_set(bundle)


@settings(max_examples=60, deadline=None)
@given(ref=refs)
def test_objectref_encodings_invertible(ref):
    assert ObjectRef.decode(ref.encode()) == ref
    assert ObjectRef.from_item_name(ref.item_name) == ref
