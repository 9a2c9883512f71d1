"""Unit tests for provenance records, references, and bundles."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.blob import BytesBlob
from repro.passlib.records import (
    Attr,
    FlushEvent,
    ObjectRef,
    ProvenanceBundle,
    ProvenanceRecord,
    consistency_token,
)

#: Object names, separators included: the codecs split at the last one.
names = st.text(alphabet=st.sampled_from("ab/_:v.٣0"), min_size=1, max_size=8)


class TestObjectRef:
    def test_encode_decode_roundtrip(self):
        ref = ObjectRef("data/foo.csv", 2)
        assert ref.encode() == "data/foo.csv:v0002"
        assert ObjectRef.decode(ref.encode()) == ref

    def test_item_name_roundtrip(self):
        ref = ObjectRef("out/bar", 17)
        assert ref.item_name == "out/bar_v0017"
        assert ObjectRef.from_item_name(ref.item_name) == ref

    def test_names_with_separators(self):
        ref = ObjectRef("weird:v_name_v2", 3)
        assert ObjectRef.decode(ref.encode()) == ref
        assert ObjectRef.from_item_name(ref.item_name) == ref

    def test_versions_start_at_one(self):
        with pytest.raises(ValueError):
            ObjectRef("x", 0)

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            ObjectRef.decode("no-version-here")
        with pytest.raises(ValueError):
            ObjectRef.from_item_name("still-no-version")

    def test_ordering_is_lexicographic_name_then_version(self):
        assert ObjectRef("a", 2) < ObjectRef("b", 1)
        assert ObjectRef("a", 1) < ObjectRef("a", 2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(names, st.integers(1, 10**6)), max_size=30))
    def test_value_type_matches_its_field_tuple(self, pairs):
        refs = [ObjectRef(name, version) for name, version in pairs]
        assert sorted(refs) == sorted(refs, key=lambda r: (r.name, r.version))
        assert [tuple(r) for r in sorted(refs)] == sorted(pairs)
        for ref, (name, version) in zip(refs, pairs):
            assert (ref.name, ref.version, ref.path) == (name, version, name)
            assert hash(ref) == hash((name, version))
            assert ObjectRef.decode(ref.encode()) == ref
            assert ObjectRef.from_item_name(ref.item_name) == ref
            assert ObjectRef(name=name, version=version) == ref
        assert len(set(refs)) == len(set(pairs))

    def test_repr_literal(self):
        assert repr(ObjectRef("bar", 2)) == "ObjectRef(name='bar', version=2)"
        assert repr(ObjectRef.decode("bar:v0002")) == "ObjectRef(name='bar', version=2)"

    def test_immutable(self):
        ref = ObjectRef("bar", 2)
        with pytest.raises(AttributeError):
            ref.name = "baz"
        with pytest.raises(AttributeError):
            ref.version = 3
        with pytest.raises(AttributeError):
            ref.extra = 1

    def test_equals_the_bare_field_tuple(self):
        """Intended: a ref is a ``(name, version)`` tuple, so it equals one."""
        assert ObjectRef("a", 1) == ("a", 1)
        assert ("a", 1) in {ObjectRef("a", 1)}
        assert ObjectRef("a", 1) != ("a", 2)

    def test_pickle_deepcopy_and_dataclass_helpers_round_trip(self):
        subject, parent = ObjectRef("foo", 2), ObjectRef("bar", 1)
        bundle = ProvenanceBundle(
            subject=subject, kind="file",
            records=(ProvenanceRecord(subject, Attr.INPUT, parent),),
        )
        event = FlushEvent(bundle=bundle, data=BytesBlob(b"x"))
        for copied in (pickle.loads(pickle.dumps(subject)), copy.deepcopy(subject)):
            assert copied == subject and type(copied) is ObjectRef
        assert pickle.loads(pickle.dumps(event)) == event
        assert copy.deepcopy(event) == event
        as_dict = dataclasses.asdict(event)
        assert as_dict["bundle"]["subject"] == subject
        assert type(as_dict["bundle"]["subject"]) is ObjectRef
        assert type(as_dict["bundle"]["records"][0]["value"]) is ObjectRef
        assert dataclasses.replace(event) == event

    @pytest.mark.parametrize("version", [2.5, 2.0, True, False, "2", None])
    def test_version_must_be_an_int(self, version):
        with pytest.raises(ValueError, match="a version is an int"):
            ObjectRef("a", version)
        with pytest.raises(ValueError, match="a version is an int"):
            ObjectRef("a", 1)._replace(version=version)
        with pytest.raises(ValueError, match="a version is an int"):
            ObjectRef._make(("a", version))

    @pytest.mark.parametrize(
        "text", ["a:v٣", "a:v０００２", "a:v²", "a:v", ":v0001", "a:v 1", "a:v+1"]
    )
    def test_decode_accepts_ascii_digits_only(self, text):
        with pytest.raises(ValueError, match="not an encoded ObjectRef"):
            ObjectRef.decode(text)

    @pytest.mark.parametrize("item_name", ["foo_v０００２", "foo_v٣", "foo_v²", "foo_v"])
    def test_from_item_name_accepts_ascii_digits_only(self, item_name):
        with pytest.raises(ValueError, match="not an item name"):
            ObjectRef.from_item_name(item_name)


class TestProvenanceRecord:
    def test_reference_values_encode(self):
        subject = ObjectRef("foo", 2)
        record = ProvenanceRecord(subject, Attr.INPUT, ObjectRef("bar", 2))
        assert record.is_reference
        assert record.encoded_value() == "bar:v0002"
        assert "input=bar:v0002" in str(record)

    def test_string_values_pass_through(self):
        record = ProvenanceRecord(ObjectRef("foo", 1), Attr.TYPE, "file")
        assert not record.is_reference
        assert record.encoded_value() == "file"

    def test_value_size_counts_utf8_bytes(self):
        record = ProvenanceRecord(ObjectRef("f", 1), Attr.ENV, "é" * 100)
        assert record.value_size == 200


class TestProvenanceBundle:
    def test_rejects_foreign_records(self):
        subject = ObjectRef("foo", 1)
        alien = ProvenanceRecord(ObjectRef("bar", 1), Attr.TYPE, "file")
        with pytest.raises(ValueError):
            ProvenanceBundle(subject=subject, kind="file", records=(alien,))

    def test_inputs_lists_references(self):
        subject = ObjectRef("foo", 2)
        records = (
            ProvenanceRecord(subject, Attr.TYPE, "file"),
            ProvenanceRecord(subject, Attr.INPUT, ObjectRef("proc/x.1", 1)),
            ProvenanceRecord(subject, Attr.VERSION_OF, ObjectRef("foo", 1)),
        )
        bundle = ProvenanceBundle(subject=subject, kind="file", records=records)
        assert bundle.inputs() == [ObjectRef("proc/x.1", 1), ObjectRef("foo", 1)]

    def test_attribute_values(self):
        subject = ObjectRef("foo", 1)
        bundle = ProvenanceBundle(
            subject=subject,
            kind="file",
            records=(
                ProvenanceRecord(subject, Attr.NAME, "foo"),
                ProvenanceRecord(subject, Attr.INPUT, ObjectRef("a", 1)),
                ProvenanceRecord(subject, Attr.INPUT, ObjectRef("b", 1)),
            ),
        )
        assert bundle.attribute_values(Attr.INPUT) == ["a:v0001", "b:v0001"]
        assert len(bundle) == 3


class TestFlushEvent:
    def test_nonce_is_version(self):
        subject = ObjectRef("foo", 3)
        bundle = ProvenanceBundle(subject=subject, kind="file", records=())
        event = FlushEvent(bundle=bundle, data=BytesBlob(b"x"))
        assert event.nonce == "v0003"

    def test_all_bundles_ancestors_first(self):
        subject = ObjectRef("foo", 1)
        ancestor_subject = ObjectRef("proc/p.1", 1)
        own = ProvenanceBundle(subject=subject, kind="file", records=())
        ancestor = ProvenanceBundle(subject=ancestor_subject, kind="process", records=())
        event = FlushEvent(bundle=own, data=BytesBlob(b"x"), ancestors=(ancestor,))
        assert [b.subject for b in event.all_bundles()] == [
            ancestor_subject, subject,
        ]


class TestConsistencyToken:
    def test_changes_with_data_and_nonce(self):
        base = consistency_token("abc", "v0001")
        assert base == consistency_token("abc", "v0001")
        assert base != consistency_token("abd", "v0001")
        assert base != consistency_token("abc", "v0002")

    def test_same_data_different_nonce_detectable(self):
        """§4.2: rewriting identical bytes still changes the token."""
        data_md5 = BytesBlob(b"same bytes").md5()
        assert consistency_token(data_md5, "v0001") != consistency_token(
            data_md5, "v0002"
        )
