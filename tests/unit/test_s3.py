"""Unit tests for the S3 simulator."""

import pytest

from repro import errors
from repro.aws import billing
from repro.blob import BytesBlob, SyntheticBlob
from repro.units import GB, KB
from tests.oracles import store_names


@pytest.fixture
def s3(strong_account):
    strong_account.s3.create_bucket("b")
    return strong_account.s3


class TestBuckets:
    def test_create_and_list(self, strong_account):
        s3 = strong_account.s3
        s3.create_bucket("alpha")
        s3.create_bucket("beta")
        assert store_names(s3) == ["alpha", "beta"]

    def test_duplicate_bucket_rejected(self, s3):
        with pytest.raises(errors.BucketAlreadyExists):
            s3.create_bucket("b")

    def test_missing_bucket_rejected(self, s3):
        with pytest.raises(errors.NoSuchBucket):
            s3.put("nope", "k", b"x")


class TestPutGet:
    def test_roundtrip_with_metadata(self, s3):
        etag = s3.put("b", "key", b"payload", metadata={"type": "file"})
        result = s3.get("b", "key")
        assert result.bytes() == b"payload"
        assert result.metadata == {"type": "file"}
        assert result.etag == etag == BytesBlob(b"payload").md5()

    def test_overwrite_replaces_object_and_metadata(self, s3):
        s3.put("b", "k", b"v1", metadata={"nonce": "v0001"})
        s3.put("b", "k", b"v2", metadata={"nonce": "v0002"})
        result = s3.get("b", "k")
        assert result.bytes() == b"v2"
        assert result.metadata == {"nonce": "v0002"}

    def test_missing_key(self, s3):
        with pytest.raises(errors.NoSuchKey):
            s3.get("b", "missing")

    def test_ranged_get(self, s3):
        s3.put("b", "k", b"0123456789")
        result = s3.get("b", "k", byte_range=(2, 6))
        assert result.bytes() == b"2345"
        assert result.content_length == 4

    def test_invalid_range(self, s3):
        s3.put("b", "k", b"0123")
        with pytest.raises(errors.InvalidRange):
            s3.get("b", "k", byte_range=(2, 100))

    def test_empty_object_rejected(self, s3):
        # "the size of the objects can range from 1 byte to 5GB" (§2.1)
        with pytest.raises(errors.EntityTooSmall):
            s3.put("b", "k", b"")

    def test_oversized_object_rejected(self, s3):
        blob = SyntheticBlob("big", 5 * GB + 1)
        with pytest.raises(errors.EntityTooLarge):
            s3.put("b", "k", blob)

    def test_five_gb_object_accepted(self, s3):
        s3.put("b", "k", SyntheticBlob("max", 5 * GB))
        assert s3.head("b", "k").size == 5 * GB

    def test_metadata_limit_enforced(self, s3):
        # 2 KB of user metadata (§2.1).
        with pytest.raises(errors.MetadataTooLarge):
            s3.put("b", "k", b"x", metadata={"m": "v" * (2 * KB)})

    def test_metadata_at_limit_accepted(self, s3):
        value = "v" * (2 * KB - 1)
        s3.put("b", "k", b"x", metadata={"m": value})
        assert s3.head("b", "k").metadata["m"] == value


class TestHead:
    def test_returns_metadata_not_content(self, s3):
        s3.put("b", "k", b"data", metadata={"a": "1"})
        head = s3.head("b", "k")
        assert head.metadata == {"a": "1"}
        assert head.size == 4
        assert not hasattr(head, "blob")

    def test_head_cheaper_transfer_than_get(self, strong_account):
        s3 = strong_account.s3
        s3.create_bucket("c")
        s3.put("c", "k", b"x" * 10_000, metadata={"m": "tiny"})
        before = strong_account.meter.snapshot()
        s3.head("c", "k")
        head_bytes = (strong_account.meter.snapshot() - before).transfer_out()
        before = strong_account.meter.snapshot()
        s3.get("c", "k")
        get_bytes = (strong_account.meter.snapshot() - before).transfer_out()
        assert head_bytes < get_bytes


class TestCopy:
    def test_copy_preserves_metadata_by_default(self, s3):
        s3.put("b", "src", b"data", metadata={"nonce": "v0001"})
        s3.copy("b", "src", "dst")
        assert s3.get("b", "dst").metadata == {"nonce": "v0001"}
        assert s3.get("b", "dst").bytes() == b"data"

    def test_copy_replace_metadata(self, s3):
        s3.put("b", "src", b"data", metadata={"old": "1"})
        s3.copy("b", "src", "dst", metadata={"nonce": "v0002"})
        assert s3.get("b", "dst").metadata == {"nonce": "v0002"}

    def test_copy_not_billed_for_transfer(self, strong_account):
        """§5: 'the COPY operation is not billed for data transfer'."""
        s3 = strong_account.s3
        s3.create_bucket("c")
        s3.put("c", "src", b"y" * 50_000)
        before = strong_account.meter.snapshot()
        s3.copy("c", "src", "dst")
        delta = strong_account.meter.snapshot() - before
        assert delta.transfer_in() == 0
        assert delta.transfer_out() == 0
        assert delta.request_count(billing.S3, "COPY") == 1

    def test_copy_missing_source(self, s3):
        with pytest.raises(errors.NoSuchKey):
            s3.copy("b", "missing", "dst")


class TestDelete:
    def test_delete_removes(self, s3):
        s3.put("b", "k", b"x")
        s3.delete("b", "k")
        with pytest.raises(errors.NoSuchKey):
            s3.get("b", "k")

    def test_delete_is_idempotent(self, s3):
        s3.delete("b", "never-existed")
        s3.put("b", "k", b"x")
        s3.delete("b", "k")
        s3.delete("b", "k")


class TestList:
    def test_prefix_and_pagination(self, s3):
        for i in range(25):
            s3.put("b", f"data/k{i:03d}", b"x")
        s3.put("b", "other/k", b"x")
        page = s3.list_keys("b", prefix="data/", max_keys=10)
        assert len(page.keys) == 10
        assert page.is_truncated
        page2 = s3.list_keys("b", prefix="data/", marker=page.next_marker, max_keys=100)
        assert len(page2.keys) == 15
        assert not page2.is_truncated

    def test_lexicographic_order(self, s3):
        for key in ("z", "a", "m"):
            s3.put("b", key, b"x")
        assert list(s3.list_keys("b").keys) == ["a", "m", "z"]

    def test_page_size_below_one_rejected_unmetered(self, s3, strong_account):
        """A page of fewer than one key cannot carry a continuation
        marker, so it would claim truncation with nowhere to resume."""
        for key in ("a", "m", "z"):
            s3.put("b", key, b"x")
        before = strong_account.meter.snapshot()
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_keys must be >= 1"):
                s3.list_keys("b", max_keys=bad)
        spent = strong_account.meter.snapshot() - before
        assert spent.request_count(billing.S3, "LIST") == 0


class TestStorageAccounting:
    def test_put_overwrite_delete_balance(self, strong_account):
        s3 = strong_account.s3
        meter = strong_account.meter
        s3.create_bucket("c")
        s3.put("c", "k", b"x" * 1000)
        level_after_put = meter.stored_bytes(billing.S3)
        assert level_after_put >= 1000
        s3.put("c", "k", b"y" * 500)
        assert meter.stored_bytes(billing.S3) < level_after_put
        s3.delete("c", "k")
        assert meter.stored_bytes(billing.S3) == 0


class TestEventualConsistency:
    def test_get_after_put_can_be_stale(self, eventual_account):
        """§2.1: a GET right after a PUT may return the older object."""
        s3 = eventual_account.s3
        s3.create_bucket("e")
        s3.put("e", "k", b"old", metadata={"v": "1"})
        eventual_account.quiesce()
        s3.put("e", "k", b"new", metadata={"v": "2"})
        versions = set()
        for _ in range(40):
            versions.add(s3.get("e", "k").metadata["v"])
        assert "1" in versions  # stale reads observed
        eventual_account.quiesce()
        assert s3.get("e", "k").metadata["v"] == "2"

    def test_brand_new_object_can_be_invisible(self, eventual_account):
        s3 = eventual_account.s3
        s3.create_bucket("e")
        s3.put("e", "fresh", b"x")
        missing = 0
        for _ in range(40):
            try:
                s3.get("e", "fresh")
            except errors.NoSuchKey:
                missing += 1
        assert missing > 0
        eventual_account.quiesce()
        assert s3.get("e", "fresh").bytes() == b"x"
