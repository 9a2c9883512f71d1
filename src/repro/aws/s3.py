"""Simulated Amazon S3 (January 2009 semantics).

Implements the object-store behaviours the paper's architectures depend
on (§2.1):

* objects from 1 byte to 5 GB, identified by (bucket, key);
* PUT stores an object *and up to 2 KB of user metadata atomically* —
  the crux of architecture A1, whose read correctness rests on data and
  provenance travelling in one PUT;
* GET retrieves complete objects or byte ranges; HEAD retrieves only the
  metadata; COPY duplicates server-side (not billed for transfer);
  DELETE removes;
* last-writer-wins for concurrent PUTs, and **eventual consistency**: a
  GET after a PUT may observe the older object, because reads are served
  by a replica the update may not have reached yet;
* billing by request class, bytes transferred, and bytes stored.

The service raises :class:`~repro.errors.NoSuchKey` when the chosen
replica has not yet heard of an object — exactly the transient condition
the A2/A3 read protocols must retry through.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import errors, units
from repro.aws import billing
from repro.aws.consistency import DelayModel, ReplicaSet, STRONG
from repro.aws.faults import RequestFaults
from repro.blob import Blob, as_blob
from repro.clock import SimClock


def metadata_size(metadata: dict[str, str]) -> int:
    """Byte size S3 charges against the 2 KB user-metadata limit."""
    return sum(len(k.encode()) + len(v.encode()) for k, v in metadata.items())


@dataclass(frozen=True)
class S3ObjectRecord:
    """Immutable stored representation of one S3 object version.
    ``metadata_bytes`` is :func:`metadata_size` of the metadata, taken
    once at PUT/COPY (where the 2 KB check computes it anyway) and read
    by every GET, HEAD and storage delta afterwards."""

    blob: Blob
    metadata: tuple[tuple[str, str], ...]
    metadata_bytes: int
    etag: str
    last_modified: float

    @property
    def metadata_dict(self) -> dict[str, str]:
        return dict(self.metadata)

    @property
    def stored_size(self) -> int:
        return self.blob.size + self.metadata_bytes


@dataclass(frozen=True)
class S3GetResult:
    """Result of a GET: content reference plus the object's metadata."""

    bucket: str
    key: str
    blob: Blob
    metadata: dict[str, str]
    etag: str
    range: tuple[int, int]

    def bytes(self) -> bytes:
        """Materialise the requested byte range."""
        start, end = self.range
        return self.blob.read(start, end)

    @property
    def content_length(self) -> int:
        start, end = self.range
        return end - start


@dataclass(frozen=True)
class S3HeadResult:
    """Result of a HEAD: metadata only, no content transfer."""

    bucket: str
    key: str
    metadata: dict[str, str]
    etag: str
    size: int
    last_modified: float


@dataclass(frozen=True)
class S3ListResult:
    """One page of a LIST request."""

    keys: tuple[str, ...]
    is_truncated: bool
    next_marker: str | None


class S3Service:
    """The simulated S3 endpoint for one AWS account."""

    def __init__(
        self,
        clock: SimClock,
        rng: random.Random,
        meter: billing.Meter,
        faults: RequestFaults | None = None,
        delays: DelayModel = STRONG,
        n_replicas: int = 3,
    ):
        self._clock = clock
        self._rng = rng
        self._meter = meter
        self._faults = faults or RequestFaults()
        self._delays = delays
        self._n_replicas = n_replicas
        self._buckets: dict[str, ReplicaSet[S3ObjectRecord]] = {}

    # -- bucket management -------------------------------------------------

    def create_bucket(self, name: str) -> None:
        self._request("PUT")
        if name in self._buckets:
            raise errors.BucketAlreadyExists(name)
        self._buckets[name] = ReplicaSet(
            f"s3/{name}", self._clock, self._rng, self._n_replicas, self._delays
        )

    def list_buckets(self) -> list[str]:
        self._request("GET")
        return sorted(self._buckets)

    def _bucket(self, name: str) -> ReplicaSet[S3ObjectRecord]:
        bucket = self._buckets.get(name)
        if bucket is None:
            raise errors.NoSuchBucket(name)
        return bucket

    # -- object operations ---------------------------------------------------

    def put(
        self,
        bucket: str,
        key: str,
        content: Blob | bytes | str,
        metadata: dict[str, str] | None = None,
    ) -> str:
        """Store an object, overwriting any existing one; returns the ETag.

        Data and metadata are applied in a single authoritative write:
        this is the atomicity that architecture A1 leans on.
        """
        self._request("PUT")
        blob = as_blob(content)
        metadata = dict(metadata or {})
        if blob.size < units.S3_MIN_OBJECT_SIZE:
            raise errors.EntityTooSmall(f"{bucket}/{key}: objects must be >= 1 byte")
        if blob.size > units.S3_MAX_OBJECT_SIZE:
            raise errors.EntityTooLarge(
                f"{bucket}/{key}: {blob.size} bytes exceeds the 5GB limit"
            )
        md_size = metadata_size(metadata)
        if md_size > units.S3_MAX_METADATA_SIZE:
            raise errors.MetadataTooLarge(
                f"{bucket}/{key}: {md_size} bytes of metadata exceeds "
                f"the {units.S3_MAX_METADATA_SIZE} byte limit"
            )
        store = self._bucket(bucket)
        self._meter.record_transfer_in(billing.S3, blob.size + md_size)
        return self._install(store, key, blob, metadata, md_size)

    def _install(
        self, store: ReplicaSet[S3ObjectRecord], key: str, blob: Blob,
        metadata: dict[str, str], md_size: int,
    ) -> str:
        """Make (blob, metadata) the object at ``key`` — what PUT and
        COPY share: one record, sized once, and the storage delta."""
        record = S3ObjectRecord(
            blob=blob,
            metadata=tuple(sorted(metadata.items())),
            metadata_bytes=md_size,
            etag=blob.md5(),
            last_modified=self._clock.now,
        )
        previous = store.read_authoritative(key)
        delta = record.stored_size - (previous.stored_size if previous else 0)
        self._meter.adjust_stored(billing.S3, delta)
        store.write(key, record)
        return record.etag

    def get(
        self,
        bucket: str,
        key: str,
        byte_range: tuple[int, int] | None = None,
    ) -> S3GetResult:
        """Retrieve an object (or a byte range of it) from some replica."""
        self._request("GET")
        record = self._read_replica(bucket, key)
        if byte_range is None:
            start, end = 0, record.blob.size
        else:
            start, end = byte_range
            if not (0 <= start < end <= record.blob.size):
                raise errors.InvalidRange(
                    f"{bucket}/{key}: range [{start}, {end}) "
                    f"outside object of {record.blob.size} bytes"
                )
        self._meter.record_transfer_out(
            billing.S3, (end - start) + record.metadata_bytes
        )
        return S3GetResult(
            bucket=bucket,
            key=key,
            blob=record.blob,
            metadata=record.metadata_dict,
            etag=record.etag,
            range=(start, end),
        )

    def head(self, bucket: str, key: str) -> S3HeadResult:
        """Retrieve only an object's metadata (how A1 reads provenance)."""
        self._request("HEAD")
        record = self._read_replica(bucket, key)
        self._meter.record_transfer_out(billing.S3, record.metadata_bytes)
        return S3HeadResult(
            bucket=bucket,
            key=key,
            metadata=record.metadata_dict,
            etag=record.etag,
            size=record.blob.size,
            last_modified=record.last_modified,
        )

    def copy(
        self,
        bucket: str,
        src_key: str,
        dst_key: str,
        dst_bucket: str | None = None,
        metadata: dict[str, str] | None = None,
    ) -> str:
        """Server-side copy; not billed for data transfer (paper §5).

        ``metadata=None`` copies the source metadata (the COPY directive);
        passing a dict replaces it (the REPLACE directive), which is how
        the A3 commit daemon stamps the nonce while promoting a temporary
        object to its permanent name.
        """
        self._request("COPY")
        source = self._read_replica(bucket, src_key)
        new_metadata = source.metadata_dict if metadata is None else dict(metadata)
        md_size = metadata_size(new_metadata)
        if md_size > units.S3_MAX_METADATA_SIZE:
            raise errors.MetadataTooLarge(
                f"{dst_bucket or bucket}/{dst_key}: {md_size} bytes of metadata"
            )
        target_bucket = self._bucket(dst_bucket or bucket)
        return self._install(target_bucket, dst_key, source.blob, new_metadata, md_size)

    def delete(self, bucket: str, key: str) -> None:
        """Delete an object. Idempotent: deleting a missing key succeeds."""
        self._request("DELETE")
        store = self._bucket(bucket)
        previous = store.read_authoritative(key)
        if previous is not None:
            self._meter.adjust_stored(billing.S3, -previous.stored_size)
            store.delete(key)

    def list_keys(
        self,
        bucket: str,
        prefix: str = "",
        marker: str | None = None,
        max_keys: int = 1000,
    ) -> S3ListResult:
        """List keys (one replica's view) in lexicographic order."""
        if max_keys < 1:
            raise ValueError(f"max_keys must be >= 1, got {max_keys}")
        self._request("LIST")
        store = self._bucket(bucket)
        visible = [
            k
            for k in store.keys_snapshot()
            if k.startswith(prefix) and (marker is None or k > marker)
        ]
        page = tuple(visible[:max_keys])
        truncated = len(visible) > max_keys
        self._meter.record_transfer_out(
            billing.S3, sum(len(k.encode()) for k in page)
        )
        return S3ListResult(
            keys=page,
            is_truncated=truncated,
            next_marker=page[-1] if truncated and page else None,
        )

    # -- test/oracle helpers -------------------------------------------------

    def exists_authoritative(self, bucket: str, key: str) -> bool:
        """Oracle check bypassing eventual consistency (tests only)."""
        return self._bucket(bucket).contains_authoritative(key)

    def authoritative_keys(self, bucket: str) -> list[str]:
        return self._bucket(bucket).authoritative_keys()

    def authoritative_record(self, bucket: str, key: str) -> S3ObjectRecord | None:
        return self._bucket(bucket).read_authoritative(key)

    # -- internals -------------------------------------------------------------

    def _read_replica(self, bucket: str, key: str) -> S3ObjectRecord:
        record = self._bucket(bucket).read(key)
        if record is None:
            raise errors.NoSuchKey(f"{bucket}/{key}")
        return record

    def _request(self, op: str) -> None:
        self._faults.before_request(billing.S3, op)
        self._meter.record_request(billing.S3, op)
