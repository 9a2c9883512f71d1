"""Architecture A1 — Standalone S3 (paper §4.1, Figure 1).

PASS uses S3 as the storage layer for *both* data and provenance: each
PASS file maps to one S3 object and the file's provenance travels as the
object's user metadata in the very same PUT. Because S3 applies a PUT
atomically, data and provenance are stored together or not at all —
**read correctness holds by construction** — and causal ordering holds
because flush events arrive ancestors-first. The price is query: the
only way to read provenance is a HEAD per object, so any search must
scan the whole repository (Table 1's missing check mark; Table 3's
scan costs).

Protocol on file close (§4.1):

1. read the data cache file and provenance cache file of the object;
2. convert the provenance into attribute-value pairs as required by S3;
3. issue a single PUT carrying the object and its provenance metadata.

Engineering notes faithful to the paper's discussion:

* values larger than 1 KB are stored in separate S3 objects to stay
  inside the 2 KB metadata limit (the paper measures 24,952 of these);
  we write the overflow objects *before* the main PUT so a reader can
  never observe a dangling pointer — a crash in between leaves only
  unreferenced garbage, preserving read correctness;
* transient ancestors (process provenance) piggyback on the metadata of
  the first output file that references them, which is why process
  provenance "regularly exceeds" the metadata limit;
* because the file's S3 object is overwritten in place, only the
  *current* version's provenance is reachable by HEAD — superseded
  versions survive only through their spilled overflow objects. This is
  an inherent limitation of A1 that the SimpleDB architectures fix.
"""

from __future__ import annotations

from repro.aws.account import AWSAccount
from repro.aws.faults import NO_FAULTS, FaultPlan, call_with_retries
from repro.core.base import (
    Component,
    DATA_BUCKET,
    Flow,
    ProvenanceCloudStore,
    ReadResult,
    RetryPolicy,
    data_key,
)
from repro.errors import ReadCorrectnessViolation
from repro.passlib.records import FlushEvent, ObjectRef
from repro.passlib.serializer import (
    S3MetadataPayload,
    bundles_from_s3_metadata,
    parse_nonce,
    to_s3_metadata,
)


class S3Standalone(ProvenanceCloudStore):
    """Provenance as S3 object metadata — one atomic PUT per close."""

    name = "s3"

    def __init__(
        self,
        account: AWSAccount,
        faults: FaultPlan = NO_FAULTS,
        retry: RetryPolicy | None = None,
        shards: int = 1,
        router=None,
    ):
        # A1 keeps no SimpleDB domain; the router is accepted (so the
        # fleet can construct every architecture uniformly) but unused.
        super().__init__(account, faults, retry, shards=shards, router=router)
        self.overflow_objects_written = 0

    def _do_provision(self) -> None:
        self._ensure_bucket(DATA_BUCKET)

    # -- store protocol (§4.1) ---------------------------------------------

    def _do_store(self, event: FlushEvent) -> None:
        faults = self.faults
        faults.check("a1.store.begin")
        # Step 1-2: read caches and serialise (the flush event *is* the
        # cache contents; serialisation may spill >1KB values).
        payload: S3MetadataPayload = to_s3_metadata(event)
        faults.check("a1.store.serialized")
        # Overflow objects first: a crash between overflow PUTs and the
        # main PUT leaves unreferenced garbage, never a dangling pointer.
        for overflow in payload.overflow:
            call_with_retries(
                self.account.s3.put, DATA_BUCKET, overflow.key, overflow.value
            )
            self.overflow_objects_written += 1
            faults.check("a1.store.overflow_put")
        faults.check("a1.store.before_put")
        # Step 3: the single PUT carrying both data and provenance.
        call_with_retries(
            self.account.s3.put,
            DATA_BUCKET,
            data_key(event.subject.name),
            event.data,
            metadata=payload.metadata,
        )
        faults.check("a1.store.done")

    # -- read protocol ----------------------------------------------------------

    def _do_read(self, name: str, version: int | None) -> ReadResult:
        result = self.account.s3.get(DATA_BUCKET, data_key(name))
        subject, (bundle, _ancestors) = self._decode(name, result.metadata)
        if version is not None and subject.version != version:
            raise ReadCorrectnessViolation(
                f"{name}: S3 holds version {subject.version}; version "
                f"{version} is not reachable in the standalone-S3 design"
            )
        return ReadResult(
            subject=subject,
            data=result.blob,
            bundle=bundle,
            consistent=True,  # data+provenance came from one object
        )

    def head_provenance(self, name: str) -> ReadResult:
        """Read provenance only, via HEAD (the §4.1 query primitive)."""
        self.provision()
        head = self.account.s3.head(DATA_BUCKET, data_key(name))
        subject, (bundle, _ancestors) = self._decode(name, head.metadata)
        return ReadResult(subject=subject, data=None, bundle=bundle, consistent=True)

    def _decode(self, name: str, metadata: dict[str, str]):
        """(subject, (own bundle, piggybacked ancestor bundles))."""
        nonce = metadata.get("nonce", "v0001")
        version = parse_nonce(nonce)
        if version is None:
            raise ReadCorrectnessViolation(f"{name}: malformed nonce {nonce!r}")
        subject = ObjectRef(name, version)
        return subject, bundles_from_s3_metadata(
            subject, metadata, self._fetch_overflow
        )

    def read_with_ancestors(self, name: str):
        """Read the full metadata payload including piggybacked ancestors."""
        self.provision()
        result = self.account.s3.get(DATA_BUCKET, data_key(name))
        return self._decode(name, result.metadata)[1]

    # -- diagram (Figure 1) ------------------------------------------------------

    def components(self) -> list[Component]:
        return [
            Component("application", "issues read/write/close system calls"),
            Component("pass", "PASS capture layer + local cache"),
            Component("s3", "Amazon S3: data objects with provenance metadata"),
        ]

    def flows(self) -> list[Flow]:
        return [
            Flow("application", "pass", "system calls"),
            Flow("pass", "s3", "PUT(data + provenance metadata) on close"),
            Flow("s3", "pass", "GET data / HEAD provenance"),
        ]
