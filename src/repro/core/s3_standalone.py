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
  unreferenced garbage, preserving read correctness. A bundle whose keys
  alone are over the limit (the ``ld`` of the paper's kernel build, with
  60-120 inputs) moves whole into one such object, leaving the nonce and
  a pointer;
* transient ancestors (process provenance) piggyback on the metadata of
  the first output file that references them, which is why process
  provenance "regularly exceeds" the metadata limit;
* because the file's S3 object is overwritten in place, only the
  *current* version's provenance is reachable by HEAD — superseded
  versions survive only through their spilled overflow objects. This is
  an inherent limitation of A1 that the SimpleDB architectures fix.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator

from repro.aws.account import AWSAccount
from repro.aws.faults import FaultPlan, call_with_retries
from repro.aws.backend import paged
from repro.aws.sdb_query import matching, parse_query
from repro.core.base import (
    Component,
    DATA_BUCKET,
    Flow,
    PASS_PREFIX,
    ProvenanceCloudStore,
    ReadResult,
    RetryPolicy,
    authoritative_text,
    data_key,
    fetch_overflow,
)
from repro.errors import NoSuchKey, ReadCorrectnessViolation
from repro.passlib.objects import Kind
from repro.passlib.records import Attr, FlushEvent, ObjectRef, ProvenanceBundle
from repro.passlib.serializer import (
    S3MetadataPayload,
    bundles_from_s3_metadata,
    parse_nonce,
    to_s3_metadata,
)

#: An item row: (item name, attribute -> values).
Row = tuple[str, dict[str, tuple[str, ...]]]


def metadata_version(metadata: dict[str, str]) -> int | None:
    """The version an object's ``nonce`` metadata names (1 for an object
    written without one), or ``None`` when the nonce is malformed."""
    return parse_nonce(metadata.get(Attr.NONCE, "v0001"))


def decode_object(name: str, metadata: dict[str, str], fetch: Callable[[str], str]):
    """(own bundle, piggybacked ancestor bundles) of one data object; a
    malformed nonce or bundle object raises
    :class:`ReadCorrectnessViolation`."""
    version = metadata_version(metadata)
    if version is None:
        raise ReadCorrectnessViolation(f"{name}: malformed nonce {metadata[Attr.NONCE]!r}")
    return bundles_from_s3_metadata(ObjectRef(name, version), metadata, fetch)


def object_bundles(
    keys: Iterable[str], metadata_of: Callable[[str], dict[str, str]], fetch
) -> Iterator[tuple[ProvenanceBundle, ...] | None]:
    """The one decode loop over A1's metadata format: per data object
    among ``keys``, in order, the bundles its metadata holds — its own,
    then those piggybacked on it.

    An object whose nonce or bundle object is malformed holds no
    provenance a reader could decode: it yields ``None``, so a scan
    skips and counts it instead of aborting. Keys under
    :data:`PASS_PREFIX` hold spilled values and WAL copies, never a PASS
    file, and an object ``metadata_of`` no longer finds (replica lag on
    a brand-new object) is passed over.
    """
    for key in keys:
        if key.startswith(PASS_PREFIX):
            continue
        try:
            metadata = metadata_of(key)
        except NoSuchKey:
            continue
        try:
            own, ancestors = decode_object(key, metadata, fetch)
        except ReadCorrectnessViolation:
            yield None
            continue
        yield (own, *ancestors)


def _row(bundle: ProvenanceBundle) -> Row:
    """A decoded bundle as an item row: its records as attributes, plus
    ``nonce`` for a file (what an A2/A3 item holds)."""
    attrs: dict[str, tuple[str, ...]] = {}
    for record in bundle.records:
        attrs[record.attribute] = (*attrs.get(record.attribute, ()), record.encoded_value())
    if bundle.kind == Kind.FILE:
        attrs[Attr.NONCE] = (ObjectRef.nonce_of(bundle.subject.version),)
    return bundle.subject.item_name, attrs


class S3Standalone(ProvenanceCloudStore):
    """Provenance as S3 object metadata — one atomic PUT per close."""

    name = "s3"
    has_provenance_domain = False

    def __init__(
        self,
        account: AWSAccount,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        shards: int = 1,
        router=None,
        write_batch: int | None = None,
        client_id: str = "client-0",
        commit_threshold: int | None = None,
    ):
        # A1 keeps no provenance domain; the router, the default width
        # and the commit threshold are accepted (so every driver
        # constructs every architecture uniformly) but unused.
        if write_batch not in (None, 1):
            raise ValueError("the s3 architecture has no provenance write path to batch")
        super().__init__(
            account, faults, retry, shards=shards, router=router, client_id=client_id
        )
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
        bundle, _ = decode_object(name, result.metadata, self._fetch_overflow)
        subject = bundle.subject
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
        bundle, _ = decode_object(name, head.metadata, self._fetch_overflow)
        return ReadResult(subject=bundle.subject, data=None, bundle=bundle, consistent=True)

    def stored_bundles(self) -> dict[ObjectRef, ProvenanceBundle]:
        """Each data object's own bundle and the ancestors piggybacked on
        it, decoded by the scan's loop (:func:`object_bundles`) from
        authoritative metadata and overflow objects — so an object a
        scan skips holds no provenance here either."""
        s3 = self.account.s3
        decoded = object_bundles(
            s3.authoritative_keys(DATA_BUCKET),
            lambda key: s3.authoritative_record(DATA_BUCKET, key).metadata_dict,
            partial(authoritative_text, self.account),
        )
        bundles: dict[ObjectRef, ProvenanceBundle] = {}
        for bundle in (bundle for found in decoded if found for bundle in found):
            if bundles.setdefault(bundle.subject, bundle) != bundle:
                raise ReadCorrectnessViolation(
                    f"{bundle.subject.encode()}: two objects carry different "
                    "copies of its provenance"
                )
        return bundles

    def read_with_ancestors(self, name: str):
        """Read the full metadata payload including piggybacked ancestors."""
        self.provision()
        result = self.account.s3.get(DATA_BUCKET, data_key(name))
        return decode_object(name, result.metadata, self._fetch_overflow)

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


class BucketScan:
    """A1's one query site: the data bucket, whose only access path is a
    full metadata scan (§4.1). It plays the three parts
    :class:`~repro.query.engine.SimpleDBEngine` asks of a layout:

    * **the routing** — one site for every phase and every point read,
      at an epoch that never moves (A1 has no layout to change);
    * **the site** — labelled with the bucket's name, on backend kind
      ``"s3"``;
    * **the site's backend adapter.** The first phase of a query to reach
      the bucket lists it, HEADs every data object and GETs its spilled
      values, and keeps each decoded bundle, the object's own and the
      piggybacked ones, as an item row: the bundle's records as
      attributes, plus ``nonce`` for a file. Every later phase of the
      same query evaluates its predicate over those rows and issues no
      request; the engine calls :meth:`forget` as each query begins.
      Rows are not projected, since the scan paid for every attribute.
      A point read (:meth:`get_item`) is one HEAD of the object, a hit
      when its nonce names the version asked for; the engine then GETs
      each ``@s3:`` pointer of the metadata it returns.
    """

    kind = "s3"
    domain = DATA_BUCKET
    epoch = 0

    def __init__(self, account: AWSAccount):
        self.account = account
        #: Objects the last scan skipped because their ``nonce`` metadata
        #: or bundle object would not parse — a malformed object must not
        #: abort the scan.
        self.skipped_items = 0
        self._rows: list[Row] | None = None

    def query_sites(self) -> tuple["BucketScan"]:
        return (self,)

    def read_site(self, path: str) -> "BucketScan":
        return self

    def forget(self) -> None:
        """Drop the last query's scan: the next phase scans again."""
        self._rows = None

    def _scanned(self) -> list[Row]:
        if self._rows is None:
            s3 = self.account.s3
            pages = paged(lambda marker: s3.list_keys(DATA_BUCKET, marker=marker), "next_marker")
            keys = [key for page in pages for key in page.keys]
            decoded = list(object_bundles(
                keys,
                lambda key: s3.head(DATA_BUCKET, key).metadata,
                partial(fetch_overflow, self.account),
            ))
            self.skipped_items = decoded.count(None)
            self._rows = [_row(bundle) for bundles in decoded if bundles for bundle in bundles]
        return self._rows

    def query_pages(self, store, expression, attribute_names, compiled=None, path=None):
        return matching(self._scanned(), compiled or parse_query(expression))

    def enumerate_items(self, store) -> Iterator[Row]:
        return iter(self._scanned())

    def get_item(self, store: str, item_name: str) -> dict[str, tuple[str, ...]]:
        ref = ObjectRef.from_item_name(item_name)
        try:
            metadata = self.account.s3.head(DATA_BUCKET, data_key(ref.name)).metadata
        except NoSuchKey:
            return {}
        hit = metadata_version(metadata) == ref.version
        return {key: (value,) for key, value in metadata.items()} if hit else {}
