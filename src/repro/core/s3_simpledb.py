"""Architecture A2 — S3 + SimpleDB (paper §4.2, Figure 2).

Data goes to S3; provenance goes to SimpleDB, one item per object
version (item name ``name_vNNNN``), which buys **efficient, indexed
query** — the property A1 lacks. Values above SimpleDB's 1 KB limit
spill to S3 objects referenced from the item.

Consistency is protected by the **MD5 ‖ nonce** record: alongside the
provenance the client stores ``md5 = H(md5(data) ‖ nonce)`` and stamps
the same nonce on the S3 object's metadata. A reader recomputes the
token from the data it got and compares; on mismatch (S3 returned an
older object than SimpleDB's provenance, or vice versa — possible under
eventual consistency) it re-issues the requests until the pair agrees.
The nonce matters because overwriting a file *with identical bytes*
still creates new provenance: without the nonce the MD5 alone could not
distinguish the versions (§4.2).

What A2 cannot give is **atomicity**: provenance is stored (step 3)
before data (step 4), so a crash in between leaves *orphan provenance*
describing an object S3 never received. Recovery is an inelegant scan
of the whole domain (:meth:`S3SimpleDB.recover_orphans`) — the
motivation for A3's write-ahead log.

Protocol on file close (§4.2):

1. read the data cache file and provenance cache file;
2. convert records to attribute-value pairs; spill >1 KB values to S3;
   add the MD5(data ‖ nonce) record;
3. store the item with PutAttributes (≤100 attributes per call, so
   possibly several calls);
4. PUT the object to S3 with the nonce as metadata.
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
    _InconsistentRead,
    backend_for_site,
    data_key,
    read_provenance_item,
)
from repro.core.coalesce import WriteCoalescer
from repro.errors import NoSuchKey, ReadCorrectnessViolation
from repro.passlib.records import (
    Attr,
    FlushEvent,
    ObjectRef,
    ProvenanceBundle,
    consistency_token,
)
from repro.passlib.serializer import (
    SdbItemPayload,
    bundle_from_item,
    parse_nonce,
    to_simpledb_items,
)

#: Consecutive missing versions that end :meth:`S3SimpleDB.version_history`'s
#: probe — one miss may be a replica that has not seen the newest item.
VERSION_PROBE_MAX_GAP = 2


class S3SimpleDB(ProvenanceCloudStore):
    """Data in S3, provenance in SimpleDB, MD5‖nonce consistency check."""

    name = "s3+simpledb"

    def __init__(
        self,
        account: AWSAccount,
        faults: FaultPlan = NO_FAULTS,
        retry: RetryPolicy | None = None,
        shards: int = 1,
        router=None,
        write_batch: int | None = None,
        client_id: str = "client-0",
    ):
        super().__init__(
            account, faults, retry, shards=shards, router=router, client_id=client_id
        )
        self.consistency_retries = 0
        self.orphans_removed = 0
        #: Group-commit buffer for step 3. At ``write_batch=1`` (default)
        #: every put is a batch of one, flushed before it returns as
        #: single-item requests — byte-identical to the paper's path.
        self.coalescer = WriteCoalescer(account, self.routing, write_batch)

    def _do_provision(self) -> None:
        self._ensure_bucket(DATA_BUCKET)
        self.routing.provision(self.account.provenance_backends())

    # -- store protocol (§4.2) ------------------------------------------------

    def _do_store(self, event: FlushEvent) -> None:
        faults = self.faults
        faults.check("a2.store.begin")
        # Steps 1-2: serialise; the file item carries md5+nonce records.
        payloads = to_simpledb_items(event)
        faults.check("a2.store.serialized")
        for payload in payloads:
            for overflow in payload.overflow:
                call_with_retries(
                    self.account.s3.put, DATA_BUCKET, overflow.key, overflow.value
                )
                faults.check("a2.store.overflow_put")
        # Step 3: provenance first...
        for payload in payloads:
            self._put_item(payload)
            faults.check("a2.store.after_put_attributes")
        # Group commit drains here, *before* the data PUT: coalescing
        # must not let step 4 overtake step 3, or the orphan window
        # would widen from "crash between two calls" to "crash with a
        # full buffer". One event's payloads (file item + transient
        # process items) still share a batch.
        self.coalescer.flush()
        faults.check("a2.store.before_data_put")
        # Step 4: ...then data. A crash between these two calls is the
        # atomicity violation of Table 1.
        call_with_retries(
            self.account.s3.put,
            DATA_BUCKET,
            data_key(event.subject.name),
            event.data,
            metadata={"nonce": event.nonce},
        )
        faults.check("a2.store.done")

    def _put_item(self, payload: SdbItemPayload) -> None:
        """PutAttributes in batches of ≤100 attributes (§4.2 step 3).

        Each item routes to its owning shard domain; batches never span
        shards because an item lives wholly on one shard. At width 1
        the coalescer lands the put before returning; with
        ``write_batch>1`` it is buffered and lands in the pre-data
        flush as part of a per-shard BatchPutAttributes/BatchWriteItem.
        """
        self.coalescer.put(payload.item_name, payload.attributes)

    # -- read protocol -------------------------------------------------------------

    def _do_read(self, name: str, version: int | None) -> ReadResult:
        if version is None:
            return self._read_current(name)
        return self._read_version(name, version)

    def _read_current(self, name: str) -> ReadResult:
        data = self.account.s3.get(DATA_BUCKET, data_key(name))
        nonce = data.metadata.get("nonce")
        if nonce is None:
            raise ReadCorrectnessViolation(f"{name}: S3 object carries no nonce")
        version = parse_nonce(nonce)
        if version is None:
            raise ReadCorrectnessViolation(f"{name}: malformed nonce {nonce!r}")
        subject = ObjectRef(name, version)
        attrs = self._get_provenance_attrs(name, subject.item_name)
        if not attrs:
            # The provenance replica hasn't seen the item (or it was
            # never stored — the orphan-data flavour of an atomicity
            # break).
            self.consistency_retries += 1
            raise _InconsistentRead(f"{subject.item_name}: no provenance visible")
        stored_token = (attrs.get(Attr.MD5) or ("",))[0]
        expected = consistency_token(data.blob.md5(), nonce)
        if stored_token != expected:
            self.consistency_retries += 1
            # The mismatched attrs may have come from (or been filled
            # into) the read cache; drop them so the retry re-reads the
            # backend instead of re-serving the same skewed entry.
            self._uncache(subject.item_name)
            raise _InconsistentRead(
                f"{subject.item_name}: md5 mismatch (data/provenance skew)"
            )
        bundle = self._decode_item(subject.item_name, attrs)
        return ReadResult(subject=subject, data=data.blob, bundle=bundle, consistent=True)

    def _read_version(self, name: str, version: int) -> ReadResult:
        subject = ObjectRef(name, version)
        attrs = self._get_provenance_attrs(name, subject.item_name)
        if not attrs:
            raise _InconsistentRead(f"{subject.item_name}: no provenance visible")
        bundle = self._decode_item(subject.item_name, attrs)
        # Data bytes survive only for the current version.
        data = None
        consistent = True
        try:
            current = self.account.s3.get(DATA_BUCKET, data_key(name))
        except NoSuchKey:
            current = None
        nonce = ObjectRef.nonce_of(version)
        if current is not None and current.metadata.get("nonce") == nonce:
            stored_token = (attrs.get(Attr.MD5) or ("",))[0]
            expected = consistency_token(current.blob.md5(), nonce)
            if stored_token != expected:
                self.consistency_retries += 1
                self._uncache(subject.item_name)
                raise _InconsistentRead(f"{subject.item_name}: md5 mismatch")
            data = current.blob
        return ReadResult(subject=subject, data=data, bundle=bundle, consistent=consistent)

    def _get_provenance_attrs(self, name: str, item_name: str):
        """Fenced, cached point read of one item from the shard serving
        ``name`` right now — the site comes from the shared routing
        handle: during a live migration reads stay on the source layout
        until the owning shard cuts over."""
        return read_provenance_item(
            self.account, self.routing.read_site(name), item_name
        )

    def _uncache(self, item_name: str) -> None:
        """Drop one item's read-cache entry (consistency-retry paths)."""
        if self.account.read_cache is not None:
            self.account.read_cache.invalidate(item_name)

    def _decode_item(self, item_name: str, attrs) -> ProvenanceBundle:
        return bundle_from_item(item_name, attrs, self._fetch_overflow)

    def version_history(self, name: str) -> list[ProvenanceBundle]:
        """Every stored version's provenance, oldest first.

        This is what the SimpleDB architectures add over A1: superseded
        versions keep their provenance items even though S3 holds only
        the current bytes, so the full revision chain of an object can
        be reconstructed. Versions are probed sequentially (they are
        allocated densely); :data:`VERSION_PROBE_MAX_GAP` consecutive
        misses end the probe.

        When the owning shard is DynamoDB-placed and declares a fresh
        composite ``(name, nonce)`` range index with an ``ALL``
        projection (spec ``"name/nonce+*"``), the whole chain is served
        by **one paged range Query** instead of one point read per
        version — same bundle list, strictly fewer metered read
        operations (the regression the unit suite pins). Every other
        configuration keeps the probe loop.
        """
        self.provision()
        indexed = self._indexed_version_history(name)
        if indexed is not None:
            return indexed
        history: list[ProvenanceBundle] = []
        version = 1
        misses = 0
        while misses < VERSION_PROBE_MAX_GAP:
            subject = ObjectRef(name, version)
            attrs = self._get_provenance_attrs(name, subject.item_name)
            if attrs:
                history.append(self._decode_item(subject.item_name, attrs))
                misses = 0
            else:
                misses += 1
            version += 1
        return history

    def _indexed_version_history(self, name: str) -> list[ProvenanceBundle] | None:
        """The revision chain off a composite ``(name, nonce)`` GSI, or
        None when the probe loop must serve it.

        The index partitions on the NAME record (the file's *basename*)
        and sorts by the zero-padded version nonce, so one hash
        partition's ascending slice is the version order; entries for
        other paths sharing the basename are filtered by item-name
        prefix. Only file items carry a nonce, so the composite index
        is sparse over process items by construction. Entries come
        straight off the index — this path never consults or fills the
        read-cache tier (its entries are whole items already paid for).
        """
        site = self.routing.read_site(name)
        if site.kind != "ddb":
            return None
        backend = backend_for_site(self.account, site)
        spec = backend.composite_index(site.domain, Attr.NAME, Attr.NONCE)
        if spec is None:
            return None
        basename = name.rsplit("/", 1)[-1]
        prefix = f"{name}_v"
        history: list[ProvenanceBundle] = []
        for item_name, attrs in backend.index_range_entries(
            site.domain,
            spec.name,
            basename,
            (">=", ObjectRef.nonce_of(1)),
        ):
            if not item_name.startswith(prefix):
                continue
            history.append(self._decode_item(item_name, attrs))
        return history

    # -- recovery (the §4.2 "inelegant solution") --------------------------------------

    def recover_orphans(self) -> list[str]:
        """Scan SimpleDB for provenance of data S3 never stored.

        An item is an orphan when it describes a *file* version newer
        than anything S3 holds for that name — the signature of a client
        that crashed between step 3 (provenance) and step 4 (data). The
        scan touches every item in every shard domain, which is exactly
        why the paper calls this recovery inelegant and motivates A3
        (and sharding only multiplies the scan's fan-out). During a
        live migration the scan covers the union of source stores and
        cut-over target stores, and each orphan is deleted from *every*
        site it may occupy — deleting only one copy would resurrect the
        other at cutover.
        """
        self.provision()
        removed = []
        seen: set[str] = set()
        for site in self.routing.query_sites():
            backend = backend_for_site(self.account, site)
            for item_name, attrs in backend.scan_pages(site.domain):
                if Attr.MD5 not in attrs:
                    continue  # transient-object item; no data expected
                if item_name in seen:
                    continue  # already examined via another site's copy
                seen.add(item_name)  # the verdict is per item, not per site
                subject = ObjectRef.from_item_name(item_name)
                if self._is_orphan(subject):
                    for delete_site in self.routing.delete_sites(item_name):
                        backend_for_site(self.account, delete_site).delete_item(
                            delete_site.domain, item_name
                        )
                    self._uncache(item_name)
                    removed.append(item_name)
        self.orphans_removed += len(removed)
        return removed

    def _is_orphan(self, subject: ObjectRef) -> bool:
        try:
            head = self.account.s3.head(DATA_BUCKET, data_key(subject.name))
        except NoSuchKey:
            return True
        version = parse_nonce(head.metadata.get("nonce", "v0000"))
        # A malformed nonce is corruption, not proof the data is older
        # than the item: never garbage-collect provenance on its say-so.
        return version is not None and version < subject.version

    # -- diagram (Figure 2) ---------------------------------------------------------------

    def components(self) -> list[Component]:
        return [
            Component("application", "issues read/write/close system calls"),
            Component("pass", "PASS capture layer + local cache"),
            Component("s3", "Amazon S3: data objects (+ spilled values)"),
            Component("simpledb", "Amazon SimpleDB: provenance items"),
        ]

    def flows(self) -> list[Flow]:
        return [
            Flow("application", "pass", "system calls"),
            Flow("pass", "simpledb", "PutAttributes(provenance + md5//nonce)"),
            Flow("pass", "s3", "PUT(data, nonce) on close"),
            Flow("simpledb", "pass", "Query / QueryWithAttributes"),
            Flow("s3", "pass", "GET data"),
        ]
