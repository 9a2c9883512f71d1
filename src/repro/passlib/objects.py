"""PASS objects: pnode-identified files, processes, and pipes.

PASS assigns every object a *pnode* (a stable numeric identity) and
tracks per-version provenance. Persistent objects (files) are related to
one another through transient objects (processes, pipes), so transient
objects carry provenance too (§2.4).

A :class:`PassObject` accumulates records for its *current* version;
:mod:`repro.passlib.versioning` decides when a new version must be cut
to preserve causality, and :mod:`repro.passlib.capture` snapshots the
accumulated records into immutable bundles at flush time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.passlib.records import Attr, ObjectRef, ProvenanceBundle, ProvenanceRecord


class Kind:
    """Object kinds, matching the ``type`` record values the paper shows."""

    FILE = "file"
    PROCESS = "process"
    PIPE = "pipe"

    ALL = (FILE, PROCESS, PIPE)
    TRANSIENT = frozenset({PROCESS, PIPE})


_pnode_counter = itertools.count(1)


def _next_pnode() -> int:
    return next(_pnode_counter)


@dataclass
class PassObject:
    """One PASS object and its in-flight (not yet flushed) provenance."""

    name: str
    kind: str
    pnode: int = field(default_factory=_next_pnode)
    version: int = 1
    #: The current version has been observed (read, or depended upon by a
    #: flushed descendant); further writes must cut a new version.
    frozen: bool = False
    #: Records accumulated for the current version.
    pending: list[ProvenanceRecord] = field(default_factory=list)
    #: Finalised record lists of superseded versions, keyed by version.
    history: dict[int, tuple[ProvenanceRecord, ...]] = field(default_factory=dict)
    #: Versions whose bundles were already handed to a flush event.
    flushed_versions: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.kind not in Kind.ALL:
            raise ValueError(f"unknown object kind {self.kind!r}")

    @property
    def ref(self) -> ObjectRef:
        """Reference to the current version."""
        return ObjectRef(self.name, self.version)

    # -- record accumulation ---------------------------------------------

    def add(self, attribute: str, value: "str | ObjectRef") -> ProvenanceRecord:
        """Attach a record to the current version."""
        record = ProvenanceRecord(self.ref, attribute, value)
        self.pending.append(record)
        return record

    def add_input(self, ancestor: ObjectRef) -> ProvenanceRecord:
        return self.add(Attr.INPUT, ancestor)

    def has_input(self, ancestor: ObjectRef) -> bool:
        """True if the current version already depends on ``ancestor``."""
        return any(
            record.attribute == Attr.INPUT and record.value == ancestor
            for record in self.pending
        )

    # -- versioning ---------------------------------------------------------

    def freeze(self) -> None:
        """Mark the current version as observed (see versioning module)."""
        self.frozen = True

    def bump_version(self) -> ObjectRef:
        """Cut a new version linked to the previous one.

        The superseded version's records are finalised into ``history``
        (they can still be flushed later); the new version records
        ``prev_version -> old ref``, the ancestry edge PASS uses to chain
        versions of the same object.
        """
        previous = self.ref
        self.history[self.version] = tuple(self.pending)
        self.version += 1
        self.frozen = False
        self.pending = []
        self.add(Attr.VERSION_OF, previous)
        return self.ref

    # -- flushing -------------------------------------------------------------

    def snapshot_bundle(self, version: int | None = None) -> ProvenanceBundle:
        """Freeze a version's records into an immutable bundle.

        Defaults to the current version; superseded versions come from
        ``history`` (needed when a flush ships a transient ancestor whose
        object has since moved on to a newer version).
        """
        if version is None or version == self.version:
            subject, records = self.ref, tuple(self.pending)
        else:
            try:
                records = self.history[version]
            except KeyError:
                raise ValueError(
                    f"{self.name!r} has no finalised version {version}"
                ) from None
            subject = ObjectRef(self.name, version)
        return ProvenanceBundle(subject=subject, kind=self.kind, records=records)

    def mark_flushed(self) -> None:
        self.flushed_versions.add(self.version)

    @property
    def current_version_flushed(self) -> bool:
        return self.version in self.flushed_versions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PassObject({self.name!r}, {self.kind}, pnode={self.pnode}, "
            f"v{self.version}{'*' if self.frozen else ''}, "
            f"{len(self.pending)} pending)"
        )
