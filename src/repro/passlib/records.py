"""Provenance records — the interchange format of the whole library.

A PASS provenance record is an attribute of one **object version**: the
paper's example is version 2 of object ``foo`` carrying records
``(input, bar:2)`` and ``(type, file)`` (§4.2). We model that as
:class:`ProvenanceRecord` rows whose subject is an :class:`ObjectRef`
and whose value is either a plain string or another ``ObjectRef`` (a
cross-reference, i.e. a provenance-graph edge).

An ``ObjectRef`` is an immutable ``(name, version)`` tuple, not a
dataclass: it is the element of every query's result set, frontier and
memo, so its ordering, hashing and equality are the tuple's own (C)
methods. It therefore equals the bare tuple of its fields —
``ObjectRef("a", 1) == ("a", 1)`` — so code holding refs beside other
tuples dispatches on ``ObjectRef``, not on ``tuple``. Records and
bundles stay dataclasses.

Encodings follow the paper's conventions:

* cross references render as ``name:vNNNN`` (the paper prints ``bar:2``;
  we zero-pad so lexicographic order in SimpleDB matches version order);
* a version's SimpleDB item name is ``name_vNNNN`` (the paper's
  ``foo_2``);
* versions are ``int`` and start at 1 for the first flushed state of an
  object; decoding accepts ASCII digits only, so every ref has exactly
  one spelling on the wire.

:class:`ProvenanceBundle` groups the records describing one object
version; :class:`FlushEvent` pairs a bundle with the object's data (for
files) and lists the transient-ancestor bundles that must ride along —
the unit of work the three architectures' ``store`` protocols consume.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.blob import Blob

#: Width of the zero-padded version field in encoded references.
VERSION_DIGITS = 4


class Attr:
    """Well-known provenance attribute names (PASS record types)."""

    INPUT = "input"          # value: ObjectRef — the ancestry edge
    TYPE = "type"            # value: 'file' | 'process' | 'pipe'
    NAME = "name"            # human name (program or file basename)
    ARGV = "argv"            # process arguments (may exceed 1 KB)
    ENV = "env"              # process environment (regularly exceeds 1 KB)
    PID = "pid"
    VERSION_OF = "prev_version"  # value: ObjectRef to the previous version
    MD5 = "md5"              # consistency record: H(data-md5 || nonce)
    NONCE = "nonce"
    CREATED = "created"      # simulated timestamp of version creation
    WORKLOAD = "workload"    # which generator produced the object

    #: Attributes whose values are cross references.
    REF_VALUED = frozenset({INPUT, VERSION_OF})


class _RefFields(NamedTuple):
    name: str
    version: int


class ObjectRef(_RefFields):
    """A (name, version) reference to one object version.

    An immutable ``(name, version)`` tuple: every query result is a set
    of refs, sorted before it is reported, so ordering (lexicographic by
    name, then version), hashing (``hash((name, version))``) and
    equality run in C rather than in generated Python methods. The
    price is one equality rule: a ref equals the bare tuple of its
    fields, ``ObjectRef("a", 1) == ("a", 1)``. Code that keeps refs
    beside other tuples tells them apart with ``isinstance(x,
    ObjectRef)``, never ``isinstance(x, tuple)``.

    A version is an ``int`` (not a ``bool``, not a ``float``) and at
    least 1; anything else raises ``ValueError`` at construction.
    """

    __slots__ = ()

    def __new__(cls, name: str, version: int) -> "ObjectRef":
        if type(version) is not int:
            raise ValueError(f"a version is an int, got {version!r} for {name!r}")
        if version < 1:
            raise ValueError(f"versions start at 1, got {version} for {name!r}")
        return tuple.__new__(cls, (name, version))  # one Python call fewer than super()

    @classmethod
    def _make(cls, fields) -> "ObjectRef":
        """The namedtuple builder (``_replace`` uses it), checked too."""
        return cls(*fields)

    @staticmethod
    def nonce_of(version: int) -> str:
        """The zero-padded version nonce ``vNNNN`` — the one spelling
        every encoding below, the S3 ``nonce`` metadata and the
        version-range predicates share (lexicographic = version order)."""
        return f"v{version:0{VERSION_DIGITS}d}"

    def encode(self) -> str:
        """Wire encoding used in record values: ``name:vNNNN``."""
        return f"{self.name}:{self.nonce_of(self.version)}"

    @property
    def path(self) -> str:
        """The object's path (PASS file name) — the shard-routing key.

        All versions of one object share a path, so a consistent-hash
        router keeps an object's whole version history on one shard.
        """
        return self.name

    @property
    def item_name(self) -> str:
        """SimpleDB item name for this version: ``name_vNNNN``."""
        return f"{self.name}_{self.nonce_of(self.version)}"

    @classmethod
    def decode(cls, text: str) -> "ObjectRef":
        """Inverse of :meth:`encode`.

        >>> ObjectRef.decode("bar:v0002")
        ObjectRef(name='bar', version=2)
        """
        return cls._parse(text, ":v", "an encoded ObjectRef")

    @classmethod
    def from_item_name(cls, item_name: str) -> "ObjectRef":
        """Inverse of :attr:`item_name`.

        >>> ObjectRef.from_item_name("foo_v0002")
        ObjectRef(name='foo', version=2)
        """
        return cls._parse(item_name, "_v", "an item name")

    @classmethod
    def _parse(cls, text: str, separator: str, what: str) -> "ObjectRef":
        """``name<separator>digits`` -> ref. The digits are ASCII only:
        ``str.isdigit`` alone also takes ``٣`` or ``²``, which would give
        one ref a second spelling (or crash ``int``)."""
        name, _, version_text = text.rpartition(separator)
        if not name or not (version_text.isascii() and version_text.isdigit()):
            raise ValueError(f"not {what}: {text!r}")
        return cls(name, int(version_text))


@dataclass(frozen=True)
class ProvenanceRecord:
    """One (subject, attribute, value) provenance row."""

    subject: ObjectRef
    attribute: str
    value: "str | ObjectRef"

    @property
    def is_reference(self) -> bool:
        return isinstance(self.value, ObjectRef)

    def encoded_value(self) -> str:
        """The value as stored on the wire (references use ``encode``)."""
        if isinstance(self.value, ObjectRef):
            return self.value.encode()
        return self.value

    @property
    def value_size(self) -> int:
        """Byte size of the encoded value (what the 1 KB spill rule sees)."""
        return len(self.encoded_value().encode("utf-8"))

    def __str__(self) -> str:
        return f"{self.subject.encode()} {self.attribute}={self.encoded_value()}"


@dataclass(frozen=True)
class ProvenanceBundle:
    """All provenance records describing one object version."""

    subject: ObjectRef
    kind: str  # 'file' | 'process' | 'pipe'
    records: tuple[ProvenanceRecord, ...]

    def __post_init__(self) -> None:
        for record in self.records:
            if record.subject != self.subject:
                raise ValueError(
                    f"record {record} does not describe {self.subject.encode()}"
                )

    def inputs(self) -> list[ObjectRef]:
        """Cross references this version depends on (ancestry edges)."""
        return [
            record.value
            for record in self.records
            if record.attribute in Attr.REF_VALUED and isinstance(record.value, ObjectRef)
        ]

    def attribute_values(self, attribute: str) -> list[str]:
        return [
            record.encoded_value()
            for record in self.records
            if record.attribute == attribute
        ]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ProvenanceRecord]:
        return iter(self.records)


@dataclass(frozen=True)
class FlushEvent:
    """The unit the architectures store: one file close.

    ``data`` is the file content at close time. ``ancestors`` carries the
    provenance bundles of transient objects (processes, pipes) that this
    file's provenance references and that have not been persisted by an
    earlier flush — PASS ships ancestors first to maintain (eventual)
    causal ordering (§3, property 2).
    """

    bundle: ProvenanceBundle
    data: Blob
    ancestors: tuple[ProvenanceBundle, ...] = ()

    @property
    def subject(self) -> ObjectRef:
        return self.bundle.subject

    @property
    def nonce(self) -> str:
        """The consistency nonce — 'typically the file version' (§4.2)."""
        return ObjectRef.nonce_of(self.subject.version)

    def all_bundles(self) -> tuple[ProvenanceBundle, ...]:
        """Ancestor bundles first, then the file's own bundle."""
        return (*self.ancestors, self.bundle)


def consistency_token(data_md5: str, nonce: str) -> str:
    """The MD5(data ‖ nonce) value stored with provenance (§4.2).

    Computed from the data digest rather than the raw bytes so that
    paper-scale synthetic blobs never need materialising; collision
    behaviour is equivalent for the consistency check's purposes
    (it changes iff the data digest or the nonce changes).
    """
    return hashlib.md5(f"{data_md5}|{nonce}".encode("utf-8")).hexdigest()
