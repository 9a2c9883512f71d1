"""Workload scaffolding: the generator interface and trace statistics.

A :class:`Workload` turns a seeded RNG and a scale factor into a stream
of PASS flush events. Everything downstream — the architectures, the
query engines, and the §5 analysis — consumes those events, so the
analytic tables and the live runs are computed from identical inputs.

:class:`TraceStats` accumulates exactly the quantities the paper's §5
cost model needs, *streaming* (no event retention), so paper-scale
traces can be measured without holding 31k events in memory. A
:class:`~repro.sim.Simulation` counts only what it stored
(:meth:`TraceStats.add_event`); pricing each event in the A1-metadata
and WAL formats is :func:`collect_stats`'s alone, so a run's event loop
encodes each event in no format but its store's.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.blob import SyntheticBlob
from repro.core.wal import build_wal_bundle
from repro.passlib.capture import PassSystem
from repro.passlib.records import FlushEvent, ObjectRef
from repro.passlib.serializer import to_s3_metadata, to_simpledb_items
from repro.units import (
    KB,
    SDB_BILLABLE_OVERHEAD_PER_ELEMENT,
    SDB_MAX_ATTRS_PER_CALL,
)


class Workload:
    """Base class for trace generators."""

    #: Short name recorded in every generated object's provenance.
    name: str = "workload"

    @property
    def instance_salt(self) -> str:
        """Deterministic identity that disambiguates RNG streams.

        Two workload *classes* can share a ``name`` (a replay of a blast
        trace, a subclassed variant); seeding by name alone would hand
        them the same stream. The class qualname is stable across runs
        (unlike ``id()``, which PL003 forbids), so same-named instances
        of different classes always derive distinct streams while two
        runs of the same program stay byte-identical.
        """
        return type(self).__qualname__

    def seed_key(self, seed: int) -> str:
        """The string that seeds this instance's top-level RNG stream."""
        return f"{self.name}#{self.instance_salt}:{seed}"

    def iter_events(self, rng: random.Random, scale: float = 1.0) -> Iterator[FlushEvent]:
        """Yield flush events in causal order. Subclasses implement."""
        raise NotImplementedError

    def iter_timed_events(
        self, rng: random.Random, scale: float = 1.0
    ) -> Iterator[tuple[float, FlushEvent]]:
        """Yield ``(inter_arrival_seconds, event)`` pairs.

        The default stream arrives back-to-back (delay 0.0 — the
        paper's batch model). Bursty workloads override this with a
        rate envelope; a simulation records each positive delay as a
        ``cloud advance`` step of its schedule.
        """
        for event in self.iter_events(rng, scale):
            yield 0.0, event

    def sample_read_refs(
        self, rng: random.Random, refs: Sequence[ObjectRef], n: int
    ) -> list[ObjectRef]:
        """Draw ``n`` point-read targets from ``refs`` (the stored files).

        The base distribution is uniform — the §5 workloads have no
        preferential read traffic. Skewed workloads override this so
        read-side benchmarks (cache hit rates) see the same hot keys the
        write side produced.
        """
        pool = sorted(refs)
        if not pool:
            return []
        return [pool[rng.randrange(len(pool))] for _ in range(n)]

    def generate(self, seed: int = 0, scale: float = 1.0) -> "WorkloadResult":
        """Materialise the trace (convenient for tests and examples)."""
        rng = random.Random(self.seed_key(seed))
        events = list(self.iter_events(rng, scale))
        return WorkloadResult(name=self.name, events=events)


@dataclass
class WorkloadResult:
    """A materialised trace."""

    name: str
    events: list[FlushEvent]

    @property
    def raw_bytes(self) -> int:
        return sum(event.data.size for event in self.events)

    def stats(self) -> "TraceStats":
        return collect_stats(self.events)


@dataclass
class TraceStats:
    """The §5 cost-model inputs, accumulated streaming.

    Field names follow the paper's formulas:

    * ``n_objects`` — S3 data PUTs (one per file close) = "Raw ops";
    * ``raw_bytes`` — file data stored = "Raw data";
    * ``s3_prov_bytes`` — provenance in the S3 metadata format (metadata
      plus spilled values), the A1 storage figure;
    * ``n_records_gt_1kb`` — records spilled to their own S3 objects,
      the ``N_provrecs>1KB`` term;
    * ``n_sdb_items`` — SimpleDB items (one per object version,
      transient objects included), the ``N_SimpleDBitems`` term;
    * ``sdb_prov_bytes`` — provenance in the SimpleDB item format;
    * ``n_put_attribute_calls`` — PutAttributes calls after 100-attribute
      batching;
    * ``n_wal_messages`` — WAL records (≈ provenance / 8 KB plus the
      per-transaction begin/data/commit envelope).

    :meth:`add_event` fills every field but the analytic sizing
    (``s3_prov_bytes``, ``n_wal_messages``, ``wal_prov_bytes``), which
    :meth:`add_format_sizes` adds; :func:`collect_stats` runs both.
    ``Simulation.stats`` runs only the first, so those three read 0
    there, and on a store without a provenance domain (A1) it leaves
    out the SimpleDB item figures (``n_sdb_items`` through
    ``n_put_attribute_calls``), which read 0 too: a run counts only
    what its store wrote, and its real A1 and WAL traffic is on its
    meter.
    """

    n_objects: int = 0
    raw_bytes: int = 0
    n_records: int = 0
    n_records_gt_1kb: int = 0
    s3_prov_bytes: int = 0
    n_sdb_items: int = 0
    sdb_prov_bytes: int = 0
    #: Bytes/spills attributable to *file* items only (what Q1 retrieves).
    sdb_file_bytes: int = 0
    n_file_records_gt_1kb: int = 0
    n_put_attribute_calls: int = 0
    n_wal_messages: int = 0
    wal_prov_bytes: int = 0
    n_process_bundles: int = 0
    per_workload_objects: dict[str, int] = field(default_factory=dict)

    def add_event(self, event: FlushEvent, with_items: bool = True) -> None:
        """Count a stored event: the trace figures and, ``with_items``,
        the SimpleDB item figures (the item encoding an A2/A3 store has
        memoised)."""
        self.n_objects += 1
        self.raw_bytes += event.data.size

        workload_values = event.bundle.attribute_values("workload")
        if workload_values:
            tag = workload_values[0]
            self.per_workload_objects[tag] = self.per_workload_objects.get(tag, 0) + 1
        for bundle in event.all_bundles():
            self.n_records += len(bundle)
            if bundle.kind != "file":
                self.n_process_bundles += 1
        if not with_items:
            return

        items = to_simpledb_items(event)
        self.n_sdb_items += len(items)
        file_item_name = event.subject.item_name
        OVH = SDB_BILLABLE_OVERHEAD_PER_ELEMENT
        for item in items:
            # Arch-2 provenance storage = SimpleDB *billable* bytes (raw
            # plus the documented 45-byte indexing overhead per item
            # name, attribute name, and value) + the spilled >1 KB
            # values that live as S3 objects (§5).
            item_bytes = (
                len(item.item_name.encode()) + OVH
                + sum(
                    len(n.encode()) + len(v.encode()) + 2 * OVH
                    for n, v in item.attributes
                )
                + sum(o.size for o in item.overflow)
            )
            self.sdb_prov_bytes += item_bytes
            self.n_records_gt_1kb += len(item.overflow)
            if item.item_name == file_item_name:
                self.sdb_file_bytes += item_bytes
                self.n_file_records_gt_1kb += len(item.overflow)
            self.n_put_attribute_calls += max(
                1, -(-len(item.attributes) // SDB_MAX_ATTRS_PER_CALL)
            )

    def add_format_sizes(self, event: FlushEvent) -> None:
        """Price ``event`` in the A1 S3-metadata and A3 WAL formats (the
        analytic model's figures; each call encodes the event twice)."""
        s3_payload = to_s3_metadata(event)
        self.s3_prov_bytes += s3_payload.metadata_size + sum(o.size for o in s3_payload.overflow)
        wal = build_wal_bundle(event, txn_id="stats")
        self.n_wal_messages += len(wal.messages)
        self.wal_prov_bytes += sum(len(m) for m in wal.messages)  # wire_dumps is ASCII


def collect_stats(events: Iterable[FlushEvent]) -> TraceStats:
    """Accumulate §5 statistics over a stream of events."""
    stats = TraceStats()
    for event in events:
        stats.add_event(event)
        stats.add_format_sizes(event)
    return stats


# ---------------------------------------------------------------------------
# Generation helpers shared by the concrete workloads
# ---------------------------------------------------------------------------

_ENV_BASE = (
    "PATH=/usr/local/bin:/usr/bin:/bin:/usr/sbin:/sbin",
    "HOME=/home/scientist",
    "SHELL=/bin/bash",
    "LANG=en_US.UTF-8",
    "TERM=xterm",
    "USER=scientist",
    "LOGNAME=scientist",
    "HOSTNAME=compute-0-1.cluster.example.edu",
)


#: Byte -> environment character: ``"abcdefghijklmnop/:._-"`` repeated
#: over all 256 byte values (256 = 12 * 21 + 4, so the first four
#: characters come up 13/256 of the time, the rest 12/256).
_ENV_CHARS = bytes(b"abcdefghijklmnop/:._-"[i % 21] for i in range(256))


def synth_env(rng: random.Random, target_bytes: int) -> str:
    """A realistic environment string of roughly ``target_bytes`` bytes.

    PASS records the full environment of each process; the paper notes
    process provenance "regularly" exceeds the 2 KB S3 metadata limit,
    so workloads draw environment sizes spanning the 1 KB spill
    threshold.

    Contract: every value character consumes exactly two 32-bit
    Mersenne-Twister words of ``rng`` — what ``rng.choices`` spends per
    character (one ``random()``) — drawn as one ``getrandbits(64 * n)``
    per value and mapped through :data:`_ENV_CHARS` in C. So ``rng``
    leaves this call in the same state ``rng.choices`` would, and every
    later draw (sizes, seeds, nonces) is unchanged. Only the characters
    differ from a ``choices`` draw, and the map is slightly biased (the
    low byte of each 64-bit chunk, modulo 21). Nothing metered reads the
    characters: all 21 are one-byte UTF-8 that JSON never escapes, so
    byte sizes depend on the length alone.
    """
    parts = list(_ENV_BASE)
    size = sum(len(p) + 1 for p in parts)
    counter = 0
    while size < target_bytes:
        name = f"LD_PRELOAD_{counter}" if counter % 7 == 0 else f"APP_VAR_{counter}"
        n = rng.randint(24, 96)
        value = rng.getrandbits(64 * n).to_bytes(8 * n, "little")[::8].translate(_ENV_CHARS)
        entry = f"{name}={value.decode('ascii')}"
        parts.append(entry)
        size += len(entry) + 1
        counter += 1
    return "\n".join(parts)


def lognormal_size(rng: random.Random, median: int, sigma: float = 0.7,
                   floor: int = 64, ceiling: int = 64 * 1024 * 1024) -> int:
    """A file size drawn from a lognormal around ``median`` bytes."""
    value = int(rng.lognormvariate(math.log(median), sigma))
    return max(floor, min(ceiling, value))


def content(rng: random.Random, size: int, tag: str) -> SyntheticBlob:
    """Fresh synthetic content of ``size`` bytes (unique seed per call)."""
    return SyntheticBlob(seed=f"{tag}:{rng.random():.17f}", size_bytes=size)


def env_size(rng: random.Random, big_fraction: float = 0.55) -> int:
    """Environment byte size: often below 1 KB, frequently well above.

    Calibrated so the combined dataset spills roughly 0.8 records per
    stored object (the paper's 24,952 oversized records over 31,180
    objects) — PASS captures the full environment, and scientific
    pipelines carry fat module/scheduler environments.
    """
    if rng.random() < big_fraction:
        return rng.randint(int(1.1 * KB), 6 * KB)
    return rng.randint(500, 1000)


def make_system(name: str) -> PassSystem:
    return PassSystem(workload=name)
