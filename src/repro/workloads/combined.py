"""The combined evaluation dataset (paper §5).

"We use the combined provenance generated from all three benchmarks as
one single dataset for the rest of the discussion." This module does
the same: :class:`CombinedWorkload` concatenates the Linux-compile,
Blast, and Provenance-Challenge traces (file namespaces are disjoint, so
the union is well-formed), and :data:`PAPER_SCALE` is the calibrated
scale factor at which the combined trace approximates the paper's
headline statistics:

=====================  ============  =========================
quantity               paper         calibration target
=====================  ============  =========================
stored objects         31,180        ≈31k
raw data               1.27 GB       ≈1.3 GB
provenance (S3 fmt)    121.8 MB      ≈9–10% of raw
records >1 KB          24,952        ≈0.8 / object
=====================  ============  =========================

The measured values for the calibrated trace are recorded in
EXPERIMENTS.md; benchmarks at paper scale use the streaming API
(:meth:`CombinedWorkload.iter_events`) plus
:func:`repro.workloads.base.collect_stats` so the full trace never
resides in memory.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.passlib.records import FlushEvent
from repro.workloads import base
from repro.workloads.blast import BlastWorkload
from repro.workloads.linux_compile import LinuxCompileWorkload
from repro.workloads.provchallenge import ProvenanceChallengeWorkload

#: Scale factor at which the combined trace matches the paper's dataset
#: size (calibrated by benchmarks/bench_table2_storage.py; see
#: EXPERIMENTS.md for the measured statistics at this scale). At 33.0
#: the combined trace measures ≈31,150 objects and ≈1.28 GB raw data
#: against the paper's 31,180 objects and 1.27 GB.
PAPER_SCALE = 33.0


class CombinedWorkload(base.Workload):
    """Linux compile + Blast + Provenance Challenge, one dataset."""

    name = "combined"

    def __init__(
        self,
        linux: LinuxCompileWorkload | None = None,
        blast: BlastWorkload | None = None,
        challenge: ProvenanceChallengeWorkload | None = None,
    ):
        self.parts: tuple[base.Workload, ...] = (
            linux or LinuxCompileWorkload(),
            blast or BlastWorkload(),
            challenge or ProvenanceChallengeWorkload(),
        )

    def iter_events(self, rng: random.Random, scale: float = 1.0) -> Iterator[FlushEvent]:
        seen: dict[str, int] = {}
        for part in self.parts:
            occurrence = seen.get(part.name, 0)
            seen[part.name] = occurrence + 1
            # First occurrence of a name keeps the historical salt, so
            # the calibrated paper-scale trace (and every committed
            # baseline) stays byte-identical. Repeats of a name are
            # disambiguated by the part's deterministic instance salt
            # plus its occurrence index — without this, two same-named
            # parts whose generators ignore some draws could collapse
            # onto correlated streams.
            if occurrence == 0:
                salt = part.name
            else:
                salt = f"{part.name}#{part.instance_salt}#{occurrence}"
            part_rng = random.Random(f"{salt}:{rng.random():.17f}")
            yield from part.iter_events(part_rng, scale)


def paper_dataset(seed: int = 0, scale: float = PAPER_SCALE) -> Iterator[FlushEvent]:
    """Stream the calibrated paper-scale dataset."""
    workload = CombinedWorkload()
    rng = random.Random(f"paper:{seed}")
    return workload.iter_events(rng, scale)
