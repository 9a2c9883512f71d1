"""Workload generators reproducing the paper's evaluation dataset (§5).

The paper generated provenance on a PASS system for three workloads —
a **Linux compile**, a **Blast** bioinformatics run, and the **First
Provenance Challenge** fMRI workflow — and used the combined trace as
the dataset behind Tables 2 and 3. The original traces are unavailable,
so these generators synthesise PASS traces with the same *structure*
(build DAGs, pipeline stages, version churn, heavyweight process
environments) and are calibrated so the combined paper-scale trace lands
near the paper's headline statistics: ≈31,180 stored objects, ≈1.27 GB
of raw data, provenance ≈9–10% of the data in S3 format, and ≈0.8
records >1 KB per object.

Beyond the paper's uniform batch jobs, the fleet-traffic matrix adds
skewed and bursty shapes — :class:`ZipfianFleetWorkload` (multi-tenant
hot keys), :class:`DiurnalBurstWorkload` (day-shaped arrival rates),
:class:`DeepLineageWorkload` (10k-step Q3 chains). A generated stream
is recorded and replayed as part of a run file (:mod:`repro.schedule`).
"""

from repro.workloads.base import TraceStats, Workload, WorkloadResult, collect_stats
from repro.workloads.blast import BlastWorkload
from repro.workloads.combined import CombinedWorkload, PAPER_SCALE, paper_dataset
from repro.workloads.deep import DeepLineageWorkload
from repro.workloads.fleetgen import DiurnalBurstWorkload, ZipfianFleetWorkload
from repro.workloads.linux_compile import LinuxCompileWorkload
from repro.workloads.provchallenge import ProvenanceChallengeWorkload

__all__ = [
    "Workload",
    "WorkloadResult",
    "TraceStats",
    "collect_stats",
    "LinuxCompileWorkload",
    "BlastWorkload",
    "ProvenanceChallengeWorkload",
    "CombinedWorkload",
    "PAPER_SCALE",
    "paper_dataset",
    "ZipfianFleetWorkload",
    "DiurnalBurstWorkload",
    "DeepLineageWorkload",
]
