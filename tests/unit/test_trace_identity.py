"""Generated traces are pinned across commits, byte for byte.

Each case generates one of the perf harness's input shapes (the bulk
load, the deep chain, the write burst) at a small fixed seed, the way
``benchmarks/perf/harness.materialise`` seeds it, serialises it with its
delays, and compares the SHA-256 of that text with a literal recorded
before the capture layer's bookkeeping was made incremental. A change
to capture, versioning, the generators or the event codec that moves
any record, RNG draw or delay changes the hash. The text is laid out as
the retired JSONL trace file was (a header line, then one event per
line with its ``dt``), so the recorded literals still apply.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.workloads import (
    CombinedWorkload,
    DeepLineageWorkload,
    ZipfianFleetWorkload,
)
from repro.workloads.trace import encode_event

SEED = 3

#: name -> (workload class, its arguments, scale, SHA-256 of the dumped
#: trace at ``SEED``).
CASES = {
    "combined-x0.1": (
        CombinedWorkload,
        {},
        0.1,
        "17726098def6e189c0c00b3a2608ac51053b438e80b1ac57505a025e92d77537",
    ),
    "deep-120": (
        DeepLineageWorkload,
        {"chain_length": 120},
        1.0,
        "a3f8750230defa00fac70219abc12d4a168ee90d5415b399063212c5b3a242e6",
    ),
    "zipf-burst-60": (
        ZipfianFleetWorkload,
        {"n_ops": 60},
        1.0,
        "79f386031fe92c7483607a5a2944ed118f4a9c91985f68f7982e58f49f27b77c",
    ),
}


def trace_digest(workload, scale: float, seed: int) -> str:
    rng = random.Random(f"{workload.name}:{seed}")
    timed = list(workload.iter_timed_events(rng, scale))
    header = {"events": len(timed), "format": "repro-prov-trace", "version": 1,
              "workload": workload.name}
    lines = [header] + [{**encode_event(event), "dt": delay} for delay, event in timed]
    text = "".join(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
                   for line in lines)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_trace_matches_its_pinned_hash(case):
    cls, kwargs, scale, expected = CASES[case]
    assert trace_digest(cls(**kwargs), scale, SEED) == expected
