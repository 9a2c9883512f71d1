"""A1 stores the paper's whole dataset: stream ``paper_dataset()`` (33×)
through ``Simulation("s3")``, then check that ``linux/vmlinux`` — whose
``ld`` bundle is too wide for S3's 2 KB metadata limit — reads back
exactly as it was stored. Prints the seconds it took and the process's
peak RSS (``ru_maxrss``, KiB on Linux).

    PYTHONPATH=src python benchmarks/check_a1_paper_dataset.py

Exit status 1 when the provenance read back differs from the trace's.
"""

import resource
import sys
import time

from repro.sim import Simulation
from repro.workloads.combined import PAPER_SCALE, paper_dataset

PROBE = "linux/vmlinux"


def records_of(bundle) -> list[str]:
    return sorted(str(record) for record in bundle.records)


def main() -> int:
    last = {}

    def remember(events):
        for event in events:
            if event.subject.name == PROBE:
                last[PROBE] = event
            yield event

    started = time.perf_counter()
    sim = Simulation("s3")
    stored = sim.store_events(remember(paper_dataset()), collect=False)
    expected = last[PROBE]
    head = sim.store.head_provenance(PROBE)
    own, ancestors = sim.store.read_with_ancestors(PROBE)
    ok = (
        head.subject == expected.subject
        and records_of(head.bundle) == records_of(own) == records_of(expected.bundle)
        and [records_of(a) for a in ancestors]
        == [records_of(a) for a in expected.ancestors]
    )
    widest = max(len(bundle) for bundle in expected.all_bundles())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{stored} events at {PAPER_SCALE:g}x in {time.perf_counter() - started:.1f} s, "
        f"peak RSS {peak_mb:.0f} MB; "
        f"{PROBE} {expected.subject.version} ({widest}-record bundle) "
        f"{'round-trips' if ok else 'DIFFERS'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
