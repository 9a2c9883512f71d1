#!/usr/bin/env python3
"""The paper's future work, running: a cloud that *uses* provenance.

"AWS is currently agnostic of the metadata. The provenance stored with
the data presents AWS cloud with many hints about the application
storing the data. In the future, we plan to investigate how a cloud
might take advantage of this provenance." (§7)

This example stores the First Provenance Challenge workflow through the
S3+SimpleDB architecture, then plays cloud provider: it hydrates a
:class:`ProvenanceAdvisor` from nothing but the provenance the cloud
holds (``stored_bundles()``, which reads it on any architecture, shard
layout or backend) and derives

* prefetch hints (fetch ``scan.img`` → stage ``scan.hdr``),
* the workflow's stages (which program reads which program's output),
* co-placement groups (whole workflows as units),
* eviction ordering (keep what science is built on).

    python examples/provenance_aware_cloud.py
"""

import random

from repro.advisor import ProvenanceAdvisor
from repro.passlib.records import ObjectRef
from repro.sim import Simulation
from repro.workloads import ProvenanceChallengeWorkload


def main() -> None:
    workload = ProvenanceChallengeWorkload(n_workflows=3)
    events = list(workload.iter_events(random.Random("cloud"), 1.0))

    sim = Simulation(architecture="s3+simpledb", seed=99)
    sim.store_events(events, collect=False)
    print(f"stored {len(events)} objects through s3+simpledb")

    # The provider's view: only the provenance the cloud holds.
    advisor = ProvenanceAdvisor.from_bundles(sim.store.stored_bundles().values())
    print(f"advisor hydrated from {len(advisor.model)} stored bundles\n")

    img = ObjectRef("fmri/s0000/resliced1.img", 1)
    print(f"client GETs {img.encode()}; the cloud would prefetch:")
    for suggestion in advisor.prefetch_for(img):
        print(f"  {suggestion.encode()}")

    print("\nlearned workflow stages (program -> next program):")
    for (source, target), count in advisor.model.transitions.most_common(5):
        print(f"  {source:12s} -> {target:12s} x{count}")

    groups = advisor.placement_groups()
    print(
        f"\nco-placement: {len(groups)} groups; the largest workflow "
        f"spans {len(groups[0])} objects that always travel together"
    )

    atlas = ObjectRef("fmri/s0000/atlas.img", 1)
    gif = ObjectRef("fmri/s0000/atlas-x.gif", 1)
    plan = advisor.eviction_plan([atlas, gif], keep_fraction=0.5)
    print(
        f"\neviction under pressure: drop {[r.encode() for r in plan]} "
        f"(fan-out {advisor.model.fan_out(plan[0])}) and keep "
        f"{atlas.encode()} (fan-out {advisor.model.fan_out(atlas)})"
    )


if __name__ == "__main__":
    main()
