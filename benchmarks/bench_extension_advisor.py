"""Extension experiment — the provenance-aware cloud (paper §7).

The paper closes with: "we plan to investigate how a cloud might take
advantage of this provenance." This benchmark runs that investigation
over the reproduction's own workloads: it stores the Combined trace in
a four-shard cloud, hydrates the advisor from the provenance the cloud
holds (``stored_bundles()``), and reports the dedup and placement
opportunities it exposes; it also times the model's ingest.
"""

import random

from repro.advisor import ProvenanceAdvisor
from repro.sim import Simulation
from repro.workloads import CombinedWorkload, LinuxCompileWorkload

from conftest import save_result


def test_dedup_and_placement_opportunities(benchmark):
    events = list(
        CombinedWorkload().iter_events(random.Random("adv:combined"), 0.2)
    )
    sim = Simulation("s3+simpledb", seed=0, shards=4)
    sim.store_events(events, collect=False)
    advisor = benchmark.pedantic(
        lambda: ProvenanceAdvisor.from_bundles(sim.store.stored_bundles().values()),
        rounds=1,
        iterations=1,
    )
    dedup = advisor.dedup_report()
    groups = advisor.placement_groups()
    lines = [
        "Extension: what stored provenance tells the provider (4 shards)",
        f"  duplicate computations: {len(dedup)} groups "
        f"({sum(len(g) - 1 for g in dedup)} redundant objects)",
        f"  co-placement groups (>=2 objects): {len(groups)}; "
        f"largest spans {max((len(g) for g in groups), default=0)} objects",
        f"  learned stage transitions: "
        f"{advisor.model.transitions.most_common(5)}",
    ]
    save_result("extension_advisor_opportunities", "\n".join(lines))
    assert groups, "workflows must yield co-access structure"


def test_bench_model_ingest(benchmark):
    events = LinuxCompileWorkload().iter_events(random.Random("adv:linux-compile"), 0.25)
    bundles = [b for e in events for b in e.all_bundles()]

    def build():
        return ProvenanceAdvisor.from_bundles(bundles)

    advisor = benchmark(build)
    assert len(advisor.model) == len(bundles)
