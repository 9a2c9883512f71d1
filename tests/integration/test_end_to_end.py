"""Integration: workload → architecture → queries → analysis, end to end."""

import pytest

from repro.analysis.query_model import shape_check as query_shape
from repro.analysis.storage_model import shape_check as storage_shape
from repro.query.ancestry import AncestryWalker
from repro.sim import Simulation
from repro.workloads import CombinedWorkload, collect_stats


@pytest.fixture(scope="module")
def combined_events():
    import random

    return list(CombinedWorkload().iter_events(random.Random("e2e"), 0.12))


@pytest.fixture(scope="module")
def oracle(combined_events):
    return AncestryWalker(b for e in combined_events for b in e.all_bundles())


class TestFullPipeline:
    @pytest.mark.parametrize("arch", ["s3", "s3+simpledb", "s3+simpledb+sqs"])
    def test_store_and_read_back_everything(self, arch, combined_events):
        sim = Simulation(architecture=arch, seed=17)
        sim.store_events(combined_events, collect=False)
        # Every current version must read back consistently.
        latest = {}
        for event in combined_events:
            latest[event.subject.name] = event
        for name, event in list(latest.items())[:50]:
            result = sim.read(name)
            assert result.consistent
            assert result.subject.version == event.subject.version
            assert result.data.md5() == event.data.md5()

    def test_queries_match_oracle_on_both_backends(self, combined_events, oracle):
        scan_sim = Simulation(architecture="s3", seed=19)
        scan_sim.store_events(combined_events, collect=False)
        sdb_sim = Simulation(architecture="s3+simpledb+sqs", seed=19)
        sdb_sim.store_events(combined_events, collect=False)

        scan = scan_sim.query_engine()
        indexed = sdb_sim.query_engine()
        for program in ("blast", "softmean", "cc1"):
            expected_q2 = oracle.outputs_of(program)
            assert set(scan.q2_outputs_of(program).refs) == expected_q2
            assert set(indexed.q2_outputs_of(program).refs) == expected_q2
            expected_q3 = oracle.descendants_of_outputs(program)
            assert set(indexed.q3_descendants_of(program).refs) == expected_q3

    def test_query_cost_separation_live(self, combined_events):
        """The Table 3 effect, measured live: scan ≫ indexed.

        Pinned to the paper's SimpleDB placement — Table 3's "indexed"
        column *is* SimpleDB (backend tradeoffs live in the
        multibackend benchmark)."""
        scan_sim = Simulation(architecture="s3", seed=23)
        scan_sim.store_events(combined_events, collect=False)
        sdb_sim = Simulation(architecture="s3+simpledb", seed=23, placement="sdb")
        sdb_sim.store_events(combined_events, collect=False)
        scan_cost = scan_sim.query_engine().q2_outputs_of("blast")
        indexed_cost = sdb_sim.query_engine().q2_outputs_of("blast")
        assert indexed_cost.operations * 10 < scan_cost.operations
        assert indexed_cost.bytes_out * 10 < scan_cost.bytes_out

    def test_analysis_shapes_hold(self, combined_events):
        stats = collect_stats(combined_events)
        assert storage_shape(stats) == []
        from repro.analysis.query_model import analytic_query_table

        assert query_shape(analytic_query_table(stats), min_factor=15) == []

    def test_meter_conservation(self, combined_events):
        """Metered storage sits between the live data set and the whole
        trace: at least every *current* version's bytes (data can only
        be overwritten, never lost), at most raw + provenance (nothing
        conjured)."""
        sim = Simulation(architecture="s3", seed=29)
        sim.store_events(combined_events)
        latest: dict[str, int] = {}
        for event in combined_events:
            latest[event.subject.name] = event.data.size
        live_bytes = sum(latest.values())
        stored = sim.account.meter.stored_bytes("s3")
        trace = collect_stats(combined_events)
        assert stored >= live_bytes
        assert stored <= trace.raw_bytes + trace.s3_prov_bytes


class TestEventualConsistencyEndToEnd:
    def test_adversarial_reads_stay_correct(self, combined_events):
        from repro.aws.account import ConsistencyConfig

        sim = Simulation(
            architecture="s3+simpledb+sqs",
            seed=31,
            consistency=ConsistencyConfig.eventual(window=3.0, immediate_fraction=0.3),
        )
        subset = combined_events[:60]
        sim.store_events(subset, collect=False)
        latest = {}
        for event in subset:
            latest[event.subject.name] = event
        for name, event in latest.items():
            result = sim.read(name)
            assert result.consistent
            assert result.data.md5() == event.data.md5()
