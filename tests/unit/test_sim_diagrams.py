"""Unit tests for the Simulation facade and the Figure 1-3 diagrams."""

import pytest

from repro.graph.diagrams import (
    diagram_summary,
    render_ascii,
    render_dot,
    validate_diagram,
)
from repro.sim import Simulation
from repro.workloads import BlastWorkload


class TestSimulation:
    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            Simulation(architecture="s3+dynamo")

    @pytest.mark.parametrize("arch", ["s3", "s3+simpledb", "s3+simpledb+sqs"])
    def test_workload_roundtrip(self, arch):
        sim = Simulation(architecture=arch, seed=3)
        stored = sim.run_workload(BlastWorkload(n_runs=1, queries_per_run=2), scale=1.0)
        assert stored == sim.events_stored > 0
        result = sim.read("blast/out/run0/q0000.blast")
        assert result.consistent

    def test_stats_collected(self):
        sim = Simulation(seed=3)
        sim.run_workload(BlastWorkload(n_runs=1, queries_per_run=2), scale=1.0)
        assert sim.stats.n_objects == sim.events_stored

    def test_query_engine_matches_architecture(self):
        from repro.query.engine import SimpleDBEngine

        assert isinstance(Simulation(architecture="s3").query_engine(), SimpleDBEngine)
        assert isinstance(
            Simulation(architecture="s3+simpledb").query_engine(), SimpleDBEngine
        )

    def test_bill_renders(self):
        sim = Simulation(seed=3)
        sim.run_workload(BlastWorkload(n_runs=1, queries_per_run=1), scale=1.0)
        assert "TOTAL" in sim.bill()


class TestDiagrams:
    @pytest.fixture(params=["s3", "s3+simpledb", "s3+simpledb+sqs"])
    def store(self, request):
        return Simulation(architecture=request.param).store

    def test_diagram_valid(self, store):
        assert validate_diagram(store) == []

    def test_ascii_mentions_every_component(self, store):
        art = render_ascii(store)
        for component in store.components():
            assert component.name in art

    def test_dot_well_formed(self, store):
        dot = render_dot(store)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        for flow in store.flows():
            assert f'"{flow.source}" -> "{flow.target}"' in dot

    def test_figure_progression(self):
        """Figures 1→3 add components: S3 < +SimpleDB < +SQS+daemons."""
        sizes = [
            diagram_summary(Simulation(architecture=arch).store)["components"]
            for arch in ("s3", "s3+simpledb", "s3+simpledb+sqs")
        ]
        assert sizes[0] < sizes[1] < sizes[2]
