"""Unit tests for the workload generators."""

import dataclasses
import random

import pytest

from repro.passlib.records import Attr
from repro.query.ancestry import AncestryWalker
from repro.workloads import (
    BlastWorkload,
    CombinedWorkload,
    LinuxCompileWorkload,
    ProvenanceChallengeWorkload,
    ZipfianFleetWorkload,
    base,
    collect_stats,
)
from repro.units import KB, SDB_MAX_ATTRS_PER_ITEM
from tests.oracles import reference_is_acyclic, reference_synth_env


def generate(workload, scale=0.2, seed="test"):
    return list(workload.iter_events(random.Random(seed), scale))


class TestDeterminism:
    @pytest.mark.parametrize(
        "workload",
        [LinuxCompileWorkload(), BlastWorkload(), ProvenanceChallengeWorkload()],
        ids=["linux", "blast", "fmri"],
    )
    def test_same_seed_same_trace(self, workload):
        first = generate(workload)
        second = generate(workload)
        assert [e.subject for e in first] == [e.subject for e in second]
        assert [e.data.md5() for e in first] == [e.data.md5() for e in second]

    def test_different_seed_different_content(self):
        first = generate(BlastWorkload(), seed="a")
        second = generate(BlastWorkload(), seed="b")
        assert [e.data.md5() for e in first] != [e.data.md5() for e in second]


class TestCausalOrder:
    @pytest.mark.parametrize(
        "workload",
        [LinuxCompileWorkload(), BlastWorkload(), ProvenanceChallengeWorkload()],
        ids=["linux", "blast", "fmri"],
    )
    def test_ancestors_flushed_before_descendants(self, workload):
        events = generate(workload, scale=0.15)
        seen = set()
        for event in events:
            for bundle in event.all_bundles():
                for parent in bundle.inputs():
                    assert parent in seen or parent.name == bundle.subject.name, (
                        f"{bundle.subject.encode()} references unseen "
                        f"{parent.encode()}"
                    )
                seen.add(bundle.subject)

    def test_graph_acyclic(self):
        events = generate(CombinedWorkload(), scale=0.1)
        assert reference_is_acyclic(b for e in events for b in e.all_bundles())


class TestStructure:
    def test_linux_versions_churn(self):
        events = generate(LinuxCompileWorkload(rebuild_passes=2), scale=0.3)
        versions = [e.subject.version for e in events]
        assert max(versions) >= 2  # rebuilds cut new versions

    def test_linux_pipeline_present(self):
        events = generate(LinuxCompileWorkload(), scale=0.1)
        obj_event = next(e for e in events if e.subject.name.endswith(".o"))
        names = {
            a.attribute_values(Attr.NAME)[0]
            for a in obj_event.ancestors
            if a.kind == "process"
        }
        assert {"cpp", "cc1", "as"} <= names
        assert any(a.kind == "pipe" for a in obj_event.ancestors)

    def test_simpledb_item_limit_respected(self):
        events = generate(LinuxCompileWorkload(), scale=0.6)
        for event in events:
            for bundle in event.all_bundles():
                assert len(bundle) <= SDB_MAX_ATTRS_PER_ITEM

    def test_blast_two_stage_pipeline(self):
        events = generate(BlastWorkload(n_runs=1, queries_per_run=3), scale=1.0)
        walker = AncestryWalker(b for e in events for b in e.all_bundles())
        outputs = walker.outputs_of("blast")
        assert len(outputs) == 3
        descendants = walker.descendants_of_outputs("blast")
        assert len(descendants) == 6  # hits + summaries

    def test_provchallenge_workflow_shape(self):
        events = generate(ProvenanceChallengeWorkload(n_workflows=1), scale=1.0)
        walker = AncestryWalker(b for e in events for b in e.all_bundles())
        # The published workflow: every GIF descends from all 4 anatomies.
        gif = next(e.subject for e in events if e.subject.name.endswith("-x.gif"))
        ancestor_names = {ref.name for ref in walker.ancestors(gif)}
        for i in range(1, 5):
            assert f"fmri/s0000/anatomy{i}.img" in ancestor_names

    def test_workload_tag_recorded(self):
        events = generate(BlastWorkload(n_runs=1, queries_per_run=2))
        for event in events:
            assert event.bundle.attribute_values(Attr.WORKLOAD) == ["blast"]


class TestStatistics:
    def test_stats_accumulate(self):
        events = generate(CombinedWorkload(), scale=0.1)
        stats = collect_stats(events)
        assert stats.n_objects == len(events)
        assert stats.raw_bytes == sum(e.data.size for e in events)
        assert stats.n_sdb_items >= stats.n_objects
        assert stats.per_workload_objects.keys() == {
            "linux-compile", "blast", "provchallenge",
        }

    def test_oversized_records_present(self):
        stats = collect_stats(generate(CombinedWorkload(), scale=0.15))
        assert stats.n_records_gt_1kb > 0
        # Everything that spilled was indeed >1 KB by construction.
        assert stats.s3_prov_bytes > stats.n_records_gt_1kb * KB

    def test_scaling_monotone(self):
        small = collect_stats(generate(CombinedWorkload(), scale=0.1, seed="s"))
        large = collect_stats(generate(CombinedWorkload(), scale=0.3, seed="s"))
        assert large.n_objects > small.n_objects
        assert large.raw_bytes > small.raw_bytes


class TestSynthEnvDifferential:
    """The one-call ``synth_env`` against the per-character reference:
    same trace once each environment is read as its length (the only
    thing metering reads of it), same §5 statistics."""

    WORKLOADS = [CombinedWorkload(), ZipfianFleetWorkload(n_ops=400)]

    @staticmethod
    def shape(events):
        def record(r):
            return (r.subject, r.attribute, len(r.value) if r.attribute == Attr.ENV else r.value)

        return [
            ([(b.subject, b.kind, [record(r) for r in b.records]) for b in e.all_bundles()], e.data)
            for e in events
        ]

    def traces(self, monkeypatch, workload):
        fast = generate(workload, scale=0.05)
        monkeypatch.setattr(base, "synth_env", reference_synth_env)
        return fast, generate(workload, scale=0.05)

    @pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
    def test_same_trace_but_env_characters(self, monkeypatch, workload):
        fast, reference = self.traces(monkeypatch, workload)
        envs = [r.value for e in fast for b in e.all_bundles() for r in b.records
                if r.attribute == Attr.ENV]
        assert any(len(env) > KB for env in envs) and any(len(env) < KB for env in envs)
        assert self.shape(fast) == self.shape(reference)

    @pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
    def test_same_stats(self, monkeypatch, workload):
        fast, reference = self.traces(monkeypatch, workload)
        assert dataclasses.asdict(collect_stats(fast)) == dataclasses.asdict(
            collect_stats(reference)
        )
