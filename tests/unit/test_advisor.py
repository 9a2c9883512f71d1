"""Unit tests for the provenance-aware cloud advisor (§7 extension)."""

import random

import pytest

from repro.advisor import ProvenanceAdvisor, WorkflowModel
from repro.advisor.model import DerivationSignature
from repro.blob import SyntheticBlob
from repro.passlib.capture import PassSystem
from repro.passlib.records import ObjectRef
from repro.sim import Simulation
from repro.workloads import ProvenanceChallengeWorkload


def paired_output_trace():
    """A process writing an img/hdr pair, then a consumer — the shape
    prefetching thrives on."""
    pas = PassSystem(workload="advisor")
    pas.stage_input("in/raw.dat", b"raw")
    with pas.process("convert", argv="--to analyze") as conv:
        conv.read("in/raw.dat")
        conv.write("out/scan.img", SyntheticBlob("img", 1000))
        conv.close("out/scan.img")
        conv.write("out/scan.hdr", b"hdr")
        conv.close("out/scan.hdr")
    with pas.process("view", argv="out/scan.img") as view:
        view.read("out/scan.img")
        view.read("out/scan.hdr")
        view.write("out/view.png", b"png")
        view.close("out/view.png")
    return pas.drain_flushes()


def duplicate_computation_trace():
    pas = PassSystem(workload="advisor")
    pas.stage_input("in/data.csv", b"rows")
    for run in ("first", "second"):
        with pas.process("summarise", argv="--mean", pid=99) as proc:
            proc.read("in/data.csv")
            proc.write(f"out/{run}.txt", b"mean=4.2")
            proc.close(f"out/{run}.txt")
    return pas.drain_flushes()


@pytest.fixture
def paired_advisor():
    events = paired_output_trace()
    return ProvenanceAdvisor.from_bundles(
        b for e in events for b in e.all_bundles()
    )


class TestWorkflowModel:
    def test_producer_and_siblings(self, paired_advisor):
        model = paired_advisor.model
        img = ObjectRef("out/scan.img", 1)
        hdr = ObjectRef("out/scan.hdr", 1)
        assert model.siblings_of(img) == {hdr}
        assert model.siblings_of(hdr) == {img}

    def test_transitions_learned(self, paired_advisor):
        model = paired_advisor.model
        assert model.transitions == {("convert", "view"): 2}  # img + hdr reads

    def test_fan_out_counts_transitives(self, paired_advisor):
        model = paired_advisor.model
        raw = ObjectRef("in/raw.dat", 1)
        # raw -> convert -> img/hdr -> view -> png : 5 dependents.
        assert model.fan_out(raw) == 5
        assert model.fan_out(ObjectRef("out/view.png", 1)) == 0

    def test_derivation_signature_stable(self):
        sig_a = DerivationSignature("tool", "-x", ("a:v0001",))
        sig_b = DerivationSignature("tool", "-x", ("a:v0001",))
        assert sig_a.digest() == sig_b.digest()
        assert sig_a.digest() != DerivationSignature("tool", "-y", ("a:v0001",)).digest()

    def test_duplicate_computations_found(self):
        events = duplicate_computation_trace()
        model = WorkflowModel().ingest_all(
            b for e in events for b in e.all_bundles()
        )
        groups = model.duplicate_computations()
        assert len(groups) == 1
        assert {r.name for r in groups[0]} == {"out/first.txt", "out/second.txt"}

    def test_co_access_components(self, paired_advisor):
        components = paired_advisor.model.co_access_components()
        biggest = components[0]
        assert {"in/raw.dat", "out/scan.img", "out/scan.hdr", "out/view.png"} <= biggest


class TestAdvisor:
    def test_prefetch_suggests_sibling_first(self, paired_advisor):
        img = ObjectRef("out/scan.img", 1)
        suggestions = paired_advisor.prefetch_for(img)
        assert suggestions[0] == ObjectRef("out/scan.hdr", 1)

    def test_prefetch_unknown_object_empty(self, paired_advisor):
        assert paired_advisor.prefetch_for(ObjectRef("ghost", 1)) == ()

    def test_eviction_prefers_leaf_objects(self, paired_advisor):
        raw = ObjectRef("in/raw.dat", 1)
        png = ObjectRef("out/view.png", 1)
        plan = paired_advisor.eviction_plan([raw, png], keep_fraction=0.5)
        assert plan == (png,)  # nothing derives from the png; raw anchors all

    def test_dedup_report(self):
        events = duplicate_computation_trace()
        advisor = ProvenanceAdvisor.from_bundles(
            b for e in events for b in e.all_bundles()
        )
        report = advisor.dedup_report()
        assert len(report) == 1 and len(report[0]) == 2


#: The layouts a provider's advisor must read alike: the paper's one
#: SimpleDB domain, four shards, all-DynamoDB, and one shard on each.
LAYOUTS = {
    "default": {},
    "shards-4": dict(shards=4),
    "ddb": dict(placement="ddb"),
    "sdb+ddb": dict(shards=2, placement="0:sdb,1:ddb"),
}
CLOUDS = [("s3", "default")] + [
    (architecture, layout)
    for architecture in ("s3+simpledb", "s3+simpledb+sqs")
    for layout in LAYOUTS
]


def advice(advisor, files):
    """Everything the advisor tells a provider about ``files``."""
    return (
        advisor.model.transitions,
        advisor.dedup_report(),
        advisor.placement_groups(),
        {ref: (advisor.prefetch_for(ref), advisor.model.fan_out(ref)) for ref in files},
    )


@pytest.fixture(scope="module")
def challenge_trace():
    return list(
        ProvenanceChallengeWorkload(n_workflows=2).iter_events(
            random.Random("advisor"), 1.0
        )
    )


@pytest.mark.parametrize(
    ("architecture", "layout"), CLOUDS, ids=[f"{a}-{l}" for a, l in CLOUDS]
)
def test_advice_from_stored_bundles_equals_the_trace(challenge_trace, architecture, layout):
    """Hydrated from what the cloud holds, on any architecture, layout
    or backend, the advisor gives the advice the trace itself gives —
    every stage transition included."""
    sim = Simulation(architecture, seed=4, **LAYOUTS[layout])
    sim.store_events(challenge_trace, collect=False)
    sim.settle()
    hydrated = ProvenanceAdvisor.from_bundles(sim.store.stored_bundles().values())
    direct = ProvenanceAdvisor.from_bundles(
        b for e in challenge_trace for b in e.all_bundles()
    )
    files = [event.subject for event in challenge_trace]
    assert advice(hydrated, files) == advice(direct, files)
    assert len(direct.model.transitions) == 4
