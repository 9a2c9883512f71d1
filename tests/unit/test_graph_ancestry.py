"""Unit tests for the ancestry walker, the one in-memory lineage index."""

import pytest

from repro.passlib.capture import PassSystem
from repro.passlib.records import ObjectRef
from repro.query.ancestry import AncestryWalker
from tests.oracles import reference_is_acyclic


def chain_trace():
    """a → p0 → b → p1 → c."""
    pas = PassSystem()
    pas.stage_input("a", b"seed")
    for i, (src, dst) in enumerate((("a", "b"), ("b", "c"))):
        with pas.process(f"step{i}") as proc:
            proc.read(src)
            proc.write(dst, f"out{i}".encode())
            proc.close(dst)
    return pas.drain_flushes()


@pytest.fixture
def events():
    return chain_trace()


@pytest.fixture
def walker(events):
    return AncestryWalker(b for e in events for b in e.all_bundles())


class TestAncestryWalker:
    def test_bundles_typed(self, walker):
        assert walker.bundle(ObjectRef("a", 1)).kind == "file"
        kinds = [walker.bundle(ref).kind for ref in walker.subjects()]
        assert kinds.count("process") == 2
        assert kinds.count("file") == 3

    def test_acyclic(self, events):
        assert reference_is_acyclic(b for e in events for b in e.all_bundles())

    def test_descendants_transitive(self, walker):
        descendants = walker.descendants(ObjectRef("a", 1))
        assert ObjectRef("c", 1) in descendants

    def test_outputs_of(self, walker):
        assert walker.outputs_of("step0") == {ObjectRef("b", 1)}

    def test_descendants_of_outputs(self, walker):
        assert walker.descendants_of_outputs("step0") == {
            ObjectRef("b", 1),
            ObjectRef("c", 1),
        }

    def test_parents_children(self, walker):
        c = ObjectRef("c", 1)
        parents = walker.parents(c)
        assert len(parents) == 1 and parents[0].name.startswith("proc/step1")
        a = ObjectRef("a", 1)
        children = walker.children(a)
        assert len(children) == 1 and children[0].name.startswith("proc/step0")

    def test_ancestors_exclude_self(self, walker):
        c = ObjectRef("c", 1)
        assert c not in walker.ancestors(c)
        assert ObjectRef("a", 1) in walker.ancestors(c)
        assert ObjectRef("b", 1) in walker.ancestors(c)

    def test_find_by_attribute(self, walker):
        assert walker.find("name", "step0") == walker.instances_of("step0")

    def test_causal_closure_detects_gaps(self, walker, events):
        all_refs = {b.subject for e in events for b in e.all_bundles()}
        assert walker.is_causally_closed(all_refs)
        # Remove a's bundle from visibility: step0 references a missing
        # known ancestor -> closure broken.
        broken = all_refs - {ObjectRef("a", 1)}
        assert not walker.is_causally_closed(broken)

    def test_closure_tolerates_unknown_externals(self, walker):
        # Nodes the walker never saw don't break closure.
        assert walker.is_causally_closed({ObjectRef("c", 1)}) in (True, False)
        only_a = {ObjectRef("a", 1)}
        assert walker.is_causally_closed(only_a)

    def test_incremental_add(self, events):
        walker = AncestryWalker([])
        for event in events:
            for bundle in event.all_bundles():
                walker.add(bundle)
        assert len(walker) == sum(len(e.all_bundles()) for e in events)
