"""Unit tests for PASS objects and the freeze-and-bump versioning rule."""

from repro.passlib.objects import Kind, PassObject
from repro.passlib.records import Attr, ObjectRef
from repro.passlib.versioning import VersionManager
from tests.oracles import pass_bundles, reference_is_acyclic


def make_file(name="f"):
    return PassObject(name=name, kind=Kind.FILE)


def make_proc(name="proc/p.1"):
    return PassObject(name=name, kind=Kind.PROCESS)


class TestPassObject:
    def test_pnodes_unique(self):
        assert make_file("a").pnode != make_file("b").pnode

    def test_bump_links_versions(self):
        obj = make_file()
        first = obj.ref
        obj.bump_version()
        assert obj.version == 2
        assert not obj.frozen
        prev_records = [r for r in obj.pending if r.attribute == Attr.VERSION_OF]
        assert [r.value for r in prev_records] == [first]

    def test_history_preserved_for_superseded_versions(self):
        obj = make_file()
        obj.add(Attr.TYPE, "file")
        obj.bump_version()
        bundle = obj.snapshot_bundle(version=1)
        assert bundle.subject == ObjectRef("f", 1)
        assert bundle.attribute_values(Attr.TYPE) == ["file"]

    def test_snapshot_unknown_version_rejected(self):
        obj = make_file()
        try:
            obj.snapshot_bundle(version=5)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")

    def test_has_input_deduplicates(self):
        obj = make_file()
        ancestor = ObjectRef("proc/x.1", 1)
        assert not obj.has_input(ancestor)
        obj.add_input(ancestor)
        assert obj.has_input(ancestor)


class TestVersionManagerReads:
    def test_read_freezes_source_and_adds_edge(self):
        vm = VersionManager()
        proc, source = make_proc(), make_file("src")
        vm.on_read(proc, source)
        assert source.frozen
        assert proc.has_input(source.ref)

    def test_repeat_read_adds_no_duplicate_edge(self):
        vm = VersionManager()
        proc, source = make_proc(), make_file("src")
        vm.on_read(proc, source)
        vm.on_read(proc, source)
        inputs = [r for r in proc.pending if r.attribute == Attr.INPUT]
        assert len(inputs) == 1

    def test_frozen_reader_bumps_before_new_input(self):
        """A process whose outputs are recorded must not gain inputs
        retroactively — the PASS cycle-avoidance rule."""
        vm = VersionManager()
        proc, out, extra = make_proc(), make_file("out"), make_file("extra")
        vm.on_write(proc, out)        # freezes proc v1
        assert proc.frozen
        vm.on_read(proc, extra)       # must cut proc v2
        assert proc.version == 2
        assert vm.cycles_avoided == 1


class TestVersionManagerWrites:
    def test_write_freezes_writer(self):
        vm = VersionManager()
        proc, target = make_proc(), make_file("t")
        vm.on_write(proc, target)
        assert proc.frozen
        assert target.has_input(proc.ref)

    def test_write_to_read_file_cuts_new_version(self):
        vm = VersionManager()
        reader, writer, shared = make_proc("proc/r.1"), make_proc("proc/w.2"), make_file("shared")
        vm.on_read(reader, shared)    # freezes shared v1
        vm.on_write(writer, shared)   # must create shared v2
        assert shared.version == 2
        assert shared.has_input(writer.ref)

    def test_write_to_flushed_version_cuts_new_version(self):
        vm = VersionManager()
        proc, target = make_proc(), make_file("t")
        vm.on_write(proc, target)
        target.mark_flushed()
        target.frozen = False  # flush without read
        vm.on_write(proc, target)
        assert target.version == 2

    def test_read_write_cycle_avoided(self):
        """The classic provenance cycle: P reads F then writes F."""
        vm = VersionManager()
        proc, f = make_proc(), make_file()
        vm.on_read(proc, f)     # proc depends on f:v1 (frozen)
        vm.on_write(proc, f)    # must produce f:v2 depending on proc
        assert f.version == 2
        assert reference_is_acyclic(pass_bundles([proc, f]))

    def test_ping_pong_two_processes_stays_acyclic(self):
        vm = VersionManager()
        p1, p2, f = make_proc("proc/a.1"), make_proc("proc/b.2"), make_file()
        for _ in range(5):
            vm.on_write(p1, f)
            vm.on_read(p2, f)
            vm.on_write(p2, f)
            vm.on_read(p1, f)
        assert reference_is_acyclic(pass_bundles([p1, p2, f]))
        assert f.version >= 5


class TestObserve:
    def test_observe_freezes(self):
        vm = VersionManager()
        obj = make_file()
        vm.on_observe(obj)
        assert obj.frozen
