"""Unit tests for the PASS capture engine (syscalls → flush events)."""

import pytest

from repro.errors import ObjectClosed, UnknownObject
from repro.passlib.capture import PassSystem
from repro.passlib.records import Attr
from tests.oracles import emitted_bundles, reference_is_acyclic


class TestStaging:
    def test_stage_input_queues_flush(self):
        pas = PassSystem()
        pas.stage_input("in.dat", b"source")
        events = pas.drain_flushes()
        assert len(events) == 1
        assert events[0].subject.name == "in.dat"
        assert events[0].data.read() == b"source"
        assert events[0].ancestors == ()

    def test_descriptor_records_present(self):
        pas = PassSystem(workload="w")
        pas.stage_input("in.dat", b"x")
        bundle = pas.drain_flushes()[0].bundle
        assert bundle.attribute_values(Attr.TYPE) == ["file"]
        assert bundle.attribute_values(Attr.NAME) == ["in.dat"]
        assert bundle.attribute_values(Attr.WORKLOAD) == ["w"]


class TestProcessIO:
    def test_write_close_flushes_with_process_ancestor(self):
        pas = PassSystem()
        with pas.process("tool", argv="-x", env={"K": "V"}) as proc:
            proc.write("out.dat", b"result")
            event = proc.close("out.dat")
        assert event.subject.name == "out.dat"
        assert [a.kind for a in event.ancestors] == ["process"]
        proc_bundle = event.ancestors[0]
        assert proc_bundle.attribute_values(Attr.NAME) == ["tool"]
        assert proc_bundle.attribute_values(Attr.ARGV) == ["-x"]
        assert event.bundle.inputs() == [proc_bundle.subject]

    def test_read_links_process_to_file(self):
        pas = PassSystem()
        pas.stage_input("in.dat", b"x")
        with pas.process("tool") as proc:
            proc.read("in.dat")
            proc.write("out.dat", b"y")
            proc.close("out.dat")
        events = pas.drain_flushes()
        out_event = events[-1]
        proc_bundle = out_event.ancestors[0]
        assert any(ref.name == "in.dat" for ref in proc_bundle.inputs())

    def test_read_of_unknown_file_autostages(self):
        pas = PassSystem()
        with pas.process("tool") as proc:
            proc.read("mystery.dat")
            proc.write("out.dat", b"y")
            proc.close("out.dat")
        events = pas.drain_flushes()
        assert events[0].subject.name == "mystery.dat"  # ancestor first

    def test_process_ancestor_shipped_once(self):
        """A process writing two files rides with the first flush only."""
        pas = PassSystem()
        with pas.process("tool") as proc:
            proc.write("a.dat", b"1")
            first = proc.close("a.dat")
            proc.write("b.dat", b"2")
            second = proc.close("b.dat")
        assert len(first.ancestors) == 1
        assert second.ancestors == ()  # already persisted
        assert second.bundle.inputs() == [first.ancestors[0].subject]

    def test_exited_process_rejects_io(self):
        pas = PassSystem()
        proc = pas.process("tool")
        proc.exit()
        with pytest.raises(ObjectClosed):
            proc.write("x", b"y")

    def test_close_without_data_rejected(self):
        pas = PassSystem()
        with pytest.raises(UnknownObject):
            pas.close_file("never-written")

    def test_parent_lineage_recorded(self):
        pas = PassSystem()
        parent = pas.process("sh")
        with pas.process("cc", parent=parent) as child:
            child.write("out.o", b"obj")
            event = child.close("out.o")
        subjects = {a.subject.name for a in event.ancestors}
        assert any(name.startswith("proc/cc") for name in subjects)
        assert any(name.startswith("proc/sh") for name in subjects)


class TestPipes:
    def test_pipeline_provenance_chain(self):
        pas = PassSystem()
        pas.stage_input("in.txt", b"text")
        pipe = pas.make_pipe()
        with pas.process("grep") as grep:
            grep.read("in.txt")
            grep.write_pipe(pipe)
        with pas.process("sort") as sorter:
            sorter.read_pipe(pipe)
            sorter.write("out.txt", b"sorted")
            event = sorter.close("out.txt")
        kinds = [a.kind for a in event.ancestors]
        assert kinds.count("process") == 2
        assert kinds.count("pipe") == 1
        # Transitive chain: out <- sort <- pipe <- grep.
        subjects = [a.subject.name for a in event.ancestors]
        assert subjects.index("pipe/1") < subjects.index(
            next(s for s in subjects if s.startswith("proc/sort"))
        )


class TestVersionsAcrossFlushes:
    def test_rewrite_after_flush_creates_new_version(self):
        pas = PassSystem()
        with pas.process("w1") as proc:
            proc.write("f", b"v1")
            first = proc.close("f")
        with pas.process("w2") as proc:
            proc.write("f", b"v2")
            second = proc.close("f")
        assert first.subject.version == 1
        assert second.subject.version == 2
        prev = [
            r.value for r in second.bundle.records
            if r.attribute == Attr.VERSION_OF
        ]
        assert prev == [first.subject]

    def test_graph_remains_acyclic(self):
        pas = PassSystem()
        pas.stage_input("seed", b"s")
        for i in range(4):
            with pas.process(f"step{i}") as proc:
                proc.read("seed" if i == 0 else f"stage{i - 1}")
                proc.write(f"stage{i}", f"data{i}".encode())
                proc.close(f"stage{i}")
        events = pas.drain_flushes()
        assert reference_is_acyclic(emitted_bundles(pas, events))


class TestTrim:
    def test_trim_preserves_future_correctness(self):
        pas = PassSystem()
        pas.stage_input("in", b"x")
        with pas.process("p1") as proc:
            proc.read("in")
            proc.write("mid", b"y")
            proc.close("mid")
        events = pas.drain_flushes()
        freed = pas.trim_flushed()
        assert freed >= 0
        # Work continues normally after trimming.
        with pas.process("p2") as proc:
            proc.read("mid")
            proc.write("out", b"z")
            event = proc.close("out")
        assert event.subject.name == "out"
        assert reference_is_acyclic(emitted_bundles(pas, [*events, event]))
