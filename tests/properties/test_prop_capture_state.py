"""Property tests: the capture layer's incremental state matches a rescan.

A :class:`~repro.passlib.objects.PassObject` keeps its current version's
reference, input refs and "has a ``type`` record" flag beside its
records instead of rescanning them on every syscall, and
``AncestryWalker.descendants_of_outputs`` walks one closure from all of
Q2's seeds. Each is checked here against the from-scratch reference in
``tests/oracles.py``.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.passlib.capture import PassSystem
from repro.passlib.objects import Kind, PassObject
from repro.passlib.records import Attr, ObjectRef, ProvenanceBundle, ProvenanceRecord
from repro.query.ancestry import AncestryWalker
from repro.workloads import DeepLineageWorkload
from tests.oracles import (
    reference_descendants_of_outputs,
    reference_has_input,
    reference_is_described,
)

ACTIONS = ("spawn", "read", "write", "close", "pipe", "write_pipe", "read_pipe", "flush")

#: A random syscall program: (action, first index, second index); the
#: indices pick processes, files and pipes modulo how many exist.
syscalls = st.lists(
    st.tuples(st.sampled_from(ACTIONS), st.integers(0, 7), st.integers(0, 7)),
    min_size=1,
    max_size=50,
)


def assert_state_matches_records(objects) -> None:
    candidates = {
        ObjectRef(obj.name, version)
        for obj in objects
        for version in range(1, obj.version + 1)
    }
    for obj in objects:
        assert obj.ref == ObjectRef(obj.name, obj.version)
        assert obj._typed == reference_is_described(obj)
        for ref in candidates:
            assert obj.has_input(ref) == reference_has_input(obj, ref)


@settings(max_examples=60, deadline=None)
@given(program=syscalls)
def test_capture_state_matches_a_rescan_after_every_syscall(program):
    pas = PassSystem(workload="prop")
    handles = [pas.process("p0")]
    pipes = [pas.make_pipe()]
    files = [f"f{i}" for i in range(4)]
    written: set[str] = set()
    for action, a, b in program:
        handle = handles[a % len(handles)]
        path = files[b % len(files)]
        pipe = pipes[b % len(pipes)]
        if action == "spawn":
            parent = handles[b % len(handles)] if a % 2 else None
            handles.append(pas.process(f"p{len(handles)}", argv=f"-n {a}", parent=parent))
        elif action == "read":
            handle.read(path)
        elif action == "write":
            handle.write(path, f"{a}:{b}".encode())
            written.add(path)
        elif action == "close":
            if path in written:
                handle.close(path)
        elif action == "pipe":
            pipes.append(pas.make_pipe())
        elif action == "write_pipe":
            handle.write_pipe(pipe)
        elif action == "read_pipe":
            handle.read_pipe(pipe)
        else:
            pas.drain_flushes()
            pas.trim_flushed()
        objects = [pas.file(name) for name in files if pas.has_file(name)]
        objects += [handle.obj for handle in handles] + pipes
        assert_state_matches_records(objects)


def test_an_object_built_with_records_derives_its_state():
    ref = ObjectRef("proc/p.1", 3)
    pending = [
        ProvenanceRecord(ref, Attr.TYPE, Kind.PROCESS),
        ProvenanceRecord(ref, Attr.INPUT, ObjectRef("f", 2)),
    ]
    obj = PassObject(name="proc/p.1", kind=Kind.PROCESS, version=3, pending=pending)
    assert obj.ref == ref
    assert obj.has_input(ObjectRef("f", 2)) and not obj.has_input(ObjectRef("f", 1))
    assert obj._typed
    obj.bump_version()
    assert obj.ref == ObjectRef("proc/p.1", 4)
    assert not obj.has_input(ObjectRef("f", 2)) and not obj._typed


# -- Q3's oracle: one closure from all seeds ---------------------------------


def random_dag(rng: random.Random, size: int) -> list[ProvenanceBundle]:
    """``size`` object versions, each depending on up to three earlier
    ones; processes are named after one of three programs."""
    bundles = []
    refs: list[ObjectRef] = []
    for index in range(size):
        kind = rng.choice((Kind.FILE, Kind.FILE, Kind.PROCESS))
        ref = ObjectRef(f"{kind}/{index}", 1)
        name = f"prog{rng.randrange(3)}" if kind == Kind.PROCESS else f"o{index}"
        records = [ProvenanceRecord(ref, Attr.TYPE, kind), ProvenanceRecord(ref, Attr.NAME, name)]
        for parent in rng.sample(refs, min(len(refs), rng.randrange(4))):
            records.append(ProvenanceRecord(ref, Attr.INPUT, parent))
        bundles.append(ProvenanceBundle(subject=ref, kind=kind, records=tuple(records)))
        refs.append(ref)
    return bundles


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 60))
def test_q3_oracle_equals_the_per_seed_union_on_random_dags(seed, size):
    walker = AncestryWalker(random_dag(random.Random(seed), size))
    for program in ("prog0", "prog1", "prog2", "absent"):
        assert walker.descendants_of_outputs(program) == reference_descendants_of_outputs(
            walker, program
        )


def test_q3_oracle_equals_the_per_seed_union_on_the_deep_chain():
    workload = DeepLineageWorkload(chain_length=120)
    events = workload.generate(seed=1).events
    walker = AncestryWalker(bundle for event in events for bundle in event.all_bundles())
    expected = reference_descendants_of_outputs(walker, "step")
    assert len(expected) == 120
    assert walker.descendants_of_outputs("step") == expected
