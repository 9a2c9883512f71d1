"""Property tests: PASS versioning keeps provenance acyclic, always."""

from hypothesis import given, settings, strategies as st

from repro.passlib.capture import PassSystem
from tests.oracles import emitted_bundles, reference_is_acyclic

#: A random workload program: each step is (process index, action, object
#: index); a pipe action picks one of two pipes by the index's parity.
#: Pipes matter: a file is flushed before anything reads it, so only a
#: pipe reaches a write frozen but unflushed.
steps = st.lists(
    st.tuples(
        st.integers(0, 3),                       # which process
        st.sampled_from(["read", "write", "close", "read_pipe", "write_pipe"]),
        st.integers(0, 4),                       # which file (or pipe)
    ),
    min_size=1,
    max_size=60,
)


def run_program(program) -> PassSystem:
    pas = PassSystem(workload="prop")
    handles = [pas.process(f"p{i}") for i in range(4)]
    pipes = [pas.make_pipe() for _ in range(2)]
    written: set[str] = set()
    for process_index, action, file_index in program:
        handle = handles[process_index]
        path = f"f{file_index}"
        if action == "read":
            handle.read(path)
        elif action == "write":
            handle.write(path, f"{process_index}:{file_index}".encode())
            written.add(path)
        elif action == "read_pipe":
            handle.read_pipe(pipes[file_index % 2])
        elif action == "write_pipe":
            handle.write_pipe(pipes[file_index % 2])
        elif path in written:
            handle.close(path)
    return pas


@settings(max_examples=80, deadline=None)
@given(program=steps)
def test_version_graph_always_acyclic(program):
    pas = run_program(program)
    events = pas.drain_flushes()
    assert reference_is_acyclic(emitted_bundles(pas, events))


@settings(max_examples=80, deadline=None)
@given(program=steps)
def test_flush_events_form_dag_with_causal_order(program):
    pas = run_program(program)
    events = pas.drain_flushes()
    assert reference_is_acyclic(b for e in events for b in e.all_bundles())
    # Causal order: every referenced bundle subject appears no later
    # than its referrer in the flush stream.
    seen = set()
    for event in events:
        for bundle in event.all_bundles():
            for parent in bundle.inputs():
                assert parent in seen or parent.name == bundle.subject.name
            seen.add(bundle.subject)


@settings(max_examples=80, deadline=None)
@given(program=steps)
def test_versions_monotone_per_object(program):
    pas = run_program(program)
    events = pas.drain_flushes()
    last_version: dict[str, int] = {}
    for event in events:
        name = event.subject.name
        version = event.subject.version
        assert version > last_version.get(name, 0), (
            f"{name} flushed version {version} after {last_version.get(name)}"
        )
        last_version[name] = version


@settings(max_examples=60, deadline=None)
@given(program=steps)
def test_no_bundle_exceeds_simpledb_item_limit(program):
    from repro.units import SDB_MAX_ATTRS_PER_ITEM

    pas = run_program(program)
    for event in pas.drain_flushes():
        for bundle in event.all_bundles():
            # +2 for the md5/nonce consistency attributes on file items.
            assert len(bundle) + 2 <= SDB_MAX_ATTRS_PER_ITEM
