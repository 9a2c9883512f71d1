"""A read followed by an overwrite: does each architecture keep a closed
provenance graph?

Three events: ``doc/in.txt`` is staged, ``reader`` reads it and writes
``doc/out.txt``, then ``editor`` overwrites ``doc/in.txt``. The output's
ancestry names version 1 of the input, so a cloud that keeps only the
input's latest version holds an ``input`` edge to a version it lost.
Table 1's closure judgement (``AncestryWalker.is_causally_closed``)
over ``stored_provenance()`` is the check. A1 keeps one S3 object per
name and fails it today (ROADMAP item 7); A2 and A3 keep every version.
"""

from __future__ import annotations

import pytest

from repro.core import ARCHITECTURES
from repro.passlib.capture import PassSystem
from repro.query.ancestry import AncestryWalker
from repro.sim import Simulation


def read_then_overwrite_trace():
    pas = PassSystem(workload="doc")
    pas.stage_input("doc/in.txt", b"draft")
    with pas.process("reader") as reader:
        reader.read("doc/in.txt")
        reader.write("doc/out.txt", b"summary of the draft")
        reader.close("doc/out.txt")
    with pas.process("editor") as editor:
        editor.write("doc/in.txt", b"final")
        editor.close("doc/in.txt")
    return pas.drain_flushes()


@pytest.mark.parametrize(
    "architecture",
    [
        pytest.param(
            "s3",
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 7"),
        ),
        *(name for name in sorted(ARCHITECTURES) if name != "s3"),
    ],
)
def test_stored_provenance_is_causally_closed_after_an_overwrite(architecture):
    trace = read_then_overwrite_trace()
    assert len(trace) == 3
    sim = Simulation(architecture, seed=7)
    sim.store_events(trace, collect=False)
    sim.settle()
    walker = AncestryWalker(bundle for event in trace for bundle in event.all_bundles())
    assert walker.is_causally_closed(sim.store.stored_provenance())
