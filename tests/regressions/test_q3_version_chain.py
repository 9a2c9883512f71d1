"""Q3 and the version chain: is a later version of a descendant itself a
descendant?

``blast`` reads ``doc/in.txt`` and writes ``doc/out.txt``; then ``edit``
overwrites ``doc/out.txt`` without reading it. Version 2's provenance
names version 1 only through ``prev_version``. The query engine's Q3
follows ``input`` edges, so A2 and A3 answer {out.txt:v1}.
``AncestryWalker.descendants_of_outputs``, the oracle the harness and
the tests judge Q3 against, follows ``prev_version`` too and answers
{out.txt:v1, out.txt:v2}.

Which answer is right is still open (see the ROADMAP caveat). A
``prev_version`` term in the Q3 expression has no index on the DynamoDB
workloads, so it would turn those phases into Scans. A1 keeps one
version per name (ROADMAP item 7) and cannot show the divergence.
"""

from __future__ import annotations

import pytest

from repro.passlib.capture import PassSystem
from repro.passlib.records import ObjectRef
from repro.query.ancestry import AncestryWalker
from repro.sim import Simulation


def blast_then_blind_overwrite_trace():
    pas = PassSystem(workload="doc")
    pas.stage_input("doc/in.txt", b"draft")
    with pas.process("blast") as blast:
        blast.read("doc/in.txt")
        blast.write("doc/out.txt", b"hits")
        blast.close("doc/out.txt")
    with pas.process("edit") as edit:
        edit.write("doc/out.txt", b"edited")
        edit.close("doc/out.txt")
    return pas.drain_flushes()


def test_the_oracle_follows_the_version_chain():
    trace = blast_then_blind_overwrite_trace()
    walker = AncestryWalker(bundle for event in trace for bundle in event.all_bundles())
    assert walker.descendants_of_outputs("blast") == {
        ObjectRef("doc/out.txt", 1),
        ObjectRef("doc/out.txt", 2),
    }


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="Q3 follows input edges only (ROADMAP caveat)"
)
@pytest.mark.parametrize("architecture", ["s3+simpledb", "s3+simpledb+sqs"])
def test_q3_matches_the_oracle_across_a_blind_overwrite(architecture):
    trace = blast_then_blind_overwrite_trace()
    sim = Simulation(architecture, seed=7)
    sim.store_events(trace, collect=False)
    sim.settle()
    walker = AncestryWalker(bundle for event in trace for bundle in event.all_bundles())
    refs = sim.query_engine().q3_descendants_of("blast").refs
    assert set(refs) == walker.descendants_of_outputs("blast")
