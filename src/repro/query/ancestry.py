"""The one in-memory lineage index over provenance bundles.

:class:`AncestryWalker` answers lineage questions over any collection of
provenance bundles — the in-memory analogue of the queries §5 runs
against the cloud backends. Edges are the bundles' ``input`` and
``prev_version`` references; no other module keeps its own copy of the
graph. Its readers:

* the A1 scan engine (:class:`repro.query.engine.S3ScanEngine`), which
  answers Q2/Q3 by walking the bundles it scanned;
* Table 1's causal-ordering and efficient-query checks
  (:mod:`repro.properties`), which judge a store's
  ``stored_provenance()`` against it;
* :func:`repro.graph.export.lineage_dot`, which draws one object's
  ancestry;
* :class:`repro.advisor.model.WorkflowModel`, whose ``fan_out`` counts
  a version's descendants;
* the perf harness and the tests, as the ground-truth Q2/Q3 oracle the
  cloud engines must agree with, and the examples' audit scenarios
  (e.g. "which data sets were produced by the flawed tool version?").
"""

from __future__ import annotations

from typing import Iterable

from repro.passlib.records import Attr, ObjectRef, ProvenanceBundle


class AncestryWalker:
    """Indexes bundles by subject and by input edge for fast traversal."""

    def __init__(self, bundles: Iterable[ProvenanceBundle]):
        self._bundles: dict[ObjectRef, ProvenanceBundle] = {}
        self._children: dict[ObjectRef, set[ObjectRef]] = {}
        for bundle in bundles:
            self.add(bundle)

    def add(self, bundle: ProvenanceBundle) -> None:
        self._bundles[bundle.subject] = bundle
        for parent in bundle.inputs():
            self._children.setdefault(parent, set()).add(bundle.subject)

    # -- lookups -----------------------------------------------------------

    def bundle(self, ref: ObjectRef) -> ProvenanceBundle | None:
        return self._bundles.get(ref)

    def subjects(self) -> list[ObjectRef]:
        return sorted(self._bundles)

    def find(self, attribute: str, value: str) -> list[ObjectRef]:
        """Subjects carrying ``attribute == value`` (e.g. name='blast')."""
        return sorted(
            subject
            for subject, bundle in self._bundles.items()
            if value in bundle.attribute_values(attribute)
        )

    def instances_of(self, program: str) -> list[ObjectRef]:
        """Process versions of ``program``."""
        return sorted(
            subject
            for subject, bundle in self._bundles.items()
            if bundle.kind == "process"
            and program in bundle.attribute_values(Attr.NAME)
        )

    # -- traversal ------------------------------------------------------------

    def parents(self, ref: ObjectRef) -> list[ObjectRef]:
        return sorted(self._inputs_of(ref))

    def children(self, ref: ObjectRef) -> list[ObjectRef]:
        return sorted(self._dependents_of(ref))

    def ancestors(self, ref: ObjectRef) -> set[ObjectRef]:
        """Transitive inputs of ``ref`` (excluding ``ref`` itself)."""
        return self._closure((ref,), self._inputs_of)

    def descendants(self, ref: ObjectRef) -> set[ObjectRef]:
        """Transitive dependents of ``ref`` (excluding ``ref`` itself)."""
        return self._closure((ref,), self._dependents_of)

    def _inputs_of(self, ref: ObjectRef) -> Iterable[ObjectRef]:
        bundle = self._bundles.get(ref)
        return bundle.inputs() if bundle else ()

    def _dependents_of(self, ref: ObjectRef) -> Iterable[ObjectRef]:
        return self._children.get(ref, ())

    def _closure(self, refs: Iterable[ObjectRef], step) -> set[ObjectRef]:
        """Nodes one or more ``step``s from any of ``refs``, walked in
        whatever order ``step`` yields them (the result is a set)."""
        seen: set[ObjectRef] = set()
        frontier = [node for ref in refs for node in step(ref)]
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(step(node))
        return seen

    # -- the paper's queries, as oracle computations ------------------------------

    def outputs_of(self, program: str) -> set[ObjectRef]:
        """Q2 oracle: files directly output by ``program`` instances."""
        instances = set(self.instances_of(program))
        return {
            subject
            for subject, bundle in self._bundles.items()
            if bundle.kind == "file"
            and any(parent in instances for parent in bundle.inputs())
        }

    def descendants_of_outputs(self, program: str) -> set[ObjectRef]:
        """Q3 oracle: Q2's files plus every file downstream of them."""
        seeds = self.outputs_of(program)
        results = set(seeds)
        for node in self._closure(seeds, self._dependents_of):
            bundle = self._bundles.get(node)
            if bundle is not None and bundle.kind == "file":
                results.add(node)
        return results

    def is_causally_closed(self, visible: set[ObjectRef]) -> bool:
        """Causal-ordering check: every ancestor of a visible node is visible.

        References to objects the walker has never seen (external inputs)
        do not count against closure — only known-but-missing ancestors do.
        """
        for ref in visible:
            bundle = self._bundles.get(ref)
            if bundle is None:
                continue
            for parent in bundle.inputs():
                if parent in self._bundles and parent not in visible:
                    return False
        return True

    def __len__(self) -> int:
        return len(self._bundles)
