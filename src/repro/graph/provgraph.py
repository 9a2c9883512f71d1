"""The provenance DAG, backed by networkx.

Built from flush events (or raw bundles), :class:`ProvenanceGraph` is the
library's ground truth: tests compare the cloud query engines against
its closures, the versioning property tests assert acyclicity on it, and
the workload statistics (Table 2 inputs) are computed from it.

Edges run **descendant → ancestor** (an ``input`` record is an edge from
the subject to the input), matching the paper's reading of provenance as
"the complete ancestry of a data set".
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from repro.passlib.records import Attr, FlushEvent, ObjectRef, ProvenanceBundle


class ProvenanceGraph:
    """A versioned provenance DAG with typed nodes."""

    def __init__(self) -> None:
        self._graph = nx.DiGraph()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[FlushEvent]) -> "ProvenanceGraph":
        graph = cls()
        for event in events:
            graph.add_event(event)
        return graph

    @classmethod
    def from_bundles(cls, bundles: Iterable[ProvenanceBundle]) -> "ProvenanceGraph":
        graph = cls()
        for bundle in bundles:
            graph.add_bundle(bundle)
        return graph

    def add_event(self, event: FlushEvent) -> None:
        for bundle in event.all_bundles():
            self.add_bundle(bundle)
        self._graph.nodes[event.subject]["data_size"] = event.data.size

    def add_bundle(self, bundle: ProvenanceBundle) -> None:
        subject = bundle.subject
        self._graph.add_node(subject, kind=bundle.kind)
        names = bundle.attribute_values(Attr.NAME)
        if names:
            self._graph.nodes[subject]["name"] = names[0]
        for record in bundle.records:
            if record.attribute in Attr.REF_VALUED and isinstance(
                record.value, ObjectRef
            ):
                self._graph.add_edge(subject, record.value, label=record.attribute)
                self._graph.nodes[record.value].setdefault("kind", "unknown")

    # -- structure queries -----------------------------------------------------

    @property
    def nx(self) -> nx.DiGraph:
        """The underlying networkx graph (read it, do not mutate it)."""
        return self._graph

    def nodes(self, kind: str | None = None) -> list[ObjectRef]:
        if kind is None:
            return sorted(self._graph.nodes)
        return sorted(
            node
            for node, attrs in self._graph.nodes(data=True)
            if attrs.get("kind") == kind
        )

    def kind(self, ref: ObjectRef) -> str:
        return self._graph.nodes[ref].get("kind", "unknown")

    def is_acyclic(self) -> bool:
        return nx.is_directed_acyclic_graph(self._graph)

    def ancestors(self, ref: ObjectRef) -> set[ObjectRef]:
        """All transitive inputs (descendant→ancestor edges point 'down')."""
        return nx.descendants(self._graph, ref)

    def descendants(self, ref: ObjectRef) -> set[ObjectRef]:
        """All transitive dependents."""
        return nx.ancestors(self._graph, ref)

    def instances_of(self, program: str) -> list[ObjectRef]:
        return sorted(
            node
            for node, attrs in self._graph.nodes(data=True)
            if attrs.get("kind") == "process" and attrs.get("name") == program
        )

    def outputs_of(self, program: str) -> set[ObjectRef]:
        """Q2 oracle on the graph."""
        outputs: set[ObjectRef] = set()
        for instance in self.instances_of(program):
            for dependent in self._graph.predecessors(instance):
                if self.kind(dependent) == "file":
                    outputs.add(dependent)
        return outputs

    def descendants_of_outputs(self, program: str) -> set[ObjectRef]:
        """Q3 oracle on the graph."""
        seeds = self.outputs_of(program)
        results = set(seeds)
        for seed in seeds:
            for node in self.descendants(seed):
                if self.kind(node) == "file":
                    results.add(node)
        return results

    # -- statistics (feed the analysis module) --------------------------------------

    def version_counts(self) -> dict[str, int]:
        """Number of stored versions per object name."""
        counts: dict[str, int] = {}
        for node in self._graph.nodes:
            counts[node.name] = max(counts.get(node.name, 0), node.version)
        return counts

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def __contains__(self, ref: ObjectRef) -> bool:
        return ref in self._graph
