"""Learning workflow structure from stored provenance.

The provenance the architectures already store is a labelled DAG:
files ← processes ← files, with program names, arguments, and version
chains. :class:`WorkflowModel` distils from it the regularities a cloud
provider could exploit without understanding the science:

* **stage transitions** — program *A*'s outputs are read by program *B*
  (``blast → summarize``, ``cpp → cc1 → as``): the basis for prefetching
  a stage's other inputs when its first read arrives;
* **sibling groups** — outputs of one process instance are accessed
  together (a process writing ``.img`` + ``.hdr`` pairs);
* **derivation signatures** — (program, argv, input versions) tuples
  that deterministically identify a computation: two objects with equal
  signatures are duplicate results (dedup / memoisation candidates);
* **fan-out** — how many descendants an object has accumulated, a
  direct measure of how costly losing or evicting it would be.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.passlib.records import Attr, ObjectRef, ProvenanceBundle


@dataclass(frozen=True)
class DerivationSignature:
    """What produced an object: program + argv + exact input versions."""

    program: str
    argv: str
    inputs: tuple[str, ...]  # encoded ObjectRefs, sorted

    def digest(self) -> str:
        payload = "|".join((self.program, self.argv, *self.inputs))
        return hashlib.md5(payload.encode("utf-8")).hexdigest()


class WorkflowModel:
    """Aggregated workflow structure, incrementally built from bundles."""

    def __init__(self) -> None:
        #: program -> program transition counts (A's output read by B).
        self.transitions: Counter[tuple[str, str]] = Counter()
        #: process version -> file versions it wrote.
        self._outputs: dict[ObjectRef, set[ObjectRef]] = defaultdict(set)
        #: process version -> file versions it read.
        self._inputs: dict[ObjectRef, set[ObjectRef]] = defaultdict(set)
        #: file version -> the process version that wrote it.
        self._producer: dict[ObjectRef, ObjectRef] = {}
        #: process version -> program name.
        self._program: dict[ObjectRef, str] = {}
        #: process version -> argv string.
        self._argv: dict[ObjectRef, str] = {}
        #: file version -> direct dependents (files and processes).
        self._dependents: dict[ObjectRef, set[ObjectRef]] = defaultdict(set)
        self.bundles_ingested = 0

    # -- construction -------------------------------------------------------

    def ingest(self, bundle: ProvenanceBundle) -> None:
        """Fold one stored bundle into the model."""
        self.bundles_ingested += 1
        subject = bundle.subject
        if bundle.kind == "process":
            names = bundle.attribute_values(Attr.NAME)
            self._program[subject] = names[0] if names else subject.name
            argvs = bundle.attribute_values(Attr.ARGV)
            self._argv[subject] = argvs[0] if argvs else ""
            for parent in bundle.inputs():
                self._dependents[parent].add(subject)
                if not parent.name.startswith(("proc/", "pipe/")):
                    self._inputs[subject].add(parent)
                    # A file read by this program: credit a transition
                    # from the program that produced the file.
                    producer = self._producer.get(parent)
                    if producer is not None:
                        source = self._program.get(producer)
                        target = self._program.get(subject)
                        if source and target:
                            self.transitions[(source, target)] += 1
        elif bundle.kind == "file":
            for parent in bundle.inputs():
                self._dependents[parent].add(subject)
                if parent.name.startswith("proc/"):
                    self._producer[subject] = parent
                    self._outputs[parent].add(subject)

    def ingest_all(self, bundles: Iterable[ProvenanceBundle]) -> "WorkflowModel":
        for bundle in bundles:
            self.ingest(bundle)
        return self

    # -- queries ------------------------------------------------------------------

    def producer_of(self, file_ref: ObjectRef) -> ObjectRef | None:
        return self._producer.get(file_ref)

    def siblings_of(self, file_ref: ObjectRef) -> set[ObjectRef]:
        """Other outputs of the process that produced this file."""
        producer = self._producer.get(file_ref)
        if producer is None:
            return set()
        return self._outputs[producer] - {file_ref}

    def inputs_of_producer(self, file_ref: ObjectRef) -> set[ObjectRef]:
        """The files the producing process read (workflow co-access set)."""
        producer = self._producer.get(file_ref)
        if producer is None:
            return set()
        return set(self._inputs[producer])

    def likely_next_programs(self, program: str, limit: int = 3) -> list[str]:
        """Programs that historically consume ``program``'s outputs."""
        candidates = Counter()
        for (source, target), count in self.transitions.items():
            if source == program:
                candidates[target] += count
        return [name for name, _ in candidates.most_common(limit)]

    def fan_out(self, ref: ObjectRef) -> int:
        """Transitive dependent count (how much is built on this object)."""
        seen: set[ObjectRef] = set()
        frontier = [ref]
        while frontier:
            node = frontier.pop()
            for child in self._dependents.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return len(seen)

    def derivation_signature(self, file_ref: ObjectRef) -> DerivationSignature | None:
        """The computation that produced a file, if known."""
        producer = self._producer.get(file_ref)
        if producer is None:
            return None
        return DerivationSignature(
            program=self._program.get(producer, producer.name),
            argv=self._argv.get(producer, ""),
            inputs=tuple(sorted(r.encode() for r in self._inputs[producer])),
        )

    def duplicate_computations(self) -> list[list[ObjectRef]]:
        """Groups of files produced by identical computations.

        Deterministic tools given identical argv and identical input
        versions produce identical outputs — each group beyond its first
        member is redundant storage and redundant compute.
        """
        groups: dict[str, list[ObjectRef]] = defaultdict(list)
        for file_ref in self._producer:
            signature = self.derivation_signature(file_ref)
            if signature is not None and signature.inputs:
                groups[signature.digest()].append(file_ref)
        return sorted(
            (sorted(refs) for refs in groups.values() if len(refs) > 1),
            key=lambda group: group[0],
        )

    def co_access_components(self) -> list[set[str]]:
        """Connected groups of object *names* linked by one workflow step.

        Objects in one component are touched by the same process
        instances — natural co-placement units for a cloud provider.
        """
        parent: dict[str, str] = {}

        def find(name: str) -> str:
            parent.setdefault(name, name)
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        def union(a: str, b: str) -> None:
            root_a, root_b = find(a), find(b)
            if root_a != root_b:
                parent[root_b] = root_a

        for process, outputs in self._outputs.items():
            touched = [r.name for r in outputs] + [
                r.name for r in self._inputs.get(process, ())
            ]
            for name in touched[1:]:
                union(touched[0], name)
        components: dict[str, set[str]] = defaultdict(set)
        for name in parent:
            components[find(name)].add(name)
        return sorted(components.values(), key=lambda c: (-len(c), sorted(c)[0]))

    def __len__(self) -> int:
        return self.bundles_ingested
