"""Turning the workflow model into cloud-side hints.

:class:`ProvenanceAdvisor` is the component a provenance-aware cloud
would run next to its object store. It is built from bundles: a trace's
(tests), or the ones a cloud already holds,
:meth:`~repro.core.base.ProvenanceCloudStore.stored_bundles` — §7's
observation that the provenance "presents AWS cloud with many hints".
The model does not depend on the order the bundles arrive in.

Four kinds of advice:

* :meth:`prefetch_for` — on a GET, which objects to stage next
  (workflow siblings and the producing stage's other inputs);
* :meth:`dedup_report` — computations stored more than once;
* :meth:`eviction_plan` — cold objects ranked by (no dependents, age);
* :meth:`placement_groups` — co-access components to co-locate.
"""

from __future__ import annotations

from typing import Iterable

from repro.advisor.model import WorkflowModel
from repro.passlib.records import ObjectRef, ProvenanceBundle


class ProvenanceAdvisor:
    """Provenance-derived optimisation hints for a cloud store."""

    def __init__(self, model: WorkflowModel):
        self.model = model

    # -- construction ----------------------------------------------------

    @classmethod
    def from_bundles(cls, bundles: Iterable[ProvenanceBundle]) -> "ProvenanceAdvisor":
        return cls(WorkflowModel().ingest_all(bundles))

    # -- advice -----------------------------------------------------------------

    def prefetch_for(self, ref: ObjectRef, limit: int = 8) -> tuple[ObjectRef, ...]:
        """Objects worth staging when ``ref`` is fetched.

        Ranked: outputs written alongside it (siblings are near-certain
        co-access), then the rest of its producing stage's input set
        (re-runs read them together), then nothing speculative — the
        advisor only suggests objects provenance actually links.
        """
        suggestions: list[ObjectRef] = []
        for sibling in sorted(self.model.siblings_of(ref)):
            suggestions.append(sibling)
        for co_input in sorted(self.model.inputs_of_producer(ref)):
            if co_input != ref and co_input not in suggestions:
                suggestions.append(co_input)
        return tuple(suggestions[:limit])

    def dedup_report(self) -> tuple[tuple[ObjectRef, ...], ...]:
        """Groups of objects produced by byte-identical computations."""
        return tuple(tuple(group) for group in self.model.duplicate_computations())

    def eviction_plan(
        self, candidates: Iterable[ObjectRef], keep_fraction: float = 0.5
    ) -> tuple[ObjectRef, ...]:
        """Rank candidates for eviction: fewest dependents first.

        Objects nothing was ever derived from are cheapest to lose — any
        consumer could re-fetch them; objects with deep descendant trees
        anchor reproducibility and should stay hot.
        """
        ranked = sorted(candidates, key=lambda r: (self.model.fan_out(r), r))
        cut = int(len(ranked) * (1.0 - keep_fraction))
        return tuple(ranked[:cut])

    def placement_groups(self, min_size: int = 2) -> tuple[tuple[str, ...], ...]:
        """Object-name groups a provider should co-locate."""
        return tuple(
            tuple(sorted(component))
            for component in self.model.co_access_components()
            if len(component) >= min_size
        )
