"""Turning the workflow model into cloud-side hints.

:class:`ProvenanceAdvisor` is the component a provenance-aware cloud
would run next to its object store. It can be fed directly from bundles
(tests) or hydrated from a live SimpleDB provenance domain (the realistic
deployment: the cloud already holds these items — §7's observation that
the provenance "presents AWS cloud with many hints").

Four kinds of advice:

* :meth:`prefetch_for` — on a GET, which objects to stage next
  (workflow siblings, the producing stage's other inputs, and the
  historical next stage's inputs);
* :meth:`dedup_report` — computations stored more than once;
* :meth:`eviction_plan` — cold objects ranked by (no dependents, age);
* :meth:`placement_groups` — co-access components to co-locate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable

from repro.advisor.model import WorkflowModel
from repro.aws.account import AWSAccount
from repro.aws.backend import SDB_KIND
from repro.core.base import PROV_DOMAIN, fetch_overflow
from repro.passlib.records import ObjectRef, ProvenanceBundle
from repro.passlib.serializer import bundle_from_item


@dataclass(frozen=True)
class CloudAdvice:
    """One batch of hints for the storage layer."""

    prefetch: tuple[ObjectRef, ...] = ()
    dedup_groups: tuple[tuple[ObjectRef, ...], ...] = ()
    evict: tuple[ObjectRef, ...] = ()
    placement_groups: tuple[tuple[str, ...], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (
            self.prefetch or self.dedup_groups or self.evict or self.placement_groups
        )


class ProvenanceAdvisor:
    """Provenance-derived optimisation hints for a cloud store."""

    def __init__(self, model: WorkflowModel | None = None):
        self.model = model or WorkflowModel()

    # -- construction ----------------------------------------------------

    @classmethod
    def from_bundles(cls, bundles: Iterable[ProvenanceBundle]) -> "ProvenanceAdvisor":
        return cls(WorkflowModel().ingest_all(bundles))

    @classmethod
    def from_simpledb(
        cls, account: AWSAccount, domain: str = PROV_DOMAIN
    ) -> "ProvenanceAdvisor":
        """Hydrate from the provenance a cloud already stores.

        Walks the domain with the same paginated queries clients use —
        the advisor needs no special access, only what §4.2 put there.
        """
        advisor = cls()
        backend = account.provenance_backends()[SDB_KIND]
        fetch = partial(fetch_overflow, account)
        for item_name, attrs in backend.enumerate_items(domain):
            if attrs:
                advisor.model.ingest(bundle_from_item(item_name, attrs, fetch))
        return advisor

    def observe(self, bundle: ProvenanceBundle) -> None:
        """Online update as new provenance arrives (store-path hook)."""
        self.model.ingest(bundle)

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

    def advise(self, read_ref: ObjectRef | None = None) -> CloudAdvice:
        """One-shot combined advice (used by the replay evaluator)."""
        return CloudAdvice(
            prefetch=self.prefetch_for(read_ref) if read_ref else (),
            dedup_groups=self.dedup_report(),
            placement_groups=self.placement_groups(),
        )
