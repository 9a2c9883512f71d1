"""Extension: a provenance-aware cloud (the paper's §7 future work).

"AWS is currently agnostic of the metadata. The provenance stored with
the data presents AWS cloud with many hints about the application
storing the data. In the future, we plan to investigate how a cloud
might take advantage of this provenance."

This subpackage is that investigation, built on the reproduction:

* :mod:`repro.advisor.model` — learns workflow structure from stored
  provenance: which programs read which programs' outputs, sibling
  output groups, ancestry fan-out;
* :mod:`repro.advisor.advisor` — turns the model into actionable cloud
  hints: prefetch candidates on GET, duplicate-computation detection,
  eviction scoring, and co-placement groups.

A provider hydrates it from what any cloud holds, whatever the
architecture, layout or backend:
``ProvenanceAdvisor.from_bundles(store.stored_bundles().values())``.
"""

from repro.advisor.advisor import ProvenanceAdvisor
from repro.advisor.model import WorkflowModel

__all__ = ["ProvenanceAdvisor", "WorkflowModel"]
