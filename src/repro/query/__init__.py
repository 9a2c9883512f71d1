"""The provenance query engine over the three architectures.

The paper's Table 3 compares three queries on two backends; one engine,
:class:`~repro.query.engine.SimpleDBEngine`, answers them all as phases
over a layout's sites:

* on A2/A3, provenance lives in indexed SimpleDB (or DynamoDB-style)
  items, so phases are selective; ancestry (Q3) still requires
  client-side iteration because SimpleDB has no recursion;
* on A1, provenance lives in object metadata, so the one site, the data
  bucket, has one access path: a full repository scan (a HEAD per
  object plus a GET per spilled value), taken once per query, whose
  rows every phase then filters.

:meth:`repro.sim.Cloud.query_engine` hands the engine its sites by the
store class's ``has_provenance_domain``. The engine measures itself
through the account meter, so the operation/byte counts it reports are
exactly what the simulated services billed.
"""

from repro.query.ancestry import AncestryWalker
from repro.query.engine import QueryMeasurement, SimpleDBEngine

__all__ = [
    "QueryMeasurement",
    "SimpleDBEngine",
    "AncestryWalker",
]
