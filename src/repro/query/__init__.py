"""Provenance query engines over the two storage backends.

The paper's Table 3 compares three queries on two backends:

* :class:`~repro.query.engine.S3ScanEngine` — provenance lives in object
  metadata, so every query degenerates to a full repository scan (a HEAD
  per object plus a GET per spilled value);
* :class:`~repro.query.engine.SimpleDBEngine` — provenance lives in
  indexed SimpleDB items, so queries are selective; ancestry (Q3) still
  requires client-side iteration because SimpleDB has no recursion.

:func:`~repro.query.engine.query_engine_for` picks between them by the
store class's ``has_provenance_domain``. Both engines measure
themselves through the account meter, so the operation/byte counts
they report are exactly what the simulated services billed.
"""

from repro.query.ancestry import AncestryWalker
from repro.query.engine import (
    QueryMeasurement,
    S3ScanEngine,
    SimpleDBEngine,
    query_engine_for,
)

__all__ = [
    "QueryMeasurement",
    "S3ScanEngine",
    "SimpleDBEngine",
    "AncestryWalker",
    "query_engine_for",
]
