"""repro — reproduction of "Making a Cloud Provenance-Aware" (TaPP '09).

Public API highlights:

* :class:`repro.aws.AWSAccount` — the simulated cloud (S3, SimpleDB, SQS,
  billing, eventual consistency).
* :class:`repro.passlib.PassSystem` — the PASS provenance capture layer.
* :mod:`repro.core` — the three provenance-aware storage architectures
  (``S3Standalone``, ``S3SimpleDB``, ``S3SimpleDBSQS``).
* :mod:`repro.workloads` — Linux-compile / Blast / Provenance-Challenge
  trace generators.
* :mod:`repro.query` — the Q1/Q2/Q3 query engine over both backends.
* :class:`repro.sharding.ShardRouter` — consistent-hash sharding of the
  provenance domain across N SimpleDB domains (scatter-gather queries).
* :mod:`repro.migration` — online shard migration: the
  :class:`~repro.migration.RouterHandle` routing-epoch indirection and
  the :class:`~repro.migration.LiveMigration`
  copy/double-write/catch-up/cutover/drop state machine.
* :mod:`repro.analysis` — the paper's §5 storage/query cost models and
  table renderers.
"""

__version__ = "1.1.0"

from repro.aws.account import AWSAccount, ConsistencyConfig
from repro.blob import Blob, BytesBlob, SyntheticBlob, as_blob
from repro.clock import SimClock
from repro.migration import RouterHandle
from repro.sharding import ShardRouter

__all__ = [
    "AWSAccount",
    "ConsistencyConfig",
    "Blob",
    "BytesBlob",
    "SyntheticBlob",
    "as_blob",
    "SimClock",
    "RouterHandle",
    "ShardRouter",
    "__version__",
]
