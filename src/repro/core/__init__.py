"""The paper's contribution: three provenance-aware cloud architectures.

* :class:`~repro.core.s3_standalone.S3Standalone` — §4.1, provenance in
  S3 object metadata (atomic single PUT; inefficient query);
* :class:`~repro.core.s3_simpledb.S3SimpleDB` — §4.2, data in S3,
  provenance in SimpleDB with the MD5‖nonce consistency check (efficient
  query; atomicity violated on ill-timed crashes);
* :class:`~repro.core.s3_simpledb_sqs.S3SimpleDBSQS` — §4.3, same plus a
  per-client SQS write-ahead log, commit daemon, and cleaner daemon
  (all properties hold).

:data:`ARCHITECTURES` names them once, :func:`architecture_class` looks
one up by name and :func:`make_architecture` builds one — the registry
and the builder every driver (:mod:`repro.sim`, :mod:`repro.fleet`, the
test fixtures) goes through. Each store class also answers
``stored_bundles()``, the unmetered oracle of the provenance the cloud
durably holds, decoded (its keys are ``stored_provenance()``, the
object versions it covers).

:mod:`repro.properties` turns Table 1 into executable checks: a driver
like any other, it builds every world as a :class:`~repro.sim.Simulation`
and judges it through that oracle; :mod:`repro.advisor` hydrates from it.
"""

from repro.core.base import ProvenanceCloudStore, ReadResult, RetryPolicy
from repro.core.daemons import CleanerDaemon, CommitDaemon
from repro.core.s3_simpledb import S3SimpleDB
from repro.core.s3_simpledb_sqs import S3SimpleDBSQS
from repro.core.s3_standalone import S3Standalone

#: Paper name → store class: the one registry of the three architectures.
ARCHITECTURES = {
    store.name: store for store in (S3Standalone, S3SimpleDB, S3SimpleDBSQS)
}

#: Read re-issues a built store rides out eventual consistency with,
#: half a simulated second apart — 6 s in all, three times the default
#: 2 s replica-propagation window of ``ConsistencyConfig.eventual()``.
RETRY_ATTEMPTS = 12


def architecture_class(name: str) -> type[ProvenanceCloudStore]:
    """The store class with paper name ``name``."""
    if name not in ARCHITECTURES:
        raise ValueError(
            f"unknown architecture {name!r}; expected one of {sorted(ARCHITECTURES)}"
        )
    return ARCHITECTURES[name]


def make_architecture(name, account, **kwargs) -> ProvenanceCloudStore:
    """Build and provision the architecture with paper name ``name``.

    ``kwargs`` go to the store's constructor. Unless one of them is
    ``retry``, the store reads through a :data:`RETRY_ATTEMPTS`-attempt
    :class:`RetryPolicy` whose wait advances the account's simulated
    clock — a client sleeping between retries while replicas converge.
    """
    store_class = architecture_class(name)
    kwargs.setdefault(
        "retry",
        RetryPolicy(RETRY_ATTEMPTS, wait=lambda: account.clock.advance(0.5)),
    )
    store = store_class(account, **kwargs)
    store.provision()
    return store


__all__ = [
    "ProvenanceCloudStore",
    "ReadResult",
    "RetryPolicy",
    "S3Standalone",
    "S3SimpleDB",
    "S3SimpleDBSQS",
    "CommitDaemon",
    "CleanerDaemon",
    "ARCHITECTURES",
    "architecture_class",
    "make_architecture",
]
