"""One AWS account wiring together clock, services, metering, and faults.

:class:`AWSAccount` is the root object examples and tests construct. It
owns the simulated clock, a seeded RNG family (one independent stream per
service, so runs are reproducible and services do not perturb each
other), the billing meter, and the three services.

``ConsistencyConfig`` chooses how adversarial the cloud is:

* ``ConsistencyConfig.strong()`` — replication is instantaneous; used by
  unit tests that are not about consistency races;
* ``ConsistencyConfig.eventual()`` — the paper's world: replica
  propagation takes up to ``window`` simulated seconds and SQS receives
  sample a subset of hosts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aws.billing import Meter, PriceBook
from repro.aws.consistency import DelayModel, make_rng_family
from repro.aws.dynamo import DynamoDBService
from repro.aws.elasticache import build_read_cache
from repro.aws.faults import RequestFaults
from repro.aws.s3 import S3Service
from repro.aws.simpledb import SimpleDBService
from repro.aws.sqs import SQSService
from repro.clock import SimClock


@dataclass(frozen=True)
class ConsistencyConfig:
    """How eventually consistent the simulated cloud is."""

    window: float = 0.0            # max replica propagation delay (seconds)
    immediate_fraction: float = 0.5  # writes that land instantly anyway
    n_replicas: int = 3
    sqs_hosts: int = 8
    sqs_sample_fraction: float = 0.75

    @classmethod
    def strong(cls) -> "ConsistencyConfig":
        """Instantaneous replication; SQS still samples all hosts."""
        return cls(window=0.0, n_replicas=1, sqs_sample_fraction=1.0)

    @classmethod
    def eventual(
        cls, window: float = 2.0, immediate_fraction: float = 0.5
    ) -> "ConsistencyConfig":
        """The adversarial model used for the paper's consistency races."""
        return cls(window=window, immediate_fraction=immediate_fraction)

    def delay_model(self) -> DelayModel:
        return DelayModel(
            min_delay=0.0,
            max_delay=self.window,
            immediate_fraction=self.immediate_fraction,
        )


class AWSAccount:
    """A simulated AWS account: S3 + SimpleDB + SQS + billing + clock."""

    def __init__(
        self,
        seed: int = 0,
        consistency: ConsistencyConfig | None = None,
        prices: PriceBook | None = None,
        ddb_indexes: str | tuple | None = None,
        read_cache: str | bool | int | None = None,
    ):
        """``ddb_indexes`` and ``read_cache`` are the two deployment
        knobs (documented on :class:`repro.sim.Cloud`) that the account
        itself holds. Beyond the spec strings described there,
        ``ddb_indexes`` accepts ready :class:`~repro.aws.dynamo.IndexSpec`
        objects (grammar: :func:`repro.aws.backend.parse_index_specs`)
        and ``read_cache`` accepts ``True``/``False`` or an option spec
        like ``"capacity=65536,staleness=2.5"``
        (:mod:`repro.aws.elasticache`)."""
        self.consistency = consistency or ConsistencyConfig.strong()
        self.clock = SimClock()
        self.meter = Meter(self.clock)
        self.prices = prices or PriceBook()
        self.request_faults = RequestFaults()
        rng_for = make_rng_family(seed)
        delays = self.consistency.delay_model()
        self.s3 = S3Service(
            self.clock,
            rng_for("s3"),
            self.meter,
            faults=self.request_faults,
            delays=delays,
            n_replicas=self.consistency.n_replicas,
        )
        self.simpledb = SimpleDBService(
            self.clock,
            rng_for("simpledb"),
            self.meter,
            faults=self.request_faults,
            delays=delays,
            n_replicas=self.consistency.n_replicas,
        )
        self.sqs = SQSService(
            self.clock,
            rng_for("sqs"),
            self.meter,
            faults=self.request_faults,
            host_count=self.consistency.sqs_hosts,
            sample_fraction=self.consistency.sqs_sample_fraction,
        )
        # The DynamoDB-style provenance store (heterogeneous placement);
        # its own RNG stream so adding it never perturbs the 2009 trio.
        self.dynamodb = DynamoDBService(
            self.clock,
            rng_for("dynamodb"),
            self.meter,
            faults=self.request_faults,
            delays=delays,
            n_replicas=self.consistency.n_replicas,
        )
        self._ddb_indexes = ddb_indexes
        self._provenance_backends = None
        #: The read-cache authority fronting the provenance backends, or
        #: ``None`` when the tier is off (the default): consumers gate
        #: every cache touch on this being non-None, so the off path
        #: records nothing and stays byte-identical on the meter.
        self.read_cache = build_read_cache(read_cache, self.clock, self.meter)

    def provenance_backends(self):
        """Backend adapters by kind ({"sdb": ..., "ddb": ...}) — what a
        :class:`~repro.sharding.ShardRouter` placement map names."""
        if self._provenance_backends is None:
            from repro.aws.backend import DynamoBackend, SimpleDBBackend

            self._provenance_backends = {
                SimpleDBBackend.kind: SimpleDBBackend(self.simpledb),
                DynamoBackend.kind: DynamoBackend(
                    self.dynamodb, index_specs=self._ddb_indexes
                ),
            }
        return self._provenance_backends

    def quiesce(self, horizon: float | None = None) -> None:
        """Advance simulated time until all replica propagation lands.

        After this returns, every replica agrees with the authoritative
        state — the "eventual" in eventual consistency has arrived.
        """
        self.clock.run_until_idle(horizon)

    def bill(self) -> "str":
        """Render the account's USD bill so far."""
        return self.prices.cost(self.meter.snapshot()).render()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AWSAccount(now={self.clock.now:.1f}s, "
            f"window={self.consistency.window}s)"
        )
