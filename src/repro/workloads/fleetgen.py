"""Fleet-traffic workloads: hot-key skew and diurnal burstiness.

The §5 workloads are uniform batch jobs; the ROADMAP north star is
fleet traffic from many tenants, where a few objects take most of the
writes (Zipf's law) and arrival rates swing with the clock. These two
generators produce that shape deterministically:

* :class:`ZipfianFleetWorkload` — N tenants × K keys, with both the
  tenant and the key for each operation drawn from a Zipf distribution
  of configurable exponent ``s``. Hot keys accumulate long version
  chains (read-modify-write), which is exactly the traffic that decides
  whether the read-cache tier and group commit pay for themselves.
* :class:`DiurnalBurstWorkload` — wraps any workload's event stream in
  a sinusoidal rate envelope over the simulated clock: inter-arrival
  times are exponential draws whose rate follows a day-shaped curve, so
  capture arrives in bursts at the peak and trickles in the trough.

Both are pure functions of the seeded RNG handed to ``iter_events``
(PL003): no wall clock, no module-level random state.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Iterator, Sequence

from repro.passlib.records import FlushEvent, ObjectRef
from repro.workloads import base

#: Service programs a tenant operation runs (the Q2/Q3 probe targets).
SERVICES = ("ingest", "transform", "report")


def zipf_cdf(n: int, s: float) -> list[float]:
    """Cumulative distribution of a Zipf law over ranks ``1..n``."""
    if n < 1:
        raise ValueError(f"need at least one rank, got {n}")
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf: list[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight
        cdf.append(acc / total)
    cdf[-1] = 1.0  # guard against float round-down at the tail
    return cdf


def zipf_pick(rng: random.Random, cdf: Sequence[float]) -> int:
    """Draw a 0-based rank from a precomputed Zipf CDF."""
    return bisect.bisect_left(cdf, rng.random())


class ZipfianFleetWorkload(base.Workload):
    """Multi-tenant read-modify-write traffic with Zipfian hot keys."""

    name = "zipfian-fleet"

    def __init__(
        self,
        n_tenants: int = 6,
        keys_per_tenant: int = 24,
        n_ops: int = 150,
        s: float = 1.1,
        median_bytes: int = 20_000,
    ):
        if s < 0:
            raise ValueError(f"the Zipf exponent must be >= 0, got {s}")
        self.n_tenants = n_tenants
        self.keys_per_tenant = keys_per_tenant
        self.n_ops = n_ops
        self.s = s
        self.median_bytes = median_bytes

    def iter_events(self, rng: random.Random, scale: float = 1.0) -> Iterator[FlushEvent]:
        pas = base.make_system(self.name)
        n_ops = max(1, int(self.n_ops * scale))
        tenant_cdf = zipf_cdf(self.n_tenants, self.s)
        key_cdf = zipf_cdf(self.keys_per_tenant, self.s)

        staged: set[str] = set()
        written: set[str] = set()
        for op in range(n_ops):
            tenant = zipf_pick(rng, tenant_cdf)
            key = zipf_pick(rng, key_cdf)
            config_path = f"fleet/t{tenant:03d}/config.yaml"
            if config_path not in staged:
                pas.stage_input(
                    config_path, base.content(rng, rng.randint(400, 1200), config_path)
                )
                staged.add(config_path)
                yield from pas.drain_flushes()

            key_path = f"fleet/t{tenant:03d}/k{key:03d}.dat"
            service = SERVICES[rng.randrange(len(SERVICES))]
            with pas.process(
                service,
                argv=f"--tenant {tenant} --key {key} --op {op}",
                env=base.synth_env(rng, base.env_size(rng)),
            ) as proc:
                proc.read(config_path)
                if key_path in written:
                    # Read-modify-write: the new version's provenance
                    # references the previous one, so hot keys grow the
                    # long version chains skew is famous for.
                    proc.read(key_path)
                proc.write(
                    key_path,
                    base.content(
                        rng, base.lognormal_size(rng, self.median_bytes, 0.6), key_path
                    ),
                )
                proc.close(key_path)
            written.add(key_path)
            yield from pas.drain_flushes()
            if (op + 1) % 256 == 0:
                pas.trim_flushed()

    def sample_read_refs(
        self, rng: random.Random, refs: Sequence[ObjectRef], n: int
    ) -> list[ObjectRef]:
        """Point reads follow the same Zipf law as the writes.

        Sorted object names put tenant 0 / key 0 — the hottest writers —
        at the low ranks, so read traffic concentrates on exactly the
        keys the write side made hot (and the read cache should absorb).
        """
        pool = sorted(refs)
        if not pool:
            return []
        cdf = zipf_cdf(len(pool), self.s)
        return [pool[zipf_pick(rng, cdf)] for _ in range(n)]


class DiurnalBurstWorkload(base.Workload):
    """A day-shaped arrival-rate envelope over an inner workload.

    The inner workload supplies the events; this wrapper assigns each
    one an inter-arrival delay drawn from an exponential distribution
    whose rate follows ``rate_at`` — a sinusoid between ``base_rate``
    (the overnight trough) and ``base_rate * peak_ratio`` (the daily
    peak). ``Simulation.run_workload`` advances the simulated clock by
    each delay before storing (a ``cloud advance`` step), so capture
    genuinely arrives in bursts.
    """

    name = "diurnal-burst"

    def __init__(
        self,
        inner: base.Workload | None = None,
        period: float = 86_400.0,
        base_rate: float = 0.05,
        peak_ratio: float = 8.0,
    ):
        if base_rate <= 0:
            raise ValueError(f"base_rate must be > 0, got {base_rate}")
        if peak_ratio < 1:
            raise ValueError(f"peak_ratio must be >= 1, got {peak_ratio}")
        self.inner = inner or ZipfianFleetWorkload()
        self.period = period
        self.base_rate = base_rate
        self.peak_ratio = peak_ratio

    def rate_at(self, t: float) -> float:
        """Arrival rate (events/second) at simulated time ``t``."""
        phase = 0.5 * (1.0 + math.sin(2.0 * math.pi * t / self.period - math.pi / 2.0))
        return self.base_rate * (1.0 + (self.peak_ratio - 1.0) * phase)

    def iter_timed_events(
        self, rng: random.Random, scale: float = 1.0
    ) -> Iterator[tuple[float, FlushEvent]]:
        inner_rng = random.Random(
            f"{self.inner.name}#{self.inner.instance_salt}:{rng.random():.17f}"
        )
        t = 0.0
        for event in self.inner.iter_events(inner_rng, scale):
            delay = rng.expovariate(self.rate_at(t))
            t += delay
            yield delay, event

    def iter_events(self, rng: random.Random, scale: float = 1.0) -> Iterator[FlushEvent]:
        for _, event in self.iter_timed_events(rng, scale):
            yield event

    def sample_read_refs(
        self, rng: random.Random, refs: Sequence[ObjectRef], n: int
    ) -> list[ObjectRef]:
        return self.inner.sample_read_refs(rng, refs, n)
