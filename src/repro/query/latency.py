"""Modeled query latency: per-request round trips and pool makespan.

The paper's §5 latency story is round-trip dominated: every SimpleDB
request is one HTTP exchange, so a query that issues R requests
one-at-a-time pays ~R round trips ("SimpleDB ... has to retrieve each
item ... then lookup further ancestors"). The sharded engine's
scatter-gather changes the *shape* of that cost — per-shard request
streams are independent, so a client dispatching them ``concurrency``
at a time pays the **critical path** (the slowest shard stream per
phase) instead of the sum.

This module turns metered activity into modeled seconds:

* :class:`QueryLatencyModel` prices one request stream from its meter
  scope — a fixed 2009-flavoured round trip per operation class plus
  transfer time at a modeled downlink bandwidth;
* :func:`makespan` schedules a wave of task durations onto a bounded
  set of workers (list scheduling in submission order) and returns the
  wall-clock the wave would take — ``workers=1`` degenerates to the
  sequential sum, ``workers >= tasks`` to the max.

The numbers are a *model* (the simulation's services answer instantly,
and the engine always executes a wave's streams one after another);
their value is relative: the same model prices the sequential and the
``concurrency``-wide dispatch of the same request streams, which is
exactly the comparison ``benchmarks/bench_concurrent_gather.py`` plots.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.aws import billing
from repro.aws.billing import MeterScope, Usage

#: Modeled round-trip seconds per (service, operation), ~2009 WAN numbers:
#: SimpleDB answers from an index in tens of milliseconds; S3 metadata
#: operations are comparable; LIST and data GETs pay more server time.
DEFAULT_RTT: Mapping[tuple[str, str], float] = {
    (billing.SDB, "GetAttributes"): 0.012,
    (billing.SDB, "PutAttributes"): 0.020,
    (billing.SDB, "DeleteAttributes"): 0.020,
    (billing.SDB, "Query"): 0.025,
    (billing.SDB, "QueryWithAttributes"): 0.030,
    (billing.SDB, "CreateDomain"): 0.150,
    (billing.SDB, "DeleteDomain"): 0.150,
    (billing.S3, "GET"): 0.040,
    (billing.S3, "HEAD"): 0.025,
    (billing.S3, "PUT"): 0.045,
    (billing.S3, "COPY"): 0.045,
    (billing.S3, "LIST"): 0.060,
    (billing.S3, "DELETE"): 0.025,
    # The read-cache tier answers from node memory inside the region —
    # an order of magnitude under any backend round trip, which is the
    # whole latency argument for fronting hot reads with it.
    (billing.ELASTICACHE, "Get"): 0.001,
    (billing.ELASTICACHE, "Put"): 0.001,
}


@dataclass(frozen=True)
class QueryLatencyModel:
    """Prices a request stream in modeled seconds.

    ``stream_seconds`` assumes the stream issues its requests strictly
    one after another (the engine's per-shard streams do): latency is
    the sum of per-request round trips plus response payload time at
    ``bandwidth_bytes_per_s``.
    """

    rtt: Mapping[tuple[str, str], float] = field(default_factory=lambda: DEFAULT_RTT)
    default_rtt: float = 0.025
    bandwidth_bytes_per_s: float = 8 * 1024 * 1024  # ~64 Mbit/s downlink

    def stream_seconds(self, usage: Usage | MeterScope) -> float:
        """Modeled wall-clock for one sequential request stream, priced
        from its :class:`Usage` or straight off its meter scope (both
        list requests in ``(service, op)`` order, so the float sum is
        the same either way)."""
        seconds = 0.0
        for (service, op), count in usage.requests:
            seconds += self.rtt.get((service, op), self.default_rtt) * count
        seconds += usage.transfer_out() / self.bandwidth_bytes_per_s
        return seconds


#: The model every engine uses unless a caller substitutes its own.
DEFAULT_LATENCY_MODEL = QueryLatencyModel()


def makespan(durations: Sequence[float], workers: int) -> float:
    """Modeled wall-clock for one wave of tasks at width ``workers``.

    List scheduling: tasks start in submission order, each on the worker
    that frees up first — what a FIFO pool of ``workers`` threads would
    do with the wave. This is the only place the engine's
    ``concurrency`` acts: the wave itself executes sequentially in
    submission order, and this prices the overlap a client that wide
    would get.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not durations:
        return 0.0
    if workers == 1:
        return sum(durations)
    free_at = [0.0] * min(workers, len(durations))
    for duration in durations:
        start = heapq.heappop(free_at)
        heapq.heappush(free_at, start + duration)
    return max(free_at)
