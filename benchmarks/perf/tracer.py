"""Outside-in span tracer for the perf harness (host plane only).

The traced run wraps — from here, never from ``src/`` — the public
entry points of each layer's classes and records one in-memory span per
call: layer, name, start, end, the span that caused it, and the request
(the store/query op at the top of the call chain). A layer's *self
time* is its spans' duration minus the part of it their child spans
cover, so the per-layer self times of a sequential run sum to the
duration of the root spans.

Generators (``query_pages``, ``scan_pages``, ``iter_events`` …) return
before their work is done, so a wrapped call that returns a generator
is timed across iteration: every resume is its own ``name:next`` span.
Spans opened on a scatter worker thread attach to the span open on the
installing (client) thread — the query that dispatched the wave.

Wrappers only read ``time.perf_counter`` and append to a list; they
never touch the simulated clock, RNGs or the meter, which the harness
checks by comparing ``sim.usage()`` with tracing on and off.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.aws.backend import DynamoBackend, SimpleDBBackend
from repro.aws.billing import Meter
from repro.aws.dynamo import DynamoDBService
from repro.aws.elasticache import ReadCacheAuthority
from repro.aws.s3 import S3Service
from repro.aws.simpledb import SimpleDBService
from repro.aws.sqs import SQSService
from repro.core.base import ProvenanceCloudStore
from repro.core.coalesce import WriteCoalescer
from repro.core.daemons import CommitDaemon
from repro.core.s3_simpledb_sqs import S3SimpleDBSQS
from repro.migration.handle import RouterHandle
from repro.migration.live import LiveMigration
from repro.query.engine import SimpleDBEngine
from repro.query.planner import QueryPlanner
from repro.workloads import CombinedWorkload, DeepLineageWorkload, ZipfianFleetWorkload

#: Suffix of the per-resume spans of a generator-returning call.
RESUME = ":next"

#: Root layer of the spans the harness opens around ``Simulation``
#: calls; its self time is the glue (event loop, ``TraceStats``).
SIM = "sim"

#: Layers whose spans start a new request when opened directly under a
#: ``sim`` root: one id per ``store`` / query / migration step.
REQUEST_LAYERS = frozenset({"store", "engine", "migration"})

#: layer -> [(class, method names or None for every public method)].
CLASS_LAYERS: dict[str, list[tuple[type, tuple[str, ...] | None]]] = {
    "capture": [
        (CombinedWorkload, ("iter_events",)),
        (DeepLineageWorkload, ("iter_events",)),
        (ZipfianFleetWorkload, ("iter_events",)),
    ],
    "store": [(ProvenanceCloudStore, ("store",))],
    "coalesce": [(WriteCoalescer, ("put", "flush"))],
    "daemons": [(CommitDaemon, ("run_once", "drain")), (S3SimpleDBSQS, ("pump",))],
    "router": [(RouterHandle, ("write_plan", "read_site", "query_sites"))],
    "backend": [(SimpleDBBackend, None), (DynamoBackend, None)],
    "s3": [(S3Service, None)],
    "simpledb": [(SimpleDBService, None)],
    "sqs": [(SQSService, None)],
    "dynamo": [(DynamoDBService, None)],
    "elasticache": [(ReadCacheAuthority, None)],
    "meter": [
        (
            Meter,
            (
                "record_request",
                "record_transfer_in",
                "record_transfer_out",
                "record_capacity",
                "record_box_usage",
                "adjust_stored",
                "snapshot",
                "scoped",
            ),
        )
    ],
    "engine": [
        (
            SimpleDBEngine,
            ("q1", "q1_all", "q2_outputs_of", "q3_descendants_of", "q4_time_range"),
        )
    ],
    "planner": [(QueryPlanner, ("choose",))],
    "migration": [(LiveMigration, ("step",))],
}

#: layer -> [(module, function names)]: module-level entry points,
#: patched in every loaded ``repro`` module that imported them by name.
FUNCTION_LAYERS: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    "serializer": [
        (
            "repro.passlib.serializer",
            ("to_simpledb_items", "to_s3_metadata", "bundle_from_item"),
        )
    ],
    "wal": [("repro.core.wal", ("build_wal_bundle",))],
}

LAYERS: tuple[str, ...] = (SIM, *CLASS_LAYERS, *FUNCTION_LAYERS)


def _sites_in_plan(_self, _args, plan) -> int:
    return len(plan.sites)


def _left_unprocessed(_self, _args, unprocessed) -> int:
    return 1 if unprocessed else 0


def _deviates_from_first_fit(_self, args, chosen) -> int:
    backend, store, compiled, wanted = args
    if backend.kind == SimpleDBBackend.kind:
        return 0  # SimpleDB has exactly one access path
    return int(chosen[0] != backend.plan_first_fit(store, compiled, wanted))


#: (class, method) -> observer(instance, args, result) -> number, summed
#: into ``Tracer.observed["layer.method"]`` after the span has closed —
#: the counts the layers do not keep themselves.
OBSERVERS: dict[tuple[type, str], Callable] = {
    (RouterHandle, "write_plan"): _sites_in_plan,
    (DynamoDBService, "batch_write_item"): _left_unprocessed,
    (QueryPlanner, "choose"): _deviates_from_first_fit,
}


class Span:
    """One timed call (or generator resume) of a layer entry point."""

    __slots__ = ("layer", "name", "start", "end", "parent", "request")

    def __init__(self, layer: str, name: str, parent: "Span | None", request: int):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.request = request
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class LayerSummary:
    """Per-layer totals of one batch of spans."""

    self_seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Calls by (layer, method name) — resumes excluded.
    calls_by_name: dict[tuple[str, str], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    #: Sum of the durations of parentless spans: the traced total.
    root_seconds: float = 0.0

    def layer_calls(self, layer: str) -> int:
        return sum(n for (owner, _), n in self.calls_by_name.items() if owner == layer)


class Tracer:
    """Installs the layer wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: request id -> (layer, name) of the op that opened it.
        self.requests: list[tuple[str, str]] = []
        self.observed: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._client_thread = threading.current_thread()
        self._client_stack = self._stack()
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif (
            threading.current_thread() is not self._client_thread
            and self._client_stack
        ):
            # A scatter worker: caused by the query open on the client.
            parent = self._client_stack[-1]
        else:
            parent = None
        if parent is None or (layer in REQUEST_LAYERS and parent.layer == SIM):
            request = len(self.requests)
            self.requests.append((layer, name))
        else:
            request = parent.request
        span = Span(layer, name, parent, request)
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[Span]:
        opened = self.begin(layer, name)
        try:
            yield opened
        finally:
            self.end(opened)

    def drain(self) -> tuple[list[Span], dict[str, float]]:
        """Hand over the spans and observer sums recorded so far and
        start afresh (request ids keep counting)."""
        spans, self.spans = self.spans, []
        observed, self.observed = dict(self.observed), defaultdict(float)
        return spans, observed

    # -- wrapping ----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable, observer=None) -> Callable:
        """``fn`` recorded as a ``layer`` span per call, and per resume
        when it returns a generator."""
        tracer = self

        def resume_traced(generator):
            while True:
                span = tracer.begin(layer, name + RESUME)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if observer is not None:
                tracer.observed[f"{layer}.{name}"] += observer(
                    args[0], args[1:], result
                )
            if isinstance(result, types.GeneratorType):
                return resume_traced(result)
            return result

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for layer, targets in CLASS_LAYERS.items():
            for cls, names in targets:
                if names is None:
                    names = tuple(
                        name
                        for name, member in vars(cls).items()
                        if isinstance(member, types.FunctionType)
                        and not name.startswith("_")
                    )
                for name in names:
                    traced = self.wrap(
                        layer, name, vars(cls)[name], OBSERVERS.get((cls, name))
                    )
                    self._patch(cls, name, traced)
        for layer, targets in FUNCTION_LAYERS.items():
            for module_name, names in targets:
                home = sys.modules[module_name]
                for name in names:
                    original = getattr(home, name)
                    traced = self.wrap(layer, name, original)
                    for module in list(sys.modules.values()):
                        if (
                            getattr(module, "__name__", "").startswith("repro")
                            and getattr(module, name, None) is original
                        ):
                            self._patch(module, name, traced)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def summarize(spans: list[Span]) -> LayerSummary:
    """Fold spans into per-layer calls and self time (span − children)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    summary = LayerSummary()
    for span in spans:
        below = children.get(id(span))
        own = span.seconds - (_covered(below, span.start, span.end) if below else 0.0)
        summary.self_seconds[span.layer] += own
        if not span.name.endswith(RESUME):
            summary.calls_by_name[(span.layer, span.name)] += 1
        if span.parent is None:
            summary.root_seconds += span.seconds
    return summary


def dump_spans(spans: list[Span], path: str) -> None:
    """Write spans as JSON lines (index, parent index, request, times)."""
    index = {id(span): position for position, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as out:
        for position, span in enumerate(spans):
            record = {
                "id": position,
                "parent": index.get(id(span.parent)) if span.parent else None,
                "request": span.request,
                "layer": span.layer,
                "name": span.name,
                "start": span.start,
                "end": span.end,
            }
            out.write(json.dumps(record) + "\n")
