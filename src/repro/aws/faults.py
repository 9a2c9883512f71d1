"""Fault injection: client crashes at protocol points, transient errors.

The paper's property analysis (§3–4) is all about what happens when a
client dies between protocol steps: *"Consider the case where a client
records data and crashes before recording the provenance"*. To make those
scenarios first-class and testable, every architecture protocol in
:mod:`repro.core` executes through named **fault points**::

    self.faults.check("a2.store.after_simpledb_put")

A :class:`FaultPlan` armed for that point raises
:class:`~repro.errors.ClientCrash` there, leaving all service state
exactly as a real power failure would. Plans can also crash at the *N*-th
point encountered regardless of name, which is how the property-based
tests sweep "crash anywhere in the protocol".

:class:`RequestFaults` injects *service-side* transient failures
(``ServiceUnavailable``) so retry loops and the idempotency arguments of
§4.3 can be exercised; :func:`call_with_retries` is the one retry loop
that rides them out — the backend adapters and the architecture
protocols both issue their requests through it.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import ClientCrash, ServiceUnavailable


class FaultPlan:
    """Decides whether the client crashes at each named protocol point.

    A fresh plan is inert. Arm it with :meth:`crash_at` (crash when a
    specific point is reached, optionally only on its *k*-th visit) or
    :meth:`crash_at_call` (crash at the *n*-th ``check`` call overall).
    Every visited point is appended to :attr:`log`, so a dry run with an
    inert plan enumerates the protocol's crash surface.
    """

    def __init__(self) -> None:
        self.log: list[str] = []
        self._by_point: dict[str, int] = {}
        self._visits: Counter[str] = Counter()
        self._crash_call: int | None = None
        self._calls = 0

    # -- arming -----------------------------------------------------------

    def crash_at(self, point: str, visit: int = 1) -> "FaultPlan":
        """Crash when ``point`` is reached for the ``visit``-th time."""
        if visit < 1:
            raise ValueError(f"visit must be >= 1, got {visit}")
        self._by_point[point] = visit
        return self

    def crash_at_call(self, n: int) -> "FaultPlan":
        """Crash at the ``n``-th fault-point check, whatever its name."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self._crash_call = n
        return self

    def disarm(self) -> None:
        """Clear all armed crashes (the log is preserved)."""
        self._by_point.clear()
        self._crash_call = None

    # -- checking ---------------------------------------------------------

    def check(self, point: str) -> None:
        """Record the visit and crash if this point is armed."""
        self._calls += 1
        self._visits[point] += 1
        self.log.append(point)
        if self._crash_call is not None and self._calls == self._crash_call:
            self._crash_call = None
            raise ClientCrash(point)
        armed_visit = self._by_point.get(point)
        if armed_visit is not None and self._visits[point] == armed_visit:
            del self._by_point[point]
            raise ClientCrash(point)

    @property
    def points_seen(self) -> list[str]:
        """Distinct points visited, in first-visit order."""
        seen: list[str] = []
        for point in self.log:
            if point not in seen:
                seen.append(point)
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(armed={sorted(self._by_point)}, "
            f"crash_call={self._crash_call}, visited={len(self.log)})"
        )


#: Shared inert plan for callers that do not inject faults.
NO_FAULTS = FaultPlan()


class RequestFaults:
    """Service-side transient failure injection.

    Services consult :meth:`before_request` at the top of each API call;
    if a failure is armed for that (service, op) pair the call raises
    :class:`~repro.errors.ServiceUnavailable` *before* mutating state,
    modelling the retryable 503s AWS clients must tolerate.
    """

    def __init__(self) -> None:
        self._armed: Counter[tuple[str, str]] = Counter()
        self._any: Counter[str] = Counter()
        self.failures_injected = 0

    def fail_next(self, service: str, op: str | None = None, times: int = 1) -> None:
        """Arm the next ``times`` requests to ``service`` (or one op) to fail."""
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        if op is None:
            self._any[service] += times
        else:
            self._armed[(service, op)] += times

    def before_request(self, service: str, op: str) -> None:
        if self._armed[(service, op)] > 0:
            self._armed[(service, op)] -= 1
            self.failures_injected += 1
            raise ServiceUnavailable(f"{service}.{op} transiently unavailable")
        if self._any[service] > 0:
            self._any[service] -= 1
            self.failures_injected += 1
            raise ServiceUnavailable(f"{service}.{op} transiently unavailable")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        armed = {f"{s}.{o}": n for (s, o), n in self._armed.items() if n}
        armed.update({f"{s}.*": n for s, n in self._any.items() if n})
        return f"RequestFaults(armed={armed}, injected={self.failures_injected})"


def call_with_retries(fn, *args, attempts: int = 4, **kwargs):
    """Issue a service request, riding out transient 503s.

    AWS SDK behaviour: ``ServiceUnavailable`` is raised *before* the
    service mutates state, so immediately re-issuing the request is
    always safe. Bounded attempts — a persistently failing service
    surfaces the error to the caller (whose crash the WAL architecture
    then absorbs).
    """
    for attempt in range(attempts):
        try:
            return fn(*args, **kwargs)
        except ServiceUnavailable:
            if attempt == attempts - 1:
                raise
    raise AssertionError("unreachable")  # pragma: no cover
