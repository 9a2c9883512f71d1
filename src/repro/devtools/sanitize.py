"""Opt-in runtime sanitizer: lock-order recording + meter-scope auditing.

Enabled by setting ``REPRO_SANITIZE=1`` (any value other than empty or
``"0"``). Two instruments share this module's violation registry:

**Lock order.** :func:`repro.concurrency.new_lock` normally returns a
plain ``threading.RLock``. Under the sanitizer it returns an
:class:`OrderedLock` shim that keeps a per-thread stack of held
sanitized locks and checks every acquisition against the documented
partial order (``repro/concurrency.py``):

    service lock (rank 10)  →  meter lock (rank 20)  →  leaf (rank 30)

A thread may only acquire a lock of *strictly higher* rank than every
sanitized lock it already holds (re-entrant re-acquisition of the same
lock object is always fine). Taking a second service lock while holding
one, or any lock while holding a leaf lock, records a violation —
the interleavings that could deadlock the scatter-gather pool if the
coarse-locking model ever regresses.

**Meter attribution.** The sharded query engine attributes per-shard
spend with ``Meter.scoped`` thread-local contexts. While a query is in
flight the engine brackets its request streams with
``Meter.expect_scope()``; if the sanitizer is on and a metered record
lands on a thread inside that bracket with *no* active scope, the spend
would silently vanish from ``per_shard`` accounting — an
unattributed-spend leak, recorded here.

Violations are **recorded, not raised**: the suite runs to completion
and the test harness (``tests/conftest.py``) fails any test whose run
grew the registry, which localises the offending interleaving. With
``REPRO_SANITIZE`` unset every hook in this module is inert and the
meter's behaviour is byte-identical to the unsanitized build
(``tests/unit/test_sanitize.py`` pins that).

This module deliberately imports nothing from the simulation (only
``os``/``threading``), so the sanitizer can never perturb the world it
observes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.knobs import env_default

#: Environment variable that switches the sanitizer on.
SANITIZE_ENV = "REPRO_SANITIZE"

#: Lock ranks by order class — the documented partial order. Acquiring
#: rank r while holding rank >= r (on a different lock) is a violation.
LOCK_RANKS = {"service": 10, "meter": 20, "leaf": 30}


def enabled() -> bool:
    """True when ``REPRO_SANITIZE`` asks for the sanitizer."""
    return env_default(SANITIZE_ENV) not in ("", "0")


@dataclass(frozen=True)
class Violation:
    """One recorded sanitizer finding."""

    kind: str        # "lock-order" | "unattributed-spend"
    message: str
    thread: str

    def render(self) -> str:
        return f"[{self.kind}] {self.message} (thread {self.thread})"


# The registry. list.append is atomic under the GIL, which is all the
# recording path needs; reads copy. reset() swaps in a fresh list so a
# test can scope its assertions without racing late appends from pool
# threads of an earlier test.
_violations: list[Violation] = []

_local = threading.local()


def record(kind: str, message: str) -> None:
    """Record one violation (never raises — the suite must run on)."""
    _violations.append(
        Violation(kind=kind, message=message, thread=threading.current_thread().name)
    )


def violations() -> tuple[Violation, ...]:
    """Everything recorded since the last :func:`reset`."""
    return tuple(_violations)


def reset() -> None:
    """Clear the registry (test isolation)."""
    global _violations
    _violations = []


def _held_stack() -> list["OrderedLock"]:
    stack = getattr(_local, "held", None)
    if stack is None:
        stack = _local.held = []
    return stack


class OrderedLock:
    """A re-entrant lock that records acquisition order per thread.

    Drop-in for the ``threading.RLock`` surface the codebase uses
    (``acquire``/``release``/context manager). Each instance carries the
    rank of its order class; on acquisition the shim checks the calling
    thread's stack of held sanitized locks and records a lock-order
    violation when the documented partial order would be broken. The
    underlying lock is still taken either way — the sanitizer observes,
    it does not alter scheduling.
    """

    _counter = 0
    _counter_lock = threading.Lock()

    __slots__ = ("_lock", "order", "rank", "name")

    def __init__(self, order: str, name: str | None = None):
        if order not in LOCK_RANKS:
            raise ValueError(
                f"unknown lock order {order!r}; expected one of {sorted(LOCK_RANKS)}"
            )
        self._lock = threading.RLock()
        self.order = order
        self.rank = LOCK_RANKS[order]
        if name is None:
            with OrderedLock._counter_lock:
                OrderedLock._counter += 1
                name = f"{order}#{OrderedLock._counter}"
        self.name = name

    def _check_order(self) -> None:
        held = _held_stack()
        if not held or any(lock is self for lock in held):
            return  # first lock, or a re-entrant acquisition
        worst = max(held, key=lambda lock: lock.rank)
        if self.rank <= worst.rank:
            record(
                "lock-order",
                f"acquired {self.name} (rank {self.rank}) while holding "
                f"{worst.name} (rank {worst.rank}); documented order is "
                "service -> meter -> leaf",
            )

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._check_order()
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            _held_stack().append(self)
        return acquired

    def release(self) -> None:
        held = _held_stack()
        for index in range(len(held) - 1, -1, -1):
            if held[index] is self:
                del held[index]
                break
        self._lock.release()

    def __enter__(self) -> "OrderedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OrderedLock({self.name}, rank={self.rank})"
