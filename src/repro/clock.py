"""Simulated time.

All simulated AWS behaviour that depends on wall-clock time — replica
propagation delays (eventual consistency), SQS visibility timeouts, the
4-day message retention window, the cleaner daemon's temporary-object age
threshold, and byte-hour storage billing — reads time from one
:class:`SimClock` owned by the simulation world. Tests advance the clock
explicitly, which makes every consistency race in the paper reproducible
on demand instead of being a matter of luck.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterator


class SimClock:
    """A manually advanced monotonic clock with an event queue.

    The clock starts at ``epoch`` (default 0.0) and only moves when
    :meth:`advance` or :meth:`advance_to` is called. Callbacks scheduled
    with :meth:`call_at` fire, in timestamp order, as the clock sweeps
    past their deadline.
    """

    def __init__(self, epoch: float = 0.0):
        self._now = float(epoch)
        self._events: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run when the clock reaches ``when``.

        Deadlines in the past run on the next :meth:`advance` call of any
        size (including ``advance(0)``).
        """
        heapq.heappush(self._events, (float(when), next(self._counter), callback))

    def call_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.call_at(self._now + delay, callback)

    def advance(self, dt: float) -> None:
        """Move the clock forward by ``dt`` seconds, firing due events."""
        if dt < 0:
            raise ValueError(f"cannot move time backwards (dt={dt})")
        self.advance_to(self._now + dt)

    def advance_to(self, when: float) -> None:
        """Move the clock forward to absolute time ``when``."""
        if when < self._now:
            raise ValueError(
                f"cannot move time backwards (now={self._now}, target={when})"
            )
        # Fire events in deadline order, never moving _now past the target.
        # An event callback may schedule further events, including ones due
        # before `when`; the loop re-examines the heap each iteration.
        while self._events and self._events[0][0] <= when:
            deadline, _, callback = heapq.heappop(self._events)
            self._now = max(self._now, deadline)
            callback()
        self._now = when

    def run_until_idle(self, horizon: float | None = None) -> None:
        """Fire every scheduled event, advancing time as needed.

        This is the "quiesce" operation used to let eventual consistency
        converge: after it returns, every pending replica propagation has
        been applied. ``horizon`` bounds how far time may move.
        """
        while self._events:
            deadline = self._events[0][0]
            if horizon is not None and deadline > horizon:
                self.advance_to(horizon)
                return
            self.advance_to(max(deadline, self._now))
        if horizon is not None and horizon > self._now:
            self.advance_to(horizon)

    @property
    def pending_events(self) -> int:
        """Number of scheduled events that have not fired yet."""
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(now={self._now:.3f}, pending={len(self._events)})"


class Stopwatch:
    """Measures elapsed simulated time between two points.

    >>> clock = SimClock()
    >>> watch = Stopwatch(clock)
    >>> clock.advance(2.5)
    >>> watch.elapsed
    2.5
    """

    def __init__(self, clock: SimClock):
        self._clock = clock
        self._start = clock.now

    @property
    def elapsed(self) -> float:
        return self._clock.now - self._start

    def restart(self) -> float:
        """Return elapsed time and reset the start mark."""
        elapsed = self.elapsed
        self._start = self._clock.now
        return elapsed


def ticks(clock: SimClock, step: float, count: int) -> Iterator[float]:
    """Advance ``clock`` by ``step`` seconds ``count`` times, yielding time.

    A convenience for daemon loops in examples and benchmarks::

        for now in ticks(clock, step=1.0, count=60):
            daemon.run_once()
    """
    for _ in range(count):
        clock.advance(step)
        yield clock.now
