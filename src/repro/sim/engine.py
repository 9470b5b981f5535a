"""The discrete-event simulation engine.

A :class:`Simulator` owns a simulated clock and a priority queue of pending
events.  Events scheduled for the same instant fire in the order they were
scheduled (FIFO tie-breaking via a monotonically increasing sequence number),
which keeps every run bit-for-bit deterministic — a property the whole
evaluation relies on for paired strategy comparisons.

Times are floats in **seconds**.  The engine enforces causality: an event may
never be scheduled in the past.

With ``REPRO_SANITIZE=1`` in the environment the engine additionally
asserts heap order on every pop and maintains a determinism digest of the
executed event sequence (see :mod:`repro.sim.sanitize`).  The digest
changes whenever a change adds or removes events, even if every output
stays the same; the behaviour gate for a refactor is the payload content
digest (``perfbench/reference.json``, ``tests/test_event_golden.py``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.sanitize import (
    DeterminismDigest,
    HeapOrderError,
    sanitizer_enabled,
)


class SimulationError(RuntimeError):
    """Raised for engine misuse (scheduling in the past, running twice...)."""


class Event(list):
    """A handle for a scheduled callback, and its own heap entry.

    Returned by :meth:`Simulator.call_at` / :meth:`Simulator.call_in`; the
    holder may :meth:`cancel` it before it fires.  Cancellation is O(1): the
    event is flagged and skipped when popped.

    The event is the list ``[time, seq, callback, args]``, so ``heapq``
    orders the queue with C list comparison.  ``seq`` is unique per
    simulator, so two entries always differ by ``(time, seq)`` and the
    callback is never compared.
    """

    __slots__ = ("cancelled",)

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: Tuple[Any, ...]):
        list.__init__(self, (time, seq, callback, args))
        self.cancelled = False

    @property
    def time(self) -> float:
        """Scheduled simulated time in seconds."""
        return self[0]

    @time.setter
    def time(self, value: float) -> None:
        self[0] = value

    @property
    def seq(self) -> int:
        """Scheduling order: the FIFO tie-break among equal times."""
        return self[1]

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """An event-driven simulator with a float clock (seconds).

    Usage::

        sim = Simulator()
        sim.call_in(0.02, handler, packet)
        sim.run(until=120.0)
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: List[Event] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        #: number of events executed so far (observability / tests)
        self.events_executed = 0
        #: high-water mark of the pending-event queue (observability)
        self.peak_queue_depth = 0
        # Sanitizer state is resolved once at construction so the hot loop
        # pays a single attribute check when disabled.
        self._sanitize = sanitizer_enabled()
        self._digest: Optional[DeterminismDigest] = \
            DeterminismDigest() if self._sanitize else None

    @property
    def sanitizing(self) -> bool:
        """True when this simulator was built with ``REPRO_SANITIZE=1``."""
        return self._sanitize

    def determinism_digest(self) -> Optional[str]:
        """Digest of the event sequence executed so far.

        Two runs of the same scenario and seed must return the same
        string; a mismatch means nondeterminism leaked in.  ``None``
        unless the sanitizer is enabled.
        """
        return self._digest.hexdigest() if self._digest else None

    @property
    def now(self) -> float:
        """The current simulated time in seconds."""
        return self._now

    def call_at(self, time: float, callback: Callable[..., Any],
                *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule event at t={time:.9f} < now={self._now:.9f}")
        if time < self._now:
            time = self._now
        event = Event(time, next(self._seq), callback, args)
        queue = self._queue
        heapq.heappush(queue, event)
        if len(queue) > self.peak_queue_depth:
            self.peak_queue_depth = len(queue)
        return event

    def call_in(self, delay: float, callback: Callable[..., Any],
                *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, callback, *args)

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        queue = self._queue
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Execute the single next event.  Returns False if queue is empty."""
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)
            if event.cancelled:
                continue
            time, seq, callback, args = event
            if self._digest is not None:
                self._check_order(time)
                self._digest.update(time, seq, callback)
            self._now = time
            callback(*args)
            self.events_executed += 1
            return True
        return False

    def _check_order(self, time: float) -> None:
        if time < self._now - 1e-12:
            raise HeapOrderError(
                f"event queue yielded t={time:.9f} after the "
                f"clock reached t={self._now:.9f}; an Event.time "
                "was mutated after scheduling or the heap was "
                "corrupted")

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Events scheduled exactly at ``until`` still fire.  Returns the final
        simulated time (``until`` if the horizon was reached with events
        still pending).
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        queue = self._queue
        digest = self._digest
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        try:
            # One loop over the queue head: cancelled entries are dropped
            # (also past the horizon, as peek() does), live ones unpacked
            # and dispatched.
            while queue and not self._stopped:
                event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    continue
                time, seq, callback, args = event
                if time > horizon:
                    self._now = horizon
                    break
                heappop(queue)
                if digest is not None:
                    self._check_order(time)
                    digest.update(time, seq, callback)
                self._now = time
                callback(*args)
                self.events_executed += 1
            if until is not None and self._now < until and not queue:
                self._now = until
        finally:
            self._running = False
        return self._now

    def record_metrics(self, registry: Any, **labels: Any) -> None:
        """Flush engine telemetry into a ``MetricsRegistry``.

        Call once, after the run: the counter increment is the run's
        cumulative event count, so counters merge additively across
        runs while the peak-depth gauge keeps last-write semantics.
        ``registry`` is typed loosely to keep the engine importable
        without :mod:`repro.obs`.
        """
        registry.counter("sim.events_executed", **labels).inc(
            self.events_executed)
        registry.gauge("sim.peak_queue_depth", **labels).set(
            self.peak_queue_depth)
        registry.gauge("sim.final_time_s", **labels).set(self._now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self._now:.6f} pending={len(self._queue)} "
                f"executed={self.events_executed}>")
