"""Discrete-event simulation core.

A minimal event-heap simulator: callbacks are scheduled at absolute
simulated times and executed in time order (FIFO among equal times).  All
higher layers -- instance boots, task completions, segueing timeouts --
are expressed as events on this heap, so simulated results are completely
deterministic for a given seed and independent of wall-clock time.

``schedule`` / ``schedule_at`` return an :class:`EventHandle` that can be
passed to :meth:`Simulator.cancel`.  Cancellation is lazy: the entry stays
on the heap but is skipped (and not counted) when its time comes.  This is
what keep-alive timers need -- a warm instance that gets reused cancels
its pending expiry and schedules a fresh one on the next release.

Lazy cancellation is bounded: the simulator counts dead entries and
compacts the heap once they outnumber the live ones, so workloads that
cancel at scale (lease revocation under fault injection cancels every
outstanding task completion and timeout of the revoked query) cannot
bloat the heap with tombstones, and a handle cancelled mid-drain -- e.g.
by a revocation firing inside :meth:`Simulator.run_before` between two
columnar arrival groups -- never fires and never perturbs the drain's
stopping bound.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

__all__ = ["DEFAULT_EVENT_BUDGET", "EventHandle", "Simulator"]

#: The shared event-budget fuse: every drain loop (``run`` / ``run_until``
#: / ``run_before`` here, the step loop in
#: :func:`repro.engine.runner.run_query`, the serving replay drain)
#: bounds itself by this many processed events unless the caller passes
#: an explicit ``max_events``.  Hitting the budget means the model is
#: almost certainly re-scheduling itself in a loop -- the error says so
#: loudly instead of spinning forever.
DEFAULT_EVENT_BUDGET = 10_000_000


def _budget_exhausted(context: str, budget: int) -> RuntimeError:
    return RuntimeError(
        f"event budget exhausted: {context} processed {budget} events "
        "without quiescing -- likely an event loop in the model (a "
        "callback re-scheduling itself forever); pass a larger "
        "max_events if the workload is genuinely this large"
    )


class EventHandle:
    """A cancellation token for one scheduled event."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:g}, {state})"


class Simulator:
    """An event heap with a simulated clock."""

    #: Compaction only kicks in past this many dead entries, so small
    #: simulations never pay the rebuild.
    _COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self._n_dead = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        handle = EventHandle(time, callback)
        heapq.heappush(self._heap, (time, next(self._sequence), handle))
        return handle

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a scheduled event; returns whether it was still pending.

        Cancelling an already-fired or already-cancelled handle is a no-op
        (returns ``False``), so callers may cancel defensively.
        """
        if handle.cancelled:
            return False
        handle.cancelled = True
        # A dead event drops its callback, and with it any reference
        # cycle through the closure (a callback that captures the
        # object holding its own handle), so the state it captured is
        # freed by reference counting instead of waiting for the
        # cyclic collector.
        handle.callback = None
        self._n_dead += 1
        if (
            self._n_dead > self._COMPACT_MIN_DEAD
            and self._n_dead * 2 > len(self._heap)
        ):
            self._compact()
        return True

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Heap order is ``(time, sequence)`` tuples, so filtering preserves
        relative ordering of the survivors exactly; amortised over the
        cancellations that triggered it, this is O(1) per cancel.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._n_dead = 0

    def step(self) -> bool:
        """Process the next live event; return ``False`` if none remain."""
        while self._heap:
            time, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                self._n_dead -= 1
                continue
            self._now = time
            self._events_processed += 1
            handle.cancelled = True  # fired events cannot be cancelled
            callback, handle.callback = handle.callback, None  # see cancel()
            callback()
            return True
        return False

    def run(self, max_events: int = DEFAULT_EVENT_BUDGET) -> None:
        """Drain the event heap (bounded by ``max_events`` as a fuse)."""
        for _ in range(max_events):
            if not self.step():
                return
        raise _budget_exhausted("Simulator.run", max_events)

    def run_until(self, time: float, max_events: int = DEFAULT_EVENT_BUDGET) -> None:
        """Process events up to simulated ``time`` (inclusive).

        Repeated calls with the same ``time`` are idempotent no-ops: the
        first call drains every event at or before ``time`` and advances
        the clock, so subsequent calls find nothing to do and return
        immediately.  Only strictly earlier times are rejected.
        """
        if time < self._now:
            raise ValueError("cannot run backwards in time")
        for _ in range(max_events):
            if not self._peek_live() or self._heap[0][0] > time:
                self._now = max(self._now, time)
                return
            self.step()
        raise _budget_exhausted("Simulator.run_until", max_events)

    def run_before(self, time: float, max_events: int = DEFAULT_EVENT_BUDGET) -> None:
        """Process events *strictly* before simulated ``time``.

        Events at exactly ``time`` stay pending and the clock lands on
        ``time``.  The serving replay drain relies on this ordering
        condition: it calls ``run_before(t)`` and then fires the arrival
        group due at ``t`` synchronously, so arrival groups fire before
        same-time runtime events (pool boots, completions, epoch ticks).
        """
        if time < self._now:
            raise ValueError("cannot run backwards in time")
        for _ in range(max_events):
            if not self._peek_live() or self._heap[0][0] >= time:
                self._now = max(self._now, time)
                return
            self.step()
        raise _budget_exhausted("Simulator.run_before", max_events)

    def _peek_live(self) -> bool:
        """Drop cancelled entries from the heap top; report liveness."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
            self._n_dead -= 1
        return bool(self._heap)

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still on the heap."""
        return len(self._heap) - self._n_dead
