"""Event queue for the discrete-event simulation.

Events are ``(time, sequence, callback)`` triples kept in a binary heap.
The sequence number makes ordering deterministic when several events are
scheduled for the same microsecond: they fire in the order they were
scheduled, which keeps every experiment exactly reproducible run to run.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(order=True)
class Event:
    """A single scheduled callback.

    Attributes
    ----------
    time:
        Absolute virtual time (microseconds) at which the event fires.
    seq:
        Tie-breaker assigned by the queue; earlier-scheduled events fire
        first at equal times.
    callback:
        Callable invoked with no arguments when the event fires.
    cancelled:
        Cancelled events stay in the heap (cheap lazy deletion) but are
        skipped when popped.
    label:
        Optional human-readable tag used in traces and error messages.
    """

    time: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time arrives."""
        self.cancelled = True


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(
        self, time: int, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to run at absolute time ``time``.

        Returns the :class:`Event`, which the caller may later
        :meth:`Event.cancel`.
        """
        if time < 0:
            raise ValueError(f"cannot schedule event at negative time {time}")
        event = Event(time=int(time), seq=next(self._counter), callback=callback,
                      label=label)
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def next_time(self) -> Optional[int]:
        """Time of the earliest pending (non-cancelled) event, or ``None``."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0].time

    def pop_due(self, now: int) -> Optional[Event]:
        """Pop the earliest event with ``time <= now``, or ``None``."""
        self._drop_cancelled()
        if self._heap and self._heap[0].time <= now:
            event = heapq.heappop(self._heap)
            self._live -= 1
            return event
        return None

    def peek(self) -> Optional[Event]:
        """Return (without removing) the earliest pending event."""
        self._drop_cancelled()
        return self._heap[0] if self._heap else None

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
        self._live = 0

    def pending(self) -> list[Event]:
        """Snapshot of non-cancelled events in firing order.

        Introspection only (tests, tracing tools); popping still goes
        through :meth:`pop_due`.
        """
        return sorted(event for event in self._heap if not event.cancelled)

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._live -= 1


class EventCalendar(EventQueue):
    """The kernel's unified event calendar.

    One lazy min-heap (inherited from :class:`EventQueue`) holds every
    *scheduled* occurrence — one-shot timers, sleep and I/O wake-ups,
    workload arrivals and the controller's periodic tick — while
    *derived* transition times that would be expensive to keep
    materialised (a reservation scheduler's next replenishment, which
    moves on every charge) are merged in lazily from registered
    sources.  :meth:`next_transition` answers the one question the
    idle kernel asks: *when can the dispatch decision next change for a
    time-driven reason?* — letting ``run_until`` jump event-to-event
    instead of polling every quantum.
    """

    def __init__(self) -> None:
        super().__init__()
        self._sources: list[Callable[[int], Optional[int]]] = []

    def add_source(self, source: Callable[[int], Optional[int]]) -> None:
        """Register a lazy transition source (``now -> time or None``)."""
        self._sources.append(source)

    def next_transition(self, now: int) -> Optional[int]:
        """Earliest pending event or source-reported transition time."""
        earliest = self.next_time()
        for source in self._sources:
            t = source(now)
            if t is not None and (earliest is None or t < earliest):
                earliest = t
        return earliest


class PeriodicEvent:
    """A self-rescheduling event firing every ``period`` microseconds.

    Used for the controller's sampling loop and for trace samplers.  The
    callback receives the firing time.  The next firing is computed from
    the *nominal* schedule (start + k * period) rather than from the
    actual firing time, so long callbacks do not cause drift.
    """

    def __init__(
        self,
        queue: EventQueue,
        period: int,
        callback: Callable[[int], None],
        start: int = 0,
        label: str = "",
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._queue = queue
        self._period = int(period)
        self._callback = callback
        self._label = label
        self._next_time = int(start)
        self._stopped = False
        self._pending: Optional[Event] = None
        self._arm()

    @property
    def period(self) -> int:
        """Current firing period in microseconds."""
        return self._period

    @period.setter
    def period(self, value: int) -> None:
        if value <= 0:
            raise ValueError(f"period must be positive, got {value}")
        self._period = int(value)

    def stop(self) -> None:
        """Stop firing; any pending occurrence is cancelled."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _arm(self) -> None:
        if self._stopped:
            return
        self._pending = self._queue.schedule(
            self._next_time, self._fire, label=self._label
        )

    def _fire(self) -> None:
        if self._stopped:
            return
        fire_time = self._next_time
        self._next_time = fire_time + self._period
        self._arm()
        self._callback(fire_time)


__all__ = ["Event", "EventCalendar", "EventQueue", "PeriodicEvent"]
