"""Virtual time.

All simulation time is kept as an integer number of microseconds since
the start of the simulation.  Integer time makes the simulation exactly
reproducible (no floating point drift when summing many small dispatch
intervals) and matches the paper's discussion of accounting
granularity: the prototype dispatches on a 1 ms timer but Section 4.3
considers microsecond-granularity accounting, which this clock supports
directly.
"""

from __future__ import annotations

#: Microseconds per millisecond, exposed for readability in configs.
US_PER_MS = 1_000

#: Microseconds per second.
US_PER_SEC = 1_000_000


def ms(value: float) -> int:
    """Convert milliseconds to integer microseconds."""
    return int(round(value * US_PER_MS))


def seconds(value: float) -> int:
    """Convert seconds to integer microseconds."""
    return int(round(value * US_PER_SEC))


def to_seconds(us: int) -> float:
    """Convert integer microseconds to floating-point seconds."""
    return us / US_PER_SEC


class SimClock:
    """A monotonically non-decreasing virtual clock.

    The clock can only move forward; attempts to move it backwards
    indicate a bug in the event loop and raise ``ValueError``.
    """

    __slots__ = ("_now",)

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start before zero, got {start}")
        self._now = int(start)

    @property
    def now(self) -> int:
        """Current virtual time in microseconds."""
        return self._now

    def advance_to(self, t: int) -> None:
        """Move the clock forward to absolute time ``t`` microseconds."""
        if t < self._now:
            raise ValueError(
                f"clock cannot move backwards: now={self._now}, requested={t}"
            )
        self._now = int(t)

    def advance_by(self, delta: int) -> None:
        """Move the clock forward by ``delta`` microseconds."""
        if delta < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta}")
        self._now += int(delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now}us)"
