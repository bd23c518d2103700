"""Mutexes.

Not a symbiotic interface — mutexes carry no progress information — but
required to reproduce the priority-inversion scenario that motivates
the paper (the Mars Pathfinder resets): a high-priority thread blocks
on a mutex held by a low-priority thread that is starved by
medium-priority work.

Lock/unlock blocking is implemented by the kernel; the mutex only holds
its owner and FIFO waiter list, plus counters used by the inversion
experiment to quantify blocking time.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.thread import SimThread


class Mutex:
    """A simple blocking mutual-exclusion lock."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.owner: Optional["SimThread"] = None
        #: FIFO of blocked acquirers (deque: the kernel hands the lock
        #: to the head with an O(1) ``popleft``).
        self.waiters: deque["SimThread"] = deque()
        self.acquisitions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        holder = self.owner.name if self.owner else None
        return f"Mutex(name={self.name!r}, owner={holder!r}, waiters={len(self.waiters)})"


__all__ = ["Mutex"]
