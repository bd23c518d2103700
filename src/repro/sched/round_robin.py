"""Round-robin scheduler.

The simplest baseline: every runnable thread gets one dispatch interval
in turn.  Used by unit tests that need a neutral dispatcher and by the
starvation-comparison benchmarks.

Thread membership and the runnable candidate list come from the shared
run-queue layer in :mod:`repro.sched.base` (O(1) add/remove, candidates
built from ready hints instead of scanning every registered thread).
Each CPU cycles through its own candidates (:meth:`Scheduler.rotate`;
the uniprocessor path rotates under ``cpu=None``).
"""

from __future__ import annotations

from typing import Optional

from repro.sched.base import Scheduler
from repro.sim.thread import SimThread


class RoundRobinScheduler(Scheduler):
    """Cycle through runnable threads, one time slice each."""

    SCHED_KEY = "rr"

    def __init__(self, slice_us: Optional[int] = None) -> None:
        super().__init__()
        self._slice_us = slice_us

    def pick_next(self, now: int, cpu: Optional[int] = None) -> Optional[SimThread]:
        runnable = self.dispatch_candidates(cpu)
        if not runnable:
            return None
        return self.rotate(runnable, cpu)

    def time_slice(self, thread: SimThread, now: int) -> int:
        if self._slice_us is not None:
            return self._slice_us
        return self.dispatch_interval_us


__all__ = ["RoundRobinScheduler"]
