"""Fixed-priority scheduler.

Models the "real-time priorities" offered by Linux, Solaris and NT that
the paper criticises in Sections 1 and 2: the highest-priority runnable
thread always runs, so lower-priority threads can be starved
indefinitely and priority inversion (the Mars Pathfinder failure mode)
is possible when a high-priority thread blocks on a mutex held by a
starved low-priority thread.

``priority_inheritance=True`` enables the classic Sha/Rajkumar/Lehoczky
priority-inheritance protocol [18] that the Pathfinder team used as a
fix, so the inversion experiment can demonstrate all three
configurations the paper discusses: broken fixed priorities, fixed
priorities patched with inheritance, and the paper's progress-based
approach that avoids the problem structurally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sched.base import Scheduler
from repro.sim.thread import SimThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.ipc.mutex import Mutex


class FixedPriorityScheduler(Scheduler):
    """Strict fixed-priority preemptive scheduling.

    Higher ``SimThread.priority`` values win.  Threads of equal
    priority share the CPU round-robin, one dispatch interval at a
    time, in each CPU's own rotation.
    """

    SCHED_KEY = "fixed_priority"

    def __init__(self, *, priority_inheritance: bool = False) -> None:
        super().__init__()
        self.priority_inheritance = priority_inheritance
        #: Original priorities of threads currently boosted by inheritance.
        self._base_priority: dict[int, int] = {}

    # ------------------------------------------------------------------
    # priority inheritance hooks
    # ------------------------------------------------------------------
    def on_mutex_block(self, thread: SimThread, mutex: "Mutex", now: int) -> None:
        super().on_mutex_block(thread, mutex, now)
        if not self.priority_inheritance:
            return
        owner = mutex.owner
        if owner is None or owner.priority >= thread.priority:
            return
        if owner.tid not in self._base_priority:
            self._base_priority[owner.tid] = owner.priority
        owner.priority = thread.priority

    def on_mutex_release(self, thread: SimThread, mutex: "Mutex", now: int) -> None:
        super().on_mutex_release(thread, mutex, now)
        if not self.priority_inheritance:
            return
        base = self._base_priority.pop(thread.tid, None)
        if base is not None:
            thread.priority = base

    def on_mutex_unblock(self, thread: SimThread, mutex: "Mutex", now: int) -> None:
        """A waiter was forcibly removed: recompute the owner's boost.

        Without this, killing the high-priority waiter would leave the
        owner running at the dead thread's priority for the rest of its
        critical section.  The boost is recomputed from the waiters
        still queued (the same single-mutex fidelity as the block/
        release handlers above).
        """
        super().on_mutex_unblock(thread, mutex, now)
        if not self.priority_inheritance:
            return
        owner = mutex.owner
        if owner is None:
            return
        base = self._base_priority.get(owner.tid)
        if base is None:
            return
        boosted = max((w.priority for w in mutex.waiters), default=base)
        if boosted <= base:
            self._base_priority.pop(owner.tid, None)
            owner.priority = base
        else:
            owner.priority = boosted

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def pick_next(self, now: int, cpu: Optional[int] = None) -> Optional[SimThread]:
        runnable = self.dispatch_candidates(cpu)
        if not runnable:
            return None
        # Single pass: track the top priority and its cohort together
        # (the cohort keeps candidate order, so round-robin among
        # equal-priority threads is unchanged).
        top = runnable[0].priority
        cohort = [runnable[0]]
        for thread in runnable[1:]:
            priority = thread.priority
            if priority > top:
                top = priority
                cohort = [thread]
            elif priority == top:
                cohort.append(thread)
        return self.rotate(cohort, cpu)


__all__ = ["FixedPriorityScheduler"]
