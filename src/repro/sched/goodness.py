"""Stock Linux 2.0 goodness scheduler.

The paper builds its reservation dispatcher on top of Linux 2.0.35's
scheduler, which keeps one run queue and picks the runnable thread with
the highest *goodness*.  For ordinary time-sharing threads goodness is
essentially the thread's remaining ``counter`` (its unused quantum)
plus a nice-derived bias; when every runnable thread has exhausted its
counter, all counters are recharged from the nice value (decayed
history carries over for sleepers, which is what gives interactive
threads a boost).

This module reproduces that behaviour faithfully enough to serve as the
"what you get today" baseline in the starvation and responsiveness
comparisons.  It is *not* used underneath the adaptive controller — the
controller actuates the :class:`repro.sched.rbs.ReservationScheduler` —
but experiments run the same workloads under both to contrast them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sched.base import Scheduler
from repro.sim.thread import SimThread

#: Base quantum granted to a nice-0 thread at each recharge (Linux 2.0's
#: default time slice was around 200 ms; we keep the same order).
BASE_QUANTUM_US = 200_000

#: How much of an unexpired counter survives a recharge (Linux 2.0 adds
#: ``counter / 2`` to the new quantum, rewarding threads that sleep).
CARRYOVER_DIVISOR = 2


@dataclass
class _GoodnessState:
    """Per-thread counter state."""

    counter_us: int
    quantum_us: int


class LinuxGoodnessScheduler(Scheduler):
    """Multi-level-feedback style scheduler with nice values."""

    SCHED_KEY = "goodness"

    def __init__(self, base_quantum_us: int = BASE_QUANTUM_US) -> None:
        super().__init__()
        if base_quantum_us <= 0:
            raise ValueError(
                f"base quantum must be positive, got {base_quantum_us}"
            )
        self.base_quantum_us = base_quantum_us
        self.recharges = 0

    # ------------------------------------------------------------------
    # per-thread state
    # ------------------------------------------------------------------
    def _state(self, thread: SimThread) -> _GoodnessState:
        state = thread.sched_data.get(self.SCHED_KEY)
        if state is None:
            quantum = self._quantum_for(thread)
            state = _GoodnessState(counter_us=quantum, quantum_us=quantum)
            thread.sched_data[self.SCHED_KEY] = state
        return state

    def _quantum_for(self, thread: SimThread) -> int:
        # nice ranges -20 (greedy) .. +19 (generous); scale the base
        # quantum linearly, clamped to at least one dispatch interval.
        nice = max(-20, min(19, thread.nice))
        scale = (20 - nice) / 20.0
        return max(self.dispatch_interval_us, int(self.base_quantum_us * scale))

    def goodness(self, thread: SimThread) -> int:
        """The goodness value used to order runnable threads."""
        state = self._state(thread)
        if state.counter_us <= 0:
            return 0
        return state.counter_us + (20 - thread.nice) * 10

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_add(self, thread: SimThread) -> None:
        self._state(thread)

    def charge(self, thread: SimThread, consumed_us: int, now: int) -> None:
        state = self._state(thread)
        state.counter_us = max(0, state.counter_us - consumed_us)

    def _recharge_all(self) -> None:
        self.recharges += 1
        for thread in self.threads():
            state = self._state(thread)
            quantum = self._quantum_for(thread)
            state.quantum_us = quantum
            state.counter_us = quantum + state.counter_us // CARRYOVER_DIVISOR

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _best_by_goodness(self, runnable: list[SimThread]) -> tuple[SimThread, int]:
        """One pass: the highest-goodness thread (lowest tid breaks ties)."""
        best = runnable[0]
        best_key = (self.goodness(best), -best.tid)
        for thread in runnable[1:]:
            key = (self.goodness(thread), -thread.tid)
            if key > best_key:
                best = thread
                best_key = key
        return best, best_key[0]

    def pick_next(self, now: int, cpu: Optional[int] = None) -> Optional[SimThread]:
        runnable = self.dispatch_candidates(cpu)
        if not runnable:
            return None
        best, best_goodness = self._best_by_goodness(runnable)
        if best_goodness <= 0:
            # Everybody on the run queue has used its quantum: recharge
            # all counters (including sleepers', which accrue carryover).
            self._recharge_all()
            best, _ = self._best_by_goodness(runnable)
        return best

    def time_slice(self, thread: SimThread, now: int) -> int:
        state = self._state(thread)
        if state.counter_us <= 0:
            return self.dispatch_interval_us
        return min(self.dispatch_interval_us, max(1, state.counter_us))


__all__ = ["BASE_QUANTUM_US", "LinuxGoodnessScheduler"]
