"""CPU usage monitoring.

Two controller mechanisms need to know how much CPU a thread actually
consumed during the last controller interval:

* the **reclaim rule** of Figure 4 — "the controller compares the CPU
  used by a thread with the amount allocated to it.  If the difference
  is larger than a threshold, the controller assumes the pressure is
  overestimating the actual need and the allocation should be reduced";
* the **run-before-block heuristic** for threads with no progress
  metric — the paper suggests estimating an interactive job's
  proportion "by measuring the amount of time they typically run before
  blocking".

:class:`UsageMonitor` keeps a per-thread snapshot of lifetime CPU so it
can report per-interval deltas without the kernel having to maintain
controller-specific counters.  The allocator's tick applies the same
rule to the last sample on its own per-thread record.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.sim.thread import SimThread


class UsageSample(NamedTuple):
    """CPU usage of one thread over one controller interval.

    A named tuple rather than a dataclass: one sample is built per
    controlled thread per controller tick, making construction cost
    part of the controller's hot path.
    """

    used_us: int
    interval_us: int
    allocated_us: int

    @property
    def used_fraction(self) -> float:
        """CPU used as a fraction of the interval."""
        if self.interval_us <= 0:
            return 0.0
        return self.used_us / self.interval_us

    @property
    def allocated_fraction(self) -> float:
        """CPU allocated as a fraction of the interval."""
        if self.interval_us <= 0:
            return 0.0
        return self.allocated_us / self.interval_us

    @property
    def unused_fraction_of_allocation(self) -> float:
        """How much of the allocation went unused, in [0, 1]."""
        if self.allocated_us <= 0:
            return 0.0
        unused = max(0, self.allocated_us - self.used_us)
        return unused / self.allocated_us


class UsageMonitor:
    """Tracks per-interval CPU usage of controlled threads."""

    def __init__(self) -> None:
        #: tid -> (lifetime CPU at last sample, time of last sample);
        #: one dict so each sample costs a single lookup + store.
        self._last: dict[int, tuple[int, int]] = {}

    def forget(self, thread: SimThread) -> None:
        """Drop state for a thread (on deregistration or exit)."""
        self._last.pop(thread.tid, None)

    def sample(
        self, thread: SimThread, now: int, allocated_ppt: int
    ) -> UsageSample:
        """CPU used by ``thread`` since its previous sample.

        ``allocated_ppt`` is the proportion (parts per thousand) the
        thread held over the interval; the sample converts it to an
        allocated-microseconds figure for direct comparison.
        """
        total = thread.accounting.total_us
        previous_total, previous_time = self._last.get(thread.tid, (total, now))
        used = max(0, total - previous_total)
        interval = max(0, now - previous_time)
        self._last[thread.tid] = (total, now)
        allocated = interval * allocated_ppt // 1000
        return UsageSample(used_us=used, interval_us=interval, allocated_us=allocated)

    def run_before_block_us(self, thread: SimThread) -> float:
        """The thread's smoothed run-before-block time (heuristic input)."""
        return thread.accounting.run_before_block_ema_us


__all__ = ["UsageMonitor", "UsageSample"]
