"""Progress monitoring.

The monitors turn raw symbiotic-interface state (queue fill levels,
roles) and kernel accounting (CPU used vs. allocated, run-before-block
times) into the per-thread signals the adaptive controller consumes:

* :class:`~repro.monitor.progress.QueueFillMonitor` — the F value of
  Figure 3 for one (thread, channel, role) linkage;
* :class:`~repro.monitor.progress.ConstantPressureSource` — the
  positive-constant pseudo-progress used for miscellaneous threads;
* :class:`~repro.monitor.progress.ProgressSampler` — gathers a thread's
  combined pressure sample from all of its linkages;
* :class:`~repro.monitor.usage.UsageMonitor` — per-controller-interval
  CPU usage vs. allocation, the input of the "too generous" reclaim
  rule of Figure 4 (the allocator samples it inline), and the
  run-before-block heuristic for threads with no progress metric;
* :class:`~repro.monitor.watchdog.Watchdog` — a second feedback loop
  that quarantines runaway or stalled reservations (demotion to
  best-effort with backoff re-promotion), keeping a misbehaving thread
  from displacing well-behaved reservations.
"""

from repro.monitor.progress import (
    ConstantPressureSource,
    PressureSample,
    ProgressSampler,
    QueueFillMonitor,
)
from repro.monitor.usage import UsageMonitor, UsageSample
from repro.monitor.watchdog import QuarantineRecord, Watchdog

__all__ = [
    "ConstantPressureSource",
    "PressureSample",
    "ProgressSampler",
    "QuarantineRecord",
    "QueueFillMonitor",
    "UsageMonitor",
    "UsageSample",
    "Watchdog",
]
