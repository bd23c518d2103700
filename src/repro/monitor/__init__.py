"""Progress monitoring.

The monitors turn raw symbiotic-interface state (queue fill levels,
roles) into the per-thread progress signals the adaptive controller
consumes, and police the reservations it grants:

* :class:`~repro.monitor.progress.ConstantPressureSource` — the
  positive-constant pseudo-progress used for miscellaneous threads;
* :class:`~repro.monitor.progress.ProgressSampler` — gathers a thread's
  combined pressure sample from all of its linkages (the F value of
  Figure 3 per (thread, channel, role) linkage, summed);
* :class:`~repro.monitor.watchdog.Watchdog` — a second feedback loop
  that quarantines runaway or stalled reservations (demotion to
  best-effort with backoff re-promotion), keeping a misbehaving thread
  from displacing well-behaved reservations.
"""

from repro.monitor.progress import (
    ConstantPressureSource,
    PressureSample,
    ProgressSampler,
)
from repro.monitor.watchdog import QuarantineRecord, Watchdog

__all__ = [
    "ConstantPressureSource",
    "PressureSample",
    "ProgressSampler",
    "QuarantineRecord",
    "Watchdog",
]
