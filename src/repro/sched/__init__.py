"""Schedulers.

The paper's substrate is a reservation-based proportion/period
dispatcher layered on Linux's goodness mechanism
(:class:`~repro.sched.rbs.ReservationScheduler`).  This package also
provides the baselines the paper argues against or compares with, so
experiments can contrast behaviours (starvation, priority inversion,
fine-grained control):

* :class:`~repro.sched.goodness.LinuxGoodnessScheduler` — stock Linux
  2.0 multi-level-feedback style scheduling with ``nice`` values.
* :class:`~repro.sched.priority.FixedPriorityScheduler` — fixed
  (real-time) priorities, with optional priority inheritance.
* :class:`~repro.sched.lottery.LotteryScheduler` — Waldspurger & Weihl
  proportional-share lottery scheduling (related work, [21]).
* :class:`~repro.sched.round_robin.RoundRobinScheduler` — the simplest
  possible fair baseline.

On multiprocessor kernels every policy additionally consults a
:class:`~repro.sched.placement.PlacementPolicy` (least-loaded balancing
by default, static pinning as an alternative) that maps runnable
threads to CPUs before the per-CPU picks are made.
"""

from repro.sched.base import LazyMinHeap, RunQueue, Scheduler
from repro.sched.goodness import LinuxGoodnessScheduler
from repro.sched.lottery import LotteryScheduler
from repro.sched.placement import (
    CacheWarmPlacement,
    LeastLoadedPlacement,
    NumaPackPlacement,
    PinnedPlacement,
    PlacementPolicy,
)
from repro.sched.priority import FixedPriorityScheduler
from repro.sched.rbs import Reservation, ReservationScheduler
from repro.sched.round_robin import RoundRobinScheduler

__all__ = [
    "CacheWarmPlacement",
    "FixedPriorityScheduler",
    "LazyMinHeap",
    "LeastLoadedPlacement",
    "LinuxGoodnessScheduler",
    "LotteryScheduler",
    "NumaPackPlacement",
    "PinnedPlacement",
    "PlacementPolicy",
    "Reservation",
    "ReservationScheduler",
    "RoundRobinScheduler",
    "RunQueue",
    "Scheduler",
]
