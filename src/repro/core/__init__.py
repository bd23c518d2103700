"""The feedback-driven proportion allocator (the paper's contribution).

This package implements the adaptive controller of Section 3.3:

* :class:`~repro.core.taxonomy.ThreadClass` /
  :class:`~repro.core.taxonomy.ThreadSpec` — the four-way taxonomy of
  Figure 2 (real-time, aperiodic real-time, real-rate, miscellaneous)
  and what an application declares about each thread;
* :class:`~repro.core.period.PeriodEstimator` — the period-adaptation
  heuristic (disabled in the paper's experiments, available here for
  the ablation study);
* :mod:`~repro.core.overload` — admission control for real-time
  reservations and the proportional / weighted-fair-share squishing
  applied to real-rate and miscellaneous threads under overload;
* :class:`~repro.core.allocator.ProportionAllocator` — the controller
  that ties the progress monitors and the reservation scheduler
  together.  Its tick is the Figure 4 estimation law (PID over
  progress pressure, plus the unused-allocation reclaim rule): the
  paper's SWiFT feedback circuit, realised as one function;
* :mod:`~repro.core.config` — the controller's tunables
  (:class:`~repro.core.config.ControllerConfig`, with the PID gains
  in :class:`~repro.core.config.PIDGains`);
* :class:`~repro.core.driver.ControllerDriver` — runs the allocator
  periodically inside a simulation, models its CPU overhead (Figure 5)
  and records allocation traces.
"""

from repro.core.allocator import AllocationDecision, ProportionAllocator
from repro.core.artifacts import DurableAppender, write_atomic
from repro.core.config import ControllerConfig, PIDGains
from repro.core.driver import ControllerDriver, ControllerOverheadModel
from repro.core.errors import AdmissionError, ControllerError, QualityException
from repro.core.overload import (
    FairShareSquish,
    SquishPolicy,
    WeightedFairShareSquish,
)
from repro.core.period import PeriodEstimator
from repro.core.taxonomy import ThreadClass, ThreadSpec, classify

__all__ = [
    "AdmissionError",
    "AllocationDecision",
    "ControllerConfig",
    "ControllerDriver",
    "ControllerError",
    "ControllerOverheadModel",
    "DurableAppender",
    "FairShareSquish",
    "PeriodEstimator",
    "PIDGains",
    "ProportionAllocator",
    "QualityException",
    "SquishPolicy",
    "ThreadClass",
    "ThreadSpec",
    "WeightedFairShareSquish",
    "classify",
    "write_atomic",
]
