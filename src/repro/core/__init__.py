"""The feedback-driven proportion allocator (the paper's contribution).

This package implements the adaptive controller of Section 3.3:

* :class:`~repro.core.taxonomy.ThreadClass` /
  :class:`~repro.core.taxonomy.ThreadSpec` — the four-way taxonomy of
  Figure 2 (real-time, aperiodic real-time, real-rate, miscellaneous)
  and what an application declares about each thread;
* :class:`~repro.core.estimator.ProportionEstimator` — the readable
  spec of Figure 4's estimation law (PID over progress pressure, plus
  the unused-allocation reclaim rule), which the allocator inlines;
* :class:`~repro.core.period.PeriodEstimator` — the period-adaptation
  heuristic (disabled in the paper's experiments, available here for
  the ablation study);
* :mod:`~repro.core.overload` — admission control for real-time
  reservations and the proportional / weighted-fair-share squishing
  applied to real-rate and miscellaneous threads under overload;
* :class:`~repro.core.allocator.ProportionAllocator` — the controller
  that ties monitors, estimators and the reservation scheduler
  together;
* :class:`~repro.core.driver.ControllerDriver` — runs the allocator
  periodically inside a simulation, models its CPU overhead (Figure 5)
  and records allocation traces.
"""

from repro.core.allocator import AllocationDecision, ProportionAllocator
from repro.core.artifacts import DurableAppender, write_atomic
from repro.core.config import ControllerConfig
from repro.core.driver import ControllerDriver, ControllerOverheadModel
from repro.core.errors import AdmissionError, ControllerError, QualityException
from repro.core.estimator import EstimateResult, ProportionEstimator
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
    "EstimateResult",
    "FairShareSquish",
    "PeriodEstimator",
    "ProportionAllocator",
    "ProportionEstimator",
    "QualityException",
    "SquishPolicy",
    "ThreadClass",
    "ThreadSpec",
    "WeightedFairShareSquish",
    "classify",
    "write_atomic",
]
