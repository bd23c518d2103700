"""repro — a feedback-driven proportion allocator for real-rate scheduling.

A from-scratch Python reproduction of

    "A Feedback-driven Proportion Allocator for Real-Rate Scheduling",
    David C. Steere, Ashvin Goel, Joshua Gruenberg, Dylan McNamee,
    Calton Pu, Jonathan Walpole.  OSDI 1999 (OGI CSE TR 98-014).

The library has two layers:

* a **substrate**: a deterministic discrete-event simulation of a
  single CPU with a proportion/period reservation scheduler
  (:mod:`repro.sim`, :mod:`repro.sched`), symbiotic IPC interfaces
  (:mod:`repro.ipc`) and progress monitors (:mod:`repro.monitor`) —
  standing in for the paper's modified Linux 2.0.35 kernel; and
* the **contribution**: the adaptive proportion/period controller
  (:mod:`repro.core`), whose tick realises the paper's SWiFT feedback
  circuit as one function, and the SLO-driven second-level loop on
  top of it (:mod:`repro.swift`), plus the workloads
  (:mod:`repro.workloads`), analysis tools (:mod:`repro.analysis`) and
  experiment drivers (:mod:`repro.experiments`) that reproduce the
  paper's figures.

Quick start
-----------
::

    from repro import build_real_rate_system
    from repro.workloads.pulse import PulsePipeline, PulseSchedule

    system = build_real_rate_system()
    pipeline = PulsePipeline.attach(system)
    system.kernel.run_for(5_000_000)          # five simulated seconds
    print(pipeline.queue.fill_level())

See ``examples/`` for complete programs; ``python -m repro run NAME``
(or ``examples/reproduce_figures.py``) prints the figure-by-figure
reproduction results beside the paper's values.
"""

from repro._version import __version__
from repro.core import (
    AdmissionError,
    AllocationDecision,
    ControllerConfig,
    ControllerDriver,
    ControllerOverheadModel,
    ProportionAllocator,
    QualityException,
    ThreadClass,
    ThreadSpec,
)
from repro.ipc import BoundedBuffer, Pipe, Role, Socket, SymbioticRegistry, TTY
from repro.sched import ReservationScheduler
from repro.sim import Kernel, SimThread
from repro.system import RealRateSystem, build_real_rate_system

__all__ = [
    "AdmissionError",
    "AllocationDecision",
    "BoundedBuffer",
    "ControllerConfig",
    "ControllerDriver",
    "ControllerOverheadModel",
    "Kernel",
    "Pipe",
    "ProportionAllocator",
    "QualityException",
    "RealRateSystem",
    "ReservationScheduler",
    "Role",
    "SimThread",
    "Socket",
    "SymbioticRegistry",
    "TTY",
    "ThreadClass",
    "ThreadSpec",
    "build_real_rate_system",
    "__version__",
]
