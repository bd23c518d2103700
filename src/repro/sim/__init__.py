"""Discrete-event simulation substrate.

The paper implements its reservation-based scheduler inside the Linux
2.0.35 kernel and drives it with real applications.  A Python
reproduction cannot perform genuine preemptive CPU scheduling (the GIL
serialises execution and the interpreter cannot revoke the CPU from a
thread), so this package provides the substrate the rest of the library
runs on: a deterministic discrete-event simulation of one or more CPUs,
their timer interrupts, a dispatcher hook, blocking IPC and sleeping
threads.  Multiprocessor simulation uses lockstep dispatch rounds (see
:mod:`repro.sim.kernel`); with one CPU the model is exactly the paper's
uniprocessor testbed.

The important properties preserved from the paper's testbed are:

* time advances in integer microseconds and the dispatcher is invoked
  at a configurable dispatch interval (1 ms by default, matching the
  paper's timer interval);
* threads are charged for the CPU they actually consume, at microsecond
  granularity, so proportion/period accounting behaves like the paper's
  in-kernel accounting;
* threads block on bounded buffers, pipes, sockets, mutexes, sleeps and
  simulated I/O exactly where a real thread would block, which is what
  produces the fill-level signals the feedback controller consumes.

Public entry points
-------------------
:class:`~repro.sim.kernel.Kernel`
    The simulated machine: owns the clock, the event queue, the
    scheduler, all threads and all IPC channels.
:class:`~repro.sim.thread.SimThread`
    A simulated thread whose behaviour is described by a generator
    yielding :mod:`repro.sim.requests` objects.
:mod:`repro.sim.requests`
    The "system call" vocabulary available to thread bodies.
"""

from repro.sim.clock import SimClock
from repro.sim.cpu import CPUModel, CPUState
from repro.sim.errors import (
    DeadlockError,
    SimulationError,
    ThreadStateError,
)
from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Kernel
from repro.sim.requests import (
    AcquireMutex,
    Compute,
    Exit,
    Get,
    Put,
    ReleaseMutex,
    Sleep,
    WaitIO,
    Yield,
)
from repro.sim.thread import SimThread, ThreadState
from repro.sim.trace import Tracer

__all__ = [
    "AcquireMutex",
    "CPUModel",
    "CPUState",
    "Compute",
    "DeadlockError",
    "Event",
    "EventQueue",
    "Exit",
    "Get",
    "Kernel",
    "Put",
    "ReleaseMutex",
    "SimClock",
    "SimThread",
    "SimulationError",
    "Sleep",
    "ThreadState",
    "ThreadStateError",
    "Tracer",
    "WaitIO",
    "Yield",
]
