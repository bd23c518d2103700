"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings

from repro.core.config import ControllerConfig
from repro.ipc.bounded_buffer import BoundedBuffer
from repro.ipc.registry import SymbioticRegistry
from repro.sched.rbs import ReservationScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Exit, Get, Put, Sleep, Yield
from repro.sim.thread import SimThread
from repro.system import build_real_rate_system

#: ``--hypothesis-profile=no-shrink`` finds a failing example and stops
#: there, without shrinking it.  ``python -m tests.gate_mutants`` runs
#: its pytest gates under it: they need only the first failure, and
#: shrinking a failing differential property takes minutes.
settings.register_profile(
    "no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate]
)


@pytest.fixture
def rr_kernel() -> Kernel:
    """A kernel with a round-robin scheduler and no overheads."""
    return Kernel(
        RoundRobinScheduler(),
        charge_dispatch_overhead=False,
        syscall_cost_us=0,
    )


@pytest.fixture
def rbs_kernel() -> Kernel:
    """A kernel with a reservation scheduler and no overheads."""
    return Kernel(
        ReservationScheduler(),
        charge_dispatch_overhead=False,
        syscall_cost_us=0,
    )


@pytest.fixture
def registry() -> SymbioticRegistry:
    return SymbioticRegistry()


@pytest.fixture
def small_system():
    """A fully wired real-rate system with overheads disabled."""
    return build_real_rate_system(
        ControllerConfig(),
        charge_dispatch_overhead=False,
        charge_controller_overhead=False,
    )


def heaviest_first(threads, weight=lambda thread: 1.0):
    """The order a scheduler hands ``PlacementPolicy.assign``:
    ``(-weight, tid, thread)`` for each thread, ascending."""
    return sorted((-weight(t), t.tid, t) for t in threads)


def spin_body(burst_us: int = 1_000):
    """A body factory: burn CPU forever in ``burst_us`` chunks."""

    def body(env):
        while True:
            yield Compute(burst_us)

    return body


def finite_body(total_us: int, burst_us: int = 1_000):
    """A body factory: burn ``total_us`` of CPU then exit."""

    def body(env):
        remaining = total_us
        while remaining > 0:
            step = min(burst_us, remaining)
            yield Compute(step)
            remaining -= step

    return body


def producer_body(queue, block_bytes: int, compute_us: int):
    """A body factory: compute then put, forever."""

    def body(env):
        while True:
            yield Compute(compute_us)
            yield Put(queue, block_bytes)

    return body


def consumer_body(queue, block_bytes: int, compute_us: int):
    """A body factory: get then compute, forever."""

    def body(env):
        while True:
            yield Get(queue, block_bytes)
            yield Compute(compute_us)

    return body


def record_added_threads(kernel: Kernel) -> list[SimThread]:
    """Every thread added to ``kernel`` from now on, in order.

    The kernel's thread table keeps live threads only; a test that
    reads an exited thread's state or accounting keeps it through
    this list.
    """
    added: list[SimThread] = []
    add_thread = kernel.add_thread

    def recording_add_thread(thread: SimThread) -> SimThread:
        added.append(thread)
        return add_thread(thread)

    kernel.add_thread = recording_add_thread
    return added
