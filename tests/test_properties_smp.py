"""Property-based scheduler invariants over random workloads.

Hypothesis generates random thread mixes (spinners, burst-sleepers,
yielders, producer/consumer pairs), random reservations and random CPU
counts; the invariants below must hold for every one of them, on one
CPU and on several:

* a thread is only ever dispatched while runnable — never while
  BLOCKED, SLEEPING or EXITED;
* the global clock never moves backwards and the run ends exactly at
  the requested time;
* CPU time is conserved: thread CPU + idle + stolen equals
  ``n_cpus * elapsed``, with and without the controller;
* reservations never deliver more than their proportion allows (plus
  the paper's one-dispatch-interval quantisation overrun per period);
* the controller never grants more total proportion than the kernel's
  capacity ``n_cpus * PROPORTION_SCALE``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PROPORTION_SCALE
from repro.core.taxonomy import ThreadSpec
from repro.ipc.bounded_buffer import BoundedBuffer
from repro.sched.rbs import ReservationScheduler
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Get, Put, Sleep, Yield
from repro.sim.thread import ThreadState
from repro.system import build_real_rate_system

RUN_US = 60_000


def _spinner(burst_us):
    def body(env):
        while True:
            yield Compute(burst_us)
    return body


def _burst_sleeper(burst_us, sleep_us):
    def body(env):
        while True:
            yield Compute(burst_us)
            yield Sleep(sleep_us)
    return body


def _yielder(burst_us):
    def body(env):
        while True:
            yield Compute(burst_us)
            yield Yield()
    return body


def _producer(queue, nbytes, compute_us):
    def body(env):
        while True:
            yield Compute(compute_us)
            yield Put(queue, nbytes)
    return body


def _consumer(queue, nbytes, compute_us):
    def body(env):
        while True:
            yield Get(queue, nbytes)
            yield Compute(compute_us)
    return body


thread_kinds = st.sampled_from(["spin", "burst_sleep", "yield", "pipe"])

workloads = st.lists(
    st.tuples(
        thread_kinds,
        st.integers(min_value=50, max_value=3_000),    # burst us
        st.integers(min_value=500, max_value=20_000),  # sleep us
        st.integers(min_value=0, max_value=400),       # reservation ppt
        st.integers(min_value=5_000, max_value=40_000),  # period us
    ),
    min_size=1,
    max_size=5,
)


def _build_threads(kernel, scheduler, entries):
    tid = 0
    for kind, burst, sleep_us, ppt, period in entries:
        tid += 1
        if kind == "spin":
            threads = [kernel.spawn(f"spin{tid}", _spinner(burst))]
        elif kind == "burst_sleep":
            threads = [kernel.spawn(f"bs{tid}", _burst_sleeper(burst, sleep_us))]
        elif kind == "yield":
            threads = [kernel.spawn(f"y{tid}", _yielder(burst))]
        else:
            queue = BoundedBuffer(f"q{tid}", 4_096)
            threads = [
                kernel.spawn(f"prod{tid}", _producer(queue, 256, burst)),
                kernel.spawn(f"cons{tid}", _consumer(queue, 256, burst)),
            ]
        if ppt > 0 and scheduler is not None:
            for thread in threads:
                scheduler.set_reservation(thread, ppt, period)


@given(n_cpus=st.sampled_from([1, 2, 4]), entries=workloads)
@settings(max_examples=25, deadline=None)
def test_kernel_invariants_over_random_workloads(n_cpus, entries):
    scheduler = ReservationScheduler()
    kernel = Kernel(
        scheduler,
        n_cpus=n_cpus,
        charge_dispatch_overhead=False,
        syscall_cost_us=1,
        deadlock_detection=False,
    )
    _build_threads(kernel, scheduler, entries)

    dispatched_states = []
    clock_samples = []
    original_dispatch = Kernel._dispatch

    def checked_dispatch(self, cpu, thread, cap):
        dispatched_states.append(thread.state)
        clock_samples.append(self.clock.now)
        return original_dispatch(self, cpu, thread, cap)

    Kernel._dispatch = checked_dispatch
    try:
        kernel.run_for(RUN_US)
    finally:
        Kernel._dispatch = original_dispatch

    # Only runnable threads are ever handed to the dispatcher.
    assert all(state.is_runnable for state in dispatched_states)
    forbidden = {ThreadState.BLOCKED, ThreadState.SLEEPING, ThreadState.EXITED}
    assert not forbidden.intersection(dispatched_states)

    # The global clock is monotone and the run ends exactly on time.
    assert clock_samples == sorted(clock_samples)
    assert kernel.now == RUN_US

    # CPU-time conservation across all CPUs.
    assert kernel.conservation_gap_us() == 0

    # No reservation thread exceeded its proportion by more than the
    # one-dispatch-interval overrun per elapsed period (Section 4.3).
    for thread in kernel.threads:
        reservation = scheduler.reservation(thread)
        if reservation is None or reservation.proportion_ppt == 0:
            continue
        periods = RUN_US // reservation.period_us + 1
        budget = periods * reservation.allocation_us
        overrun_allowance = periods * kernel.dispatch_interval_us
        assert thread.accounting.total_us <= budget + overrun_allowance

    # Total reserved proportion is within the kernel's capacity when
    # the draws happened to fit; it must never exceed what the draw
    # asked for in any case.
    assert scheduler.total_reserved_ppt() == sum(
        ppt * (2 if kind == "pipe" else 1)
        for kind, _, _, ppt, _ in entries
    )


controlled_specs = st.lists(
    st.tuples(
        st.sampled_from(["real_rate", "misc"]),
        st.integers(min_value=100, max_value=2_000),  # service burst us
    ),
    min_size=1,
    max_size=6,
)


@given(n_cpus=st.sampled_from([1, 2, 4]), specs=controlled_specs)
@settings(max_examples=15, deadline=None)
def test_controller_grants_never_exceed_capacity(n_cpus, specs):
    system = build_real_rate_system(
        n_cpus=n_cpus,
        charge_dispatch_overhead=False,
        charge_controller_overhead=False,
    )
    for index, (kind, burst) in enumerate(specs):
        if kind == "real_rate":
            queue = BoundedBuffer(f"cq{index}", 8_192)
            producer = system.spawn_controlled(
                f"p{index}",
                _producer(queue, 256, 2_000),
                spec=ThreadSpec(proportion_ppt=50, period_us=10_000),
            )
            consumer = system.spawn_controlled(
                f"c{index}", _consumer(queue, 256, burst), spec=ThreadSpec()
            )
            system.registry.register_pair(producer, consumer, queue)
        else:
            system.spawn_controlled(
                f"m{index}", _spinner(burst), spec=ThreadSpec()
            )

    grant_totals = []
    original_update = system.allocator.update

    def recording_update(now):
        decisions = original_update(now)
        grant_totals.append(sum(d.granted_ppt for d in decisions))
        return decisions

    system.allocator.update = recording_update
    system.run_for(RUN_US)

    capacity = n_cpus * PROPORTION_SCALE
    assert grant_totals, "controller should have run"
    assert all(total <= capacity for total in grant_totals)
    assert system.kernel.conservation_gap_us() == 0
