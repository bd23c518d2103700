"""Unit tests for the fault injector (hijacks, hotplug, sensors)."""

from __future__ import annotations

import pytest

from repro.faults import (
    CPU_FAIL,
    CPU_RECOVER,
    RUNAWAY_START,
    RUNAWAY_STOP,
    SENSOR_DROPOUT,
    STALL_START,
    FaultEvent,
    FaultInjectionError,
    FaultInjector,
    FaultPlan,
    FaultySensor,
)
from repro.ipc.bounded_buffer import BoundedBuffer
from repro.ipc.registry import Role, SymbioticRegistry
from repro.monitor.progress import ProgressSampler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Get, Put, Sleep
from repro.sim.thread import SimThread

from tests.conftest import spin_body


def make_kernel(**kwargs) -> Kernel:
    defaults = dict(charge_dispatch_overhead=False, syscall_cost_us=0)
    defaults.update(kwargs)
    return Kernel(RoundRobinScheduler(), **defaults)


def thinker_body(burst_us: int = 500, think_us: int = 2_000):
    def body(env):
        while True:
            yield Compute(burst_us)
            yield Sleep(think_us)

    return body


def install(kernel, *events, seed=0, allocator=None) -> FaultInjector:
    injector = FaultInjector(
        kernel, FaultPlan(events=tuple(events), seed=seed), allocator=allocator
    )
    injector.install()
    return injector


class TestHijacks:
    def test_runaway_burns_cpu_and_restores(self):
        kernel = make_kernel()
        victim = kernel.spawn("victim", thinker_body(500, 2_000))
        injector = install(
            kernel,
            FaultEvent(20_000, RUNAWAY_START, thread="victim",
                       duration_us=20_000),
        )
        kernel.run_until(20_000)
        before = victim.accounting.total_us
        # Thinker duty cycle: 500/2500 = 20% of CPU.
        assert before <= 20_000 * 0.3
        kernel.run_until(40_000)
        runaway_share = victim.accounting.total_us - before
        # Runaway window: the sole thread burns (nearly) all of it.
        assert runaway_share >= 20_000 * 0.9
        assert [(r.kind, r.hit) for r in injector.log] == [(RUNAWAY_START, True)]
        sleeps_at_restore = victim.accounting.sleeps
        kernel.run_until(60_000)
        # The stop event (due exactly at the checkpoint above) fired at
        # the top of the next loop iteration and restored the real body:
        # it thinks again.
        assert [(r.kind, r.hit) for r in injector.log] == [
            (RUNAWAY_START, True), (RUNAWAY_STOP, True),
        ]
        assert victim.accounting.sleeps > sleeps_at_restore
        assert victim.accounting.total_us - before - runaway_share < 20_000 * 0.3
        assert injector.hits() == 2

    def test_stall_stops_consuming_cpu(self):
        kernel = make_kernel()
        victim = kernel.spawn("victim", spin_body(1_000))
        install(
            kernel,
            FaultEvent(10_000, STALL_START, thread="victim",
                       duration_us=30_000),
        )
        kernel.run_until(10_000)
        before = victim.accounting.total_us
        kernel.run_until(40_000)
        # A stalled spinner consumes (almost) nothing for the window.
        assert victim.accounting.total_us - before <= 1_000
        kernel.run_until(60_000)
        # Restored: it spins again.
        assert victim.accounting.total_us - before >= 15_000

    def test_pending_send_redelivered_after_restore(self):
        kernel = make_kernel()
        buf = BoundedBuffer("q", capacity_bytes=10)
        received = []

        def consumer(env):
            while True:
                value = yield Get(buf, 2)
                received.append(value)
                yield Compute(200)

        def producer(env):
            while True:
                yield Compute(9_000)
                yield Put(buf, 2)

        kernel.spawn("consumer", consumer)
        kernel.spawn("producer", producer)
        # Stall the consumer across the producer's first Put: the
        # payload is delivered mid-fault and must not be lost.
        install(
            kernel,
            FaultEvent(2_000, STALL_START, thread="consumer",
                       duration_us=20_000),
        )
        kernel.run_for(60_000)
        # The consumer missed nothing: every Put's payload arrived.
        assert received
        assert all(value == 2 for value in received)
        # Clean twin without the fault receives the same payloads
        # (possibly more of them, since it never sat out a window).
        twin = make_kernel()
        twin_received = []
        buf2 = BoundedBuffer("q2", capacity_bytes=10)

        def twin_consumer(env):
            while True:
                value = yield Get(buf2, 2)
                twin_received.append(value)
                yield Compute(200)

        def twin_producer(env):
            while True:
                yield Compute(9_000)
                yield Put(buf2, 2)

        twin.spawn("consumer", twin_consumer)
        twin.spawn("producer", twin_producer)
        twin.run_for(60_000)
        assert twin_received[: len(received)] == received

    def test_missing_thread_logged_not_raised(self):
        kernel = make_kernel()
        kernel.spawn("worker", spin_body())
        injector = install(
            kernel,
            FaultEvent(5_000, RUNAWAY_START, thread="ghost"),
            FaultEvent(6_000, RUNAWAY_STOP, thread="worker"),
        )
        kernel.run_for(10_000)
        assert injector.hits() == 0
        details = [(r.kind, r.hit) for r in injector.log]
        assert (RUNAWAY_START, False) in details  # no such thread
        assert (RUNAWAY_STOP, False) in details  # never hijacked

    def test_double_hijack_is_a_miss(self):
        kernel = make_kernel()
        kernel.spawn("victim", spin_body())
        injector = install(
            kernel,
            FaultEvent(1_000, RUNAWAY_START, thread="victim"),
            FaultEvent(2_000, STALL_START, thread="victim"),
        )
        kernel.run_for(5_000)
        assert [r.hit for r in injector.log] == [True, False]


class TestCpuFaults:
    def test_fail_and_recover_through_plan(self):
        kernel = make_kernel(n_cpus=2)
        kernel.spawn("a", spin_body())
        kernel.spawn("b", spin_body())
        injector = install(
            kernel,
            FaultEvent(10_000, CPU_FAIL, cpu=1, duration_us=20_000),
        )
        kernel.run_until(15_000)
        assert kernel.online_cpu_count == 1
        kernel.run_until(40_000)
        assert kernel.online_cpu_count == 2
        assert injector.hits() == 2

    def test_redundant_cpu_events_are_misses(self):
        kernel = make_kernel(n_cpus=2)
        kernel.spawn("a", spin_body())
        injector = install(
            kernel,
            FaultEvent(1_000, CPU_FAIL, cpu=1),
            FaultEvent(2_000, CPU_FAIL, cpu=1),       # already offline
            FaultEvent(3_000, CPU_RECOVER, cpu=1),
            FaultEvent(4_000, CPU_RECOVER, cpu=1),    # already online
        )
        kernel.run_for(6_000)
        assert [r.hit for r in injector.log] == [True, False, True, False]


class TestInstallRules:
    def test_double_install_rejected(self):
        kernel = make_kernel()
        injector = FaultInjector(kernel, FaultPlan())
        injector.install()
        with pytest.raises(FaultInjectionError, match="already installed"):
            injector.install()

    def test_sensor_fault_needs_allocator(self):
        kernel = make_kernel()
        injector = FaultInjector(
            kernel,
            FaultPlan(
                events=(
                    FaultEvent(0, SENSOR_DROPOUT, thread="w",
                               duration_us=1_000),
                )
            ),
        )
        with pytest.raises(FaultInjectionError, match="needs an allocator"):
            injector.install()


class TestFaultySensor:
    def _sampler(self):
        registry = SymbioticRegistry()
        thread = SimThread("consumer", spin_body())
        channel = BoundedBuffer("q", capacity_bytes=100)
        channel.commit_put(75, now=0, thread=None)
        registry.register(thread, channel, Role.CONSUMER)
        return ProgressSampler(thread, registry)

    def test_dropout_returns_none(self):
        import random

        inner = self._sampler()
        assert inner.sample() is not None
        faulty = FaultySensor(inner, "dropout", random.Random(1))
        assert faulty.sample() is None
        assert faulty.linkages() == inner.linkages()

    def test_corrupt_adds_seeded_bounded_noise(self):
        import random

        inner = self._sampler()
        truth = inner.sample().raw
        noisy_a = [
            FaultySensor(inner, "corrupt", random.Random(7), magnitude=0.5)
            .sample().raw
            for _ in range(1)
        ]
        noisy_b = FaultySensor(
            inner, "corrupt", random.Random(7), magnitude=0.5
        ).sample()
        # Same seed -> identical corruption (determinism).
        assert noisy_a[0] == noisy_b.raw
        assert abs(noisy_b.raw - truth) <= 0.5
        # Per-channel truth is preserved for traces.
        assert noisy_b.per_channel == inner.sample().per_channel

    def test_unknown_mode_rejected(self):
        import random

        with pytest.raises(FaultInjectionError, match="unknown sensor"):
            FaultySensor(self._sampler(), "gaslight", random.Random(0))
