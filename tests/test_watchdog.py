"""Unit tests for the runaway/stall watchdog (detection + quarantine)."""

from __future__ import annotations

import pytest

from repro.core.config import ControllerConfig
from repro.faults import RUNAWAY_START, FaultEvent, FaultInjector, FaultPlan
from repro.monitor.watchdog import Watchdog
from repro.sched.rbs import ReservationScheduler
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Sleep

from tests.conftest import spin_body


def make_kernel() -> Kernel:
    return Kernel(
        ReservationScheduler(),
        charge_dispatch_overhead=False,
        syscall_cost_us=0,
    )


def honest_body(burst_us: int = 1_000, think_us: int = 4_000):
    def body(env):
        while True:
            yield Compute(burst_us)
            yield Sleep(think_us)

    return body


def reserve(kernel, name, body, ppt, period_us=10_000):
    thread = kernel.spawn(name, body)
    kernel.scheduler.set_reservation(thread, ppt, period_us)
    return thread


class TestDetection:
    def test_runaway_quarantined_and_repromoted(self):
        kernel = make_kernel()
        victim = reserve(kernel, "victim", spin_body(), 200)
        # A competing honest reservation so the runaway's overdraft
        # actually misses deadlines.
        reserve(kernel, "honest", honest_body(), 300)
        watchdog = Watchdog(
            kernel, kernel.scheduler,
            period_us=10_000, miss_windows=2, quarantine_us=40_000,
        )
        kernel.run_for(100_000)
        assert watchdog.quarantine_count() >= 1
        first = watchdog.history[0]
        assert first.verdict == "runaway"
        assert first.tid == victim.tid
        assert first.proportion_ppt == 200
        assert first.released and first.repromoted
        # Re-promotion restored the original reservation (it may have
        # been re-quarantined afterwards; check the episode bookkeeping
        # rather than the instantaneous state).
        assert first.release_at_us == first.quarantined_at_us + 40_000

    def test_honest_thread_never_quarantined(self):
        kernel = make_kernel()
        reserve(kernel, "honest", honest_body(1_000, 4_000), 250)
        watchdog = Watchdog(kernel, kernel.scheduler, period_us=10_000)
        kernel.run_for(200_000)
        assert watchdog.quarantine_count() == 0

    def test_stalled_reservation_quarantined(self):
        kernel = make_kernel()

        def stalled(env):
            yield Compute(500)
            while True:
                yield Sleep(50_000)

        reserve(kernel, "sleeper", stalled, 300)
        # Keep a busy thread around so time advances realistically.
        kernel.spawn("busy", spin_body())
        watchdog = Watchdog(
            kernel, kernel.scheduler, period_us=10_000, stall_windows=3
        )
        kernel.run_for(100_000)
        verdicts = [record.verdict for record in watchdog.history]
        assert "stalled" in verdicts

    def test_backoff_doubles_per_offense(self):
        kernel = make_kernel()
        reserve(kernel, "victim", spin_body(), 200)
        reserve(kernel, "honest", honest_body(), 300)
        watchdog = Watchdog(
            kernel, kernel.scheduler,
            period_us=10_000, miss_windows=2, quarantine_us=20_000,
            max_quarantine_us=50_000,
        )
        kernel.run_for(400_000)
        lengths = [
            record.release_at_us - record.quarantined_at_us
            for record in watchdog.history
        ]
        assert lengths[0] == 20_000
        if len(lengths) > 1:
            assert lengths[1] == 40_000
        if len(lengths) > 2:
            # Doubling is capped.
            assert all(length <= 50_000 for length in lengths[2:])

    def test_watchdog_with_injected_runaway(self):
        """End-to-end: injector turns an honest reservation runaway; the
        watchdog sees only misses and CPU deltas, yet catches it."""
        kernel = make_kernel()
        victim = reserve(kernel, "victim", honest_body(), 200)
        reserve(kernel, "honest", honest_body(), 300)
        injector = FaultInjector(
            kernel,
            FaultPlan(
                events=(FaultEvent(30_000, RUNAWAY_START, thread="victim"),)
            ),
        )
        injector.install()
        watchdog = Watchdog(
            kernel, kernel.scheduler, period_us=10_000, miss_windows=2
        )
        kernel.run_for(120_000)
        assert watchdog.quarantine_count() >= 1
        record = watchdog.history[0]
        assert record.tid == victim.tid
        assert record.quarantined_at_us > 30_000


class TestLifecycle:
    def test_stop_cancels_tick(self):
        kernel = make_kernel()
        reserve(kernel, "victim", spin_body(), 200)
        reserve(kernel, "honest", honest_body(), 300)
        watchdog = Watchdog(
            kernel, kernel.scheduler, period_us=10_000, miss_windows=2
        )
        watchdog.stop()
        kernel.run_for(100_000)
        assert watchdog.quarantine_count() == 0

    def test_exited_victim_not_repromoted(self):
        kernel = make_kernel()
        victim = reserve(kernel, "victim", spin_body(), 200)
        reserve(kernel, "honest", honest_body(), 300)
        watchdog = Watchdog(
            kernel, kernel.scheduler,
            period_us=10_000, miss_windows=2, quarantine_us=50_000,
        )
        kernel.run_for(50_000)
        assert [(r.tid, r.released) for r in watchdog.history] == [(victim.tid, False)]
        kernel.kill_thread(victim)
        kernel.run_for(100_000)
        record = watchdog.history[0]
        assert record.released
        assert not record.repromoted

    def test_constructor_validation(self):
        kernel = make_kernel()
        with pytest.raises(ValueError, match="period"):
            Watchdog(kernel, kernel.scheduler, period_us=0)
        with pytest.raises(ValueError, match="windows"):
            Watchdog(kernel, kernel.scheduler, miss_windows=0)
        with pytest.raises(ValueError, match="quarantine"):
            Watchdog(kernel, kernel.scheduler, quarantine_us=0)


class TestAllocatorPath:
    def test_quarantine_unregisters_from_controller(self):
        from repro.system import build_real_rate_system

        system = build_real_rate_system(
            ControllerConfig(),
            charge_dispatch_overhead=False,
            charge_controller_overhead=False,
        )
        kernel = system.kernel
        # Controlled hogs: the controller grows their reservations from
        # constant pressure, and two spinners oversubscribe one CPU.
        thread = system.spawn_controlled("hog", spin_body())
        watchdog = Watchdog(
            kernel, system.scheduler,
            allocator=system.allocator,
            period_us=10_000, miss_windows=2, quarantine_us=40_000,
        )
        competitor = system.spawn_controlled("rival", spin_body())
        kernel.run_for(150_000)
        if watchdog.quarantine_count():
            record = watchdog.history[0]
            # While quarantined the thread was out of the controller.
            assert record.verdict in ("runaway", "stalled")
        # The run must at least not crash the controller loop; both
        # threads are still live.
        assert thread.state.is_live and competitor.state.is_live
