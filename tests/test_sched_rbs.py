"""Unit tests for the reservation-based proportion/period scheduler."""

import pytest

from repro.sched.rbs import Reservation, ReservationScheduler
from repro.sim.errors import SchedulerError
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Sleep
from repro.sim.thread import SchedulingPolicy, SimThread, ThreadState

from tests.conftest import finite_body, spin_body


def make_kernel(**kwargs) -> Kernel:
    defaults = dict(charge_dispatch_overhead=False, syscall_cost_us=0)
    defaults.update(kwargs)
    return Kernel(ReservationScheduler(), **defaults)


def periodic_body(work_us: int, period_us: int):
    """A body factory: ``work_us`` of CPU, then sleep to the next period."""

    def body(env):
        deadline = env.now + period_us
        while True:
            yield Compute(work_us)
            if env.now < deadline:
                yield Sleep(deadline - env.now)
            deadline += period_us

    return body


class TestReservationState:
    def test_allocation_computed_from_proportion_and_period(self):
        reservation = Reservation(proportion_ppt=250, period_us=20_000)
        assert reservation.allocation_us == 5_000

    def test_invalid_proportion_rejected(self):
        with pytest.raises(SchedulerError):
            Reservation(proportion_ppt=1_001, period_us=10_000)
        with pytest.raises(SchedulerError):
            Reservation(proportion_ppt=-1, period_us=10_000)

    def test_invalid_period_rejected(self):
        with pytest.raises(SchedulerError):
            Reservation(proportion_ppt=100, period_us=0)

    def test_exhaustion(self):
        reservation = Reservation(proportion_ppt=100, period_us=10_000)
        assert not reservation.exhausted
        reservation.used_in_period_us = 1_000
        assert reservation.exhausted
        assert reservation.remaining_us == 0

    def test_advance_to_rolls_periods(self):
        reservation = Reservation(proportion_ppt=100, period_us=10_000)
        reservation.used_in_period_us = 500
        elapsed = reservation.advance_to(25_000)
        assert elapsed == 2
        assert reservation.period_start == 20_000
        assert reservation.used_in_period_us == 0

    def test_advance_to_within_period_is_noop(self):
        reservation = Reservation(proportion_ppt=100, period_us=10_000)
        reservation.used_in_period_us = 400
        assert reservation.advance_to(9_999) == 0
        assert reservation.used_in_period_us == 400

    def test_deadline_miss_recorded_when_demand_unmet(self):
        reservation = Reservation(proportion_ppt=100, period_us=10_000)
        reservation.wanted_more = True
        reservation.advance_to(10_000)
        assert reservation.deadline_misses == 1


class TestReservationManagement:
    def test_set_reservation_creates_state(self):
        kernel = make_kernel()
        scheduler = kernel.scheduler
        thread = kernel.spawn("t", spin_body())
        reservation = scheduler.set_reservation(thread, 300, 10_000)
        assert reservation.proportion_ppt == 300
        assert scheduler.reservation(thread) is reservation

    def test_set_reservation_requires_registered_thread(self):
        scheduler = ReservationScheduler()
        thread = SimThread("orphan")
        with pytest.raises(SchedulerError):
            scheduler.set_reservation(thread, 100, 10_000)

    def test_update_preserves_period_window(self):
        kernel = make_kernel()
        scheduler = kernel.scheduler
        thread = kernel.spawn("t", spin_body())
        scheduler.set_reservation(thread, 100, 10_000)
        scheduler.reservation(thread).used_in_period_us = 500
        scheduler.set_reservation(thread, 200, 10_000)
        assert scheduler.reservation(thread).used_in_period_us == 500
        assert scheduler.reservation(thread).proportion_ppt == 200

    def test_changing_period_resets_window(self):
        kernel = make_kernel()
        scheduler = kernel.scheduler
        thread = kernel.spawn("t", spin_body())
        scheduler.set_reservation(thread, 100, 10_000)
        scheduler.reservation(thread).used_in_period_us = 500
        scheduler.set_reservation(thread, 100, 20_000)
        assert scheduler.reservation(thread).used_in_period_us == 0

    def test_clear_reservation_demotes_to_best_effort(self):
        kernel = make_kernel()
        scheduler = kernel.scheduler
        thread = kernel.spawn("t", spin_body())
        scheduler.set_reservation(thread, 100, 10_000)
        scheduler.clear_reservation(thread)
        assert scheduler.reservation(thread) is None
        assert thread.policy is SchedulingPolicy.BEST_EFFORT

    def test_total_reserved(self):
        kernel = make_kernel()
        scheduler = kernel.scheduler
        a = kernel.spawn("a", spin_body())
        b = kernel.spawn("b", spin_body())
        scheduler.set_reservation(a, 100, 10_000)
        scheduler.set_reservation(b, 350, 10_000)
        assert scheduler.total_reserved_ppt() == 450

    def test_reservation_thread_without_proportion_starts_at_zero(self):
        kernel = make_kernel()
        thread = kernel.spawn("t", spin_body())
        reservation = kernel.scheduler.reservation(thread)
        assert reservation is not None
        assert reservation.proportion_ppt == 0


class TestProportionEnforcement:
    @pytest.mark.parametrize("proportion_ppt", [100, 250, 500])
    def test_thread_receives_roughly_its_proportion(self, proportion_ppt):
        kernel = make_kernel()
        scheduler = kernel.scheduler
        thread = kernel.spawn("limited", spin_body())
        idle_soak = kernel.spawn(
            "soak", spin_body(),
        )
        scheduler.set_reservation(thread, proportion_ppt, 10_000)
        scheduler.set_reservation(idle_soak, 1000 - proportion_ppt, 10_000)
        kernel.run_for(1_000_000)
        fraction = thread.accounting.total_us / kernel.now
        # Enforcement is at dispatch granularity, so allow one dispatch
        # interval of overrun per period (10%) plus slack.
        assert fraction == pytest.approx(proportion_ppt / 1000, abs=0.12)

    def test_unused_cpu_goes_idle_when_thread_is_throttled(self):
        kernel = make_kernel()
        thread = kernel.spawn("limited", spin_body())
        kernel.scheduler.set_reservation(thread, 200, 10_000)
        kernel.run_for(100_000)
        fraction = thread.accounting.total_us / kernel.now
        assert fraction < 0.35
        assert kernel.idle_us > 0

    def test_exact_enforcement_removes_overrun(self):
        kernel = Kernel(
            ReservationScheduler(enforce_within_slice=True),
            charge_dispatch_overhead=False,
            syscall_cost_us=0,
        )
        thread = kernel.spawn("limited", spin_body())
        kernel.scheduler.set_reservation(thread, 250, 10_000)
        kernel.run_for(1_000_000)
        fraction = thread.accounting.total_us / kernel.now
        assert fraction == pytest.approx(0.25, abs=0.01)

    def test_zero_proportion_thread_never_runs(self):
        kernel = make_kernel()
        thread = kernel.spawn("starved", spin_body())
        kernel.scheduler.set_reservation(thread, 0, 10_000)
        other = kernel.spawn("other", spin_body())
        kernel.scheduler.set_reservation(other, 500, 10_000)
        kernel.run_for(100_000)
        assert thread.accounting.total_us == 0


class TestRateMonotonicOrdering:
    def test_shorter_period_preferred_at_dispatch(self):
        kernel = make_kernel()
        scheduler = kernel.scheduler
        long_thread = kernel.spawn("long", spin_body())
        short_thread = kernel.spawn("short", spin_body())
        scheduler.set_reservation(long_thread, 400, 100_000)
        scheduler.set_reservation(short_thread, 400, 10_000)
        picked = scheduler.pick_next(kernel.now)
        assert picked is short_thread

    def test_best_effort_runs_only_when_reservations_idle(self):
        kernel = make_kernel()
        scheduler = kernel.scheduler
        reserved = kernel.spawn("reserved", spin_body())
        scheduler.set_reservation(reserved, 300, 10_000)
        best_effort = [
            kernel.spawn(f"be{i}", spin_body(), policy=SchedulingPolicy.BEST_EFFORT)
            for i in range(10)
        ]
        kernel.run_for(1_000_000)
        reserved_fraction = reserved.accounting.total_us / kernel.now
        best_effort_fraction = (
            sum(t.accounting.total_us for t in best_effort) / kernel.now
        )
        assert reserved_fraction == pytest.approx(0.3, abs=0.12)
        # Best effort mops up the rest of the machine, one dispatch per
        # 1 ms burst, and no hog starves.
        assert best_effort_fraction == pytest.approx(1 - reserved_fraction, abs=0.02)
        assert kernel.dispatch_count >= 980
        assert all(t.accounting.dispatches > 0 for t in best_effort)

    def test_two_reservations_both_met_when_feasible(self):
        kernel = make_kernel()
        scheduler = kernel.scheduler
        a = kernel.spawn("a", spin_body())
        b = kernel.spawn("b", spin_body())
        scheduler.set_reservation(a, 300, 10_000)
        scheduler.set_reservation(b, 300, 30_000)
        kernel.run_for(1_000_000)
        assert a.accounting.total_us / kernel.now == pytest.approx(0.3, abs=0.12)
        assert b.accounting.total_us / kernel.now == pytest.approx(0.3, abs=0.12)

    def test_next_wakeup_reports_replenishment_time(self):
        kernel = make_kernel()
        scheduler = kernel.scheduler
        thread = kernel.spawn("t", spin_body())
        scheduler.set_reservation(thread, 100, 10_000)
        kernel.run_for(2_000)  # thread has consumed its 1 ms budget by now
        wakeup = scheduler.next_wakeup(kernel.now)
        assert wakeup is not None
        assert wakeup % 10_000 == 0

    def test_deadline_miss_counter_accumulates_under_demand(self):
        kernel = make_kernel()
        scheduler = kernel.scheduler
        thread = kernel.spawn("greedy", spin_body())
        scheduler.set_reservation(thread, 100, 10_000)
        # A periodic job (1.5 ms of work every 10 ms) in a 17% reservation,
        # next to longer-period hogs that want the rest of the CPU.
        job = kernel.spawn("periodic", periodic_body(1_500, 10_000))
        scheduler.set_reservation(job, 170, 10_000)
        for i in range(3):
            scheduler.set_reservation(kernel.spawn(f"hog{i}", spin_body()), 200, 30_000)
        kernel.run_for(200_000)
        # The greedy thread always wants more than 10% so every period
        # records unmet demand.
        assert scheduler.reservation(thread).deadline_misses >= 15
        assert scheduler.deadline_misses() >= 15
        # Rate-monotonic order serves the periodic job first: it meets
        # every deadline and gets all of its work done.
        assert scheduler.reservation(job).deadline_misses == 0
        assert job.accounting.total_us == 20 * 1_500

    def test_exited_thread_is_removed(self):
        kernel = make_kernel()
        thread = kernel.spawn("finite", finite_body(3_000))
        kernel.scheduler.set_reservation(thread, 500, 10_000)
        kernel.run_for(100_000)
        assert thread.state is ThreadState.EXITED
        assert thread not in kernel.scheduler.threads()
