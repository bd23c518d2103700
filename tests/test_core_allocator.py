"""Unit and integration tests for the ProportionAllocator and driver."""

import dataclasses

import pytest

from repro.core.allocator import ProportionAllocator
from repro.core.config import ControllerConfig
from repro.core.driver import ControllerOverheadModel
from repro.core.errors import AdmissionError, ControllerError
from repro.core.taxonomy import ThreadClass, ThreadSpec
from repro.ipc.bounded_buffer import BoundedBuffer
from repro.ipc.registry import SymbioticRegistry
from repro.ipc.roles import Role
from repro.sched.rbs import ReservationScheduler
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Get
from repro.sim.thread import SchedulingPolicy
from repro.sim.trace import Tracer
from repro.system import build_real_rate_system

from tests import figure4_oracle as oracle
from tests.conftest import consumer_body, finite_body, producer_body, spin_body


def make_setup():
    scheduler = ReservationScheduler()
    kernel = Kernel(scheduler, charge_dispatch_overhead=False, syscall_cost_us=0)
    registry = SymbioticRegistry()
    allocator = ProportionAllocator(scheduler, registry, ControllerConfig())
    return kernel, scheduler, registry, allocator


class TestRegistration:
    def test_register_and_classify_misc(self):
        kernel, scheduler, registry, allocator = make_setup()
        threads = [kernel.spawn(f"hog{i}", spin_body()) for i in range(40)]
        for thread in threads:
            allocator.register(thread)
        decisions = allocator.update(now=10_000)
        assert [d.thread for d in decisions] == threads
        assert all(
            d.thread_class is ThreadClass.MISCELLANEOUS for d in decisions
        )

    def test_register_real_time_actuates_immediately(self):
        kernel, scheduler, registry, allocator = make_setup()
        thread = kernel.spawn("rt", spin_body())
        allocator.register(thread, ThreadSpec(proportion_ppt=300, period_us=10_000))
        reservation = scheduler.reservation(thread)
        assert reservation.proportion_ppt == 300
        assert reservation.period_us == 10_000

    def test_double_registration_rejected(self):
        kernel, _, _, allocator = make_setup()
        thread = kernel.spawn("t", spin_body())
        allocator.register(thread)
        with pytest.raises(ControllerError):
            allocator.register(thread)

    def test_admission_control_rejects_oversubscription(self):
        kernel, _, _, allocator = make_setup()
        first = kernel.spawn("rt1", spin_body())
        allocator.register(first, ThreadSpec(proportion_ppt=600, period_us=10_000))
        second = kernel.spawn("rt2", spin_body())
        with pytest.raises(AdmissionError):
            allocator.register(
                second, ThreadSpec(proportion_ppt=500, period_us=10_000)
            )

    def test_unregister_clears_reservation(self):
        kernel, scheduler, _, allocator = make_setup()
        thread = kernel.spawn("t", spin_body())
        allocator.register(thread, ThreadSpec(proportion_ppt=200, period_us=10_000))
        allocator.unregister(thread)
        assert scheduler.reservation(thread) is None
        assert thread not in allocator.controlled_threads()

    def test_reregistered_thread_starts_from_a_fresh_record(self):
        """Unregister + register (what the period ablation and the
        watchdog do) drops the Figure 4 state and the usage baseline:
        the first tick after it sees interval 0 and used 0, and steps
        the law from integral 0 and reclaim count 0."""
        kernel, _, _, allocator = make_setup()
        config = allocator.config
        thread = kernel.spawn("hog", spin_body())
        allocator.register(thread)
        now = 0
        # The hog never runs, so its allocation goes unused and the
        # reclaim rule fires.
        for _ in range(20):
            allocator.update(now)
            now += config.controller_period_us
        state = allocator._controlled[thread.tid]
        assert state.integral > 0.0 and state.reclaim_count > 0
        thread.accounting.charge(7_000)

        allocator.unregister(thread)
        allocator.register(thread)
        state = allocator._controlled[thread.tid]
        assert (state.integral, state.reclaim_count, state.last_total_us) == (
            0.0, 0, None
        )
        (decision,) = allocator.update(now)

        reference = oracle.State()
        usage = oracle.sample_usage(reference, thread.accounting.total_us, now, 0)
        assert usage == (0, 0, 0)
        expected = oracle.estimate(
            reference, config, config.misc_pressure, usage, 0,
            config.controller_period_s,
        )
        assert state.integral == config.misc_pressure * config.controller_period_s
        assert (state.reclaim_count, state.usage_ratio_ema) == (0, 1.0)
        assert (state.last_total_us, state.last_sample_us) == (7_000, now)
        assert decision.desired_ppt == expected.desired_ppt
        assert decision.cumulative_pressure == expected.cumulative_pressure
        for field in dataclasses.fields(oracle.State):
            assert getattr(state, field.name) == getattr(reference, field.name)

    def test_spec_for_unknown_thread_raises(self):
        kernel, _, _, allocator = make_setup()
        thread = kernel.spawn("t", spin_body())
        with pytest.raises(ControllerError):
            allocator.spec_for(thread)

    def test_exited_threads_dropped_on_update(self):
        kernel, _, _, allocator = make_setup()

        def brief(env):
            yield Compute(100)

        thread = kernel.spawn("brief", brief)
        allocator.register(thread)
        allocator.update(now=kernel.now)  # grants the thread an allocation
        kernel.run_for(10_000)            # thread runs its 100 us and exits
        allocator.update(now=kernel.now)
        assert thread not in allocator.controlled_threads()


class TestActuation:
    def test_one_actuate_call_per_tick(self, monkeypatch):
        """A tick actuates every grant in one ``actuate`` call; only a
        thread without a reservation (a best-effort spawn) goes through
        ``set_reservation``, once, to create one."""
        kernel, scheduler, _, allocator = make_setup()
        rt = kernel.spawn("rt", spin_body())
        allocator.register(rt, ThreadSpec(proportion_ppt=200, period_us=10_000))
        best_effort = kernel.spawn(
            "be", spin_body(), policy=SchedulingPolicy.BEST_EFFORT
        )
        hogs = [best_effort] + [kernel.spawn(f"hog{i}", spin_body()) for i in range(3)]
        for thread in hogs:
            allocator.register(thread)
        actuations = []
        resized = []
        actuate = scheduler.actuate
        set_reservation = scheduler.set_reservation

        def spy_actuate(threads, *args):
            actuations.append(list(threads))
            return actuate(threads, *args)

        def spy_set_reservation(thread, *args, **kwargs):
            resized.append(thread)
            return set_reservation(thread, *args, **kwargs)

        monkeypatch.setattr(scheduler, "actuate", spy_actuate)
        monkeypatch.setattr(scheduler, "set_reservation", spy_set_reservation)
        for tick in range(1, 4):
            decisions = allocator.update(now=tick * 10_000)
            assert actuations == [[rt, *hogs]]
            # Only the first tick meets a thread with no reservation.
            assert resized == ([best_effort] if tick == 1 else [])
            assert [
                scheduler.reservation(d.thread).proportion_ppt for d in decisions
            ] == [d.granted_ppt for d in decisions]
            actuations.clear()
            resized.clear()


class TestDecisions:
    def test_real_time_allocation_never_changes(self):
        kernel, scheduler, _, allocator = make_setup()
        thread = kernel.spawn("rt", spin_body())
        allocator.register(thread, ThreadSpec(proportion_ppt=250, period_us=20_000))
        for step in range(1, 20):
            decisions = allocator.update(now=step * 10_000)
        decision = [d for d in decisions if d.thread is thread][0]
        assert decision.granted_ppt == 250
        assert decision.thread_class is ThreadClass.REAL_TIME
        assert scheduler.reservation(thread).proportion_ppt == 250

    def test_aperiodic_gets_default_period(self):
        kernel, scheduler, _, allocator = make_setup()
        thread = kernel.spawn("aperiodic", spin_body())
        allocator.register(thread, ThreadSpec(proportion_ppt=150))
        allocator.update(now=10_000)
        reservation = scheduler.reservation(thread)
        assert reservation.proportion_ppt == 150
        assert reservation.period_us == allocator.config.default_period_us

    def test_real_rate_thread_with_full_queue_gains_allocation(self):
        kernel, scheduler, registry, allocator = make_setup()
        queue = BoundedBuffer("q", 1_000)
        queue.commit_put(1_000)
        thread = kernel.spawn("consumer", spin_body())
        registry.register(thread, queue, Role.CONSUMER)
        allocator.register(thread)
        previous = 0
        for step in range(1, 30):
            decisions = allocator.update(now=step * 10_000)
            decision = decisions[0]
        assert decision.thread_class is ThreadClass.REAL_RATE
        assert decision.pressure_raw == pytest.approx(0.5)
        # The thread never actually runs in this test (the kernel is not
        # driven), so the reclaim rule caps how far the allocation can
        # climb; it must still have risen well above the floor.
        assert decision.granted_ppt > allocator.config.min_proportion_ppt * 10

    def test_interactive_period_pinned(self):
        kernel, scheduler, registry, allocator = make_setup()
        from repro.ipc.tty import TTY

        tty = TTY("tty0")
        thread = kernel.spawn("editor", spin_body())
        registry.register(thread, tty, Role.CONSUMER)
        allocator.register(thread, ThreadSpec(interactive=True))
        allocator.update(now=10_000)
        assert (
            scheduler.reservation(thread).period_us
            == allocator.config.interactive_period_us
        )

    def test_misc_threads_grow_until_overload_then_share(self):
        kernel, scheduler, _, allocator = make_setup()
        threads = [kernel.spawn(f"hog{i}", spin_body()) for i in range(3)]
        for thread in threads:
            allocator.register(thread)
        kernel.run_for(20_000)
        for step in range(2, 200):
            allocator.update(now=step * 10_000)
        allocations = [allocator.current_allocation_ppt(t) for t in threads]
        total = sum(allocations)
        assert total <= allocator.config.overload_threshold_ppt + 3
        assert max(allocations) - min(allocations) <= 30

    def test_minimum_allocation_guarantee(self):
        kernel, _, _, allocator = make_setup()
        threads = [kernel.spawn(f"hog{i}", spin_body()) for i in range(10)]
        for thread in threads:
            allocator.register(thread)
        for step in range(1, 100):
            allocator.update(now=step * 10_000)
        for thread in threads:
            assert (
                allocator.current_allocation_ppt(thread)
                >= allocator.config.min_proportion_ppt
            )

    def test_total_allocated_reported(self):
        kernel, scheduler, _, allocator = make_setup()
        thread = kernel.spawn("rt", spin_body())
        allocator.register(thread, ThreadSpec(proportion_ppt=100, period_us=10_000))
        assert scheduler.total_reserved_ppt() == 100


class TestOverloadResolution:
    def test_real_time_protected_from_squish(self):
        kernel, scheduler, _, allocator = make_setup()
        rt = kernel.spawn("rt", spin_body())
        allocator.register(rt, ThreadSpec(proportion_ppt=400, period_us=10_000))
        hogs = [kernel.spawn(f"hog{i}", spin_body()) for i in range(3)]
        for hog in hogs:
            allocator.register(hog)
        for step in range(1, 100):
            allocator.update(now=step * 10_000)
        assert scheduler.reservation(rt).proportion_ppt == 400
        hog_total = sum(allocator.current_allocation_ppt(h) for h in hogs)
        assert hog_total <= allocator.config.overload_threshold_ppt - 400 + 3

    def test_real_rate_satisfied_before_misc(self):
        """A real-rate consumer that is genuinely behind out-ranks a hog.

        The consumer's queue is refilled faster than the consumer can
        drain it with a fair-share allocation, so its measured need
        exceeds the hog's constant pseudo-pressure and the two-tier
        overload policy must favour it.
        """
        system = build_real_rate_system(
            charge_dispatch_overhead=False, charge_controller_overhead=False
        )
        queue = BoundedBuffer("q", 10_000)

        def consumer_work(env):
            while True:
                yield Get(queue, 100)
                yield Compute(1_000)

        consumer = system.spawn_controlled("consumer", consumer_work)
        system.link(consumer, queue, Role.CONSUMER)
        hog = system.spawn_controlled("hog", spin_body())

        def refill(now):
            # Offer ~70% of the CPU's worth of work every 10 ms.
            if queue.space_free() >= 700:
                queue.commit_put(700)

        system.kernel.add_periodic(10_000, refill)
        system.run_for(3_000_000)
        consumer_ppt = system.allocator.current_allocation_ppt(consumer)
        hog_ppt = system.allocator.current_allocation_ppt(hog)
        assert consumer_ppt > hog_ppt
        assert consumer.accounting.total_us > hog.accounting.total_us

    def test_quality_exception_raised_when_starved(self):
        config = ControllerConfig(overload_threshold_ppt=400)
        scheduler = ReservationScheduler()
        kernel = Kernel(scheduler, charge_dispatch_overhead=False, syscall_cost_us=0)
        registry = SymbioticRegistry()
        allocator = ProportionAllocator(scheduler, registry, config)

        seen = []
        queue = BoundedBuffer("q", 1_000)
        queue.commit_put(1_000)  # saturated full, consumer hopelessly behind
        consumer = kernel.spawn("consumer", spin_body())
        registry.register(consumer, queue, Role.CONSUMER)
        allocator.register(
            consumer, ThreadSpec(quality_callback=lambda exc: seen.append(exc))
        )
        rt = kernel.spawn("rt", spin_body())
        allocator.register(rt, ThreadSpec(proportion_ppt=390, period_us=10_000))
        other = kernel.spawn("rr", spin_body())
        other_queue = BoundedBuffer("q2", 100)
        registry.register(other, other_queue, Role.CONSUMER)
        allocator.register(other)
        # Saturate q2 too so both real-rate threads demand allocation.
        other_queue.commit_put(100)
        for step in range(1, 80):
            allocator.update(now=step * 10_000)
        assert allocator.quality_exceptions
        assert seen
        assert seen[0].granted_ppt < seen[0].desired_ppt


class TestControllerDriver:
    def test_driver_runs_periodically(self):
        system = build_real_rate_system(
            charge_dispatch_overhead=False, charge_controller_overhead=False
        )
        system.kernel.run_for(100_000)
        # Fires at t = 0, 10 ms, ..., 90 ms; the end time is exclusive.
        assert system.driver.invocations == 10

    def test_driver_records_allocation_traces(self):
        system = build_real_rate_system(
            charge_dispatch_overhead=False, charge_controller_overhead=False
        )
        thread = system.spawn_controlled("hog", spin_body())
        system.kernel.run_for(50_000)
        assert f"alloc:{thread.name}" in system.kernel.tracer

    def test_overhead_model_linear(self):
        model = ControllerOverheadModel(fixed_us=5.0, per_thread_us=2.0)
        assert model.cost_us(0) == 5.0
        assert model.cost_us(10) == 25.0

    def test_overhead_model_validation(self):
        with pytest.raises(ValueError):
            ControllerOverheadModel(fixed_us=-1)
        with pytest.raises(ValueError):
            ControllerOverheadModel().cost_us(-1)

    def test_driver_charges_overhead_as_stolen_time(self):
        system = build_real_rate_system(charge_dispatch_overhead=False)
        for i in range(5):
            system.spawn_controlled(f"hog{i}", spin_body())
        system.kernel.run_for(1_000_000)
        assert system.kernel.stolen_controller_us > 0

    def test_driver_stop(self):
        system = build_real_rate_system(
            charge_dispatch_overhead=False, charge_controller_overhead=False
        )
        system.kernel.run_for(20_000)
        invocations = system.driver.invocations
        system.driver.stop()
        system.kernel.run_for(50_000)
        assert system.driver.invocations == invocations


class TestDriverTracePath:
    """The driver's allocation traces obey the TraceSeries contract:
    the same ordering error, and the same samples as recording each
    decision through TraceSeries.append."""

    @pytest.mark.parametrize(
        "name,after_ticks",
        [
            ("alloc:hog", 3),
            ("pressure:hog", 3),
            ("alloc:total", 3),
            ("alloc:hog", 0),
            ("pressure:hog", 0),
        ],
    )
    def test_later_foreign_sample_raises_ordering_error(self, name, after_ticks):
        system = build_real_rate_system(
            charge_dispatch_overhead=False, charge_controller_overhead=False
        )
        system.spawn_controlled("hog", spin_body())
        period = system.driver.period_us
        system.kernel.run_for(after_ticks * period)
        late = 10 * period * (after_ticks + 1)
        system.kernel.tracer.record(name, late, 1.0)
        with pytest.raises(ValueError) as excinfo:
            system.kernel.run_for(period)
        now = after_ticks * period
        assert str(excinfo.value) == (
            f"series {name!r}: sample at {now}us is earlier than "
            f"previous sample at {late}us"
        )

    @pytest.mark.parametrize("n_cpus", [1, 4])
    def test_traces_equal_decisions_appended_one_by_one(self, n_cpus):
        system = build_real_rate_system(n_cpus=n_cpus, record_dispatches=True)
        for i in range(3 * n_cpus):
            system.spawn_controlled(
                f"hog{i}", spin_body(), spec=ThreadSpec(importance=1.0 + i % 3)
            )
        system.spawn_controlled("finite", finite_body(60_000))
        queue = BoundedBuffer("q", 4_000)
        producer = system.spawn_controlled("producer", producer_body(queue, 200, 800))
        consumer = system.spawn_controlled("consumer", consumer_body(queue, 200, 1_200))
        system.registry.register_pair(producer, consumer, queue)
        system.spawn_controlled(
            "rt", spin_body(), spec=ThreadSpec(proportion_ppt=100, period_us=20_000)
        )

        allocator = system.allocator
        update = allocator.update
        ticks = []

        def spy(now):
            ticks.append(now)
            return update(now)

        allocator.update = spy
        expected = Tracer()
        period = system.driver.period_us
        for tick in range(40):
            system.kernel.run_for(period)
            assert len(ticks) == tick + 1
            now = ticks[-1]
            total = 0
            for decision in system.driver.last_decisions:
                name = decision.thread.name
                expected.series(f"alloc:{name}").append(now, decision.granted_ppt)
                total += decision.granted_ppt
                if decision.cumulative_pressure is not None:
                    expected.series(f"pressure:{name}").append(
                        now, decision.cumulative_pressure
                    )
            expected.series("alloc:total").append(now, total)

        tracer = system.kernel.tracer
        assert sorted(tracer.names()) == sorted(expected.names())
        assert "pressure:rt" not in tracer
        assert tracer.fingerprint() == expected.fingerprint()
