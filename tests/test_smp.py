"""Multi-CPU kernel, placement and capacity-scaled admission tests."""

import pytest

from repro.core.config import PROPORTION_SCALE
from repro.core.errors import AdmissionError
from repro.core.taxonomy import ThreadSpec
from repro.sched.placement import LeastLoadedPlacement, PinnedPlacement
from repro.sched.rbs import ReservationScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.errors import SimulationError
from repro.sim.kernel import Kernel
from repro.sim.thread import SimThread
from repro.system import build_real_rate_system
from repro.workloads.webfarm import WebFarm

from tests.conftest import finite_body, heaviest_first, spin_body


def make_kernel(n_cpus, scheduler=None):
    return Kernel(
        scheduler if scheduler is not None else RoundRobinScheduler(),
        n_cpus=n_cpus,
        charge_dispatch_overhead=False,
        syscall_cost_us=0,
    )


class TestKernelSMP:
    def test_rejects_zero_cpus(self):
        with pytest.raises(ValueError):
            Kernel(RoundRobinScheduler(), n_cpus=0)

    def test_two_cpus_run_two_hogs_in_parallel(self):
        kernel = make_kernel(2)
        a = kernel.spawn("a", spin_body())
        b = kernel.spawn("b", spin_body())
        kernel.run_for(50_000)
        # Both hogs get a full CPU each: twice the work of one CPU.
        assert a.accounting.total_us == 50_000
        assert b.accounting.total_us == 50_000
        assert kernel.idle_us == 0

    def test_single_thread_leaves_other_cpus_idle(self):
        kernel = make_kernel(4)
        t = kernel.spawn("solo", spin_body())
        kernel.run_for(10_000)
        assert t.accounting.total_us == 10_000
        # 3 CPUs idle the whole run.
        assert kernel.idle_us == 30_000
        per_cpu = sorted(c.idle_us for c in kernel.cpu_states)
        assert per_cpu == [0, 10_000, 10_000, 10_000]

    def test_conservation_identity_holds_on_smp(self):
        kernel = make_kernel(3)
        kernel.spawn("a", finite_body(20_000))
        kernel.spawn("b", finite_body(5_000))
        kernel.run_for(40_000)
        assert kernel.conservation_gap_us() == 0

    def test_per_cpu_dispatch_counts_aggregate(self):
        kernel = make_kernel(2)
        kernel.spawn("a", spin_body())
        kernel.spawn("b", spin_body())
        kernel.run_for(10_000)
        assert kernel.dispatch_count == sum(c.dispatches for c in kernel.cpu_states)
        assert all(c.dispatches > 0 for c in kernel.cpu_states)

    def test_pinned_threads_never_migrate(self):
        kernel = Kernel(
            RoundRobinScheduler(),
            n_cpus=2,
            charge_dispatch_overhead=False,
            syscall_cost_us=0,
            record_dispatches=True,
        )
        kernel.spawn("pinned0", spin_body(), affinity=0)
        kernel.spawn("pinned1", spin_body(), affinity=1)
        kernel.run_for(20_000)
        for _, cpu, name, _, _ in kernel.dispatch_log:
            assert cpu == int(name[-1])

    def test_pin_beyond_cpu_count_rejected(self):
        kernel = make_kernel(2)
        with pytest.raises(SimulationError):
            kernel.spawn("bad", spin_body(), affinity=2)

    def test_negative_affinity_rejected(self):
        with pytest.raises(ValueError):
            SimThread("bad", affinity=-1)


class TestPlacement:
    def _threads(self, n):
        return [SimThread(f"t{i}") for i in range(n)]

    def test_least_loaded_balances_equal_weights(self):
        threads = self._threads(4)
        mapping = LeastLoadedPlacement().assign(heaviest_first(threads), 2)
        per_cpu = [sum(1 for c in mapping.values() if c == i) for i in range(2)]
        assert per_cpu == [2, 2]

    def test_least_loaded_balances_by_weight(self):
        threads = self._threads(3)
        weights = {threads[0].tid: 900.0, threads[1].tid: 500.0,
                   threads[2].tid: 400.0}
        mapping = LeastLoadedPlacement().assign(
            heaviest_first(threads, lambda t: weights[t.tid]), 2
        )
        # Heaviest goes alone; the two lighter ones share the other CPU.
        assert mapping[threads[0].tid] != mapping[threads[1].tid]
        assert mapping[threads[1].tid] == mapping[threads[2].tid]

    def test_least_loaded_honours_affinity(self):
        threads = self._threads(3)
        threads[0].pin_to(1)
        mapping = LeastLoadedPlacement().assign(heaviest_first(threads), 2)
        assert mapping[threads[0].tid] == 1

    def test_pinned_placement_is_static(self):
        threads = self._threads(4)
        threads[2].pin_to(0)
        mapping = PinnedPlacement().assign(heaviest_first(threads), 2)
        assert mapping[threads[2].tid] == 0
        for t in (threads[0], threads[1], threads[3]):
            assert mapping[t.tid] == t.tid % 2

    def test_rbs_placement_weight_uses_reservation(self):
        scheduler = ReservationScheduler()
        kernel = make_kernel(2, scheduler)
        heavy = kernel.spawn("heavy", spin_body())
        light = kernel.spawn("light", spin_body())
        scheduler.set_reservation(heavy, 800, 10_000)
        scheduler.set_reservation(light, 100, 10_000)
        assert scheduler.placement_weight(heavy) == 800.0
        assert scheduler.placement_weight(light) == 100.0


class TestCapacityScaling:
    def test_reservation_scheduler_capacity(self):
        scheduler = ReservationScheduler()
        make_kernel(4, scheduler)
        assert scheduler.capacity_ppt() == 4 * PROPORTION_SCALE

    def test_total_reservations_can_exceed_one_cpu_on_smp(self):
        system = build_real_rate_system(n_cpus=4)
        for i in range(3):
            system.spawn_controlled(
                f"rt{i}", spin_body(),
                spec=ThreadSpec(proportion_ppt=700, period_us=10_000),
            )
        # 2100 ppt admitted: impossible on one CPU, fine on four.
        assert system.scheduler.total_reserved_ppt() == 2_100

    def test_admission_rejects_single_thread_beyond_one_cpu(self):
        system = build_real_rate_system(n_cpus=4)
        with pytest.raises(AdmissionError):
            system.spawn_controlled(
                "huge", spin_body(),
                spec=ThreadSpec(proportion_ppt=950, period_us=10_000),
            )

    def test_admission_rejects_beyond_scaled_total(self):
        system = build_real_rate_system(n_cpus=2)
        for i in range(2):
            system.spawn_controlled(
                f"rt{i}", spin_body(),
                spec=ThreadSpec(proportion_ppt=800, period_us=10_000),
            )
        with pytest.raises(AdmissionError):
            system.spawn_controlled(
                "overflow", spin_body(),
                spec=ThreadSpec(proportion_ppt=400, period_us=10_000),
            )

    def test_admission_rejects_unpackable_unpinned_set(self):
        # 5 x 640 ppt totals 3200 < 3600, but five reservations cannot
        # be packed onto four CPUs without one CPU exceeding capacity:
        # the partitioned admission test must reject the fifth.
        system = build_real_rate_system(n_cpus=4)
        for i in range(4):
            system.spawn_controlled(
                f"rt{i}", spin_body(),
                spec=ThreadSpec(proportion_ppt=640, period_us=10_000),
            )
        with pytest.raises(AdmissionError):
            system.spawn_controlled(
                "rt4", spin_body(),
                spec=ThreadSpec(proportion_ppt=640, period_us=10_000),
            )

    def test_pin_after_add_validates_cpu_range(self):
        kernel = make_kernel(2)
        thread = kernel.spawn("t", spin_body())
        with pytest.raises(ValueError):
            thread.pin_to(7)
        thread.pin_to(1)  # in range: fine
        assert thread.affinity == 1

    def test_per_cpu_admission_for_pinned_threads(self):
        system = build_real_rate_system(n_cpus=2)
        system.spawn_controlled(
            "pinned_a", spin_body(),
            spec=ThreadSpec(proportion_ppt=600, period_us=10_000),
            affinity=0,
        )
        # Another 600 ppt fits the aggregate budget (1800) but not
        # CPU 0's own 900 ppt admission threshold.
        with pytest.raises(AdmissionError):
            system.spawn_controlled(
                "pinned_b", spin_body(),
                spec=ThreadSpec(proportion_ppt=600, period_us=10_000),
                affinity=0,
            )
        # The same reservation pinned to the other CPU is admitted.
        system.spawn_controlled(
            "pinned_c", spin_body(),
            spec=ThreadSpec(proportion_ppt=600, period_us=10_000),
            affinity=1,
        )

    def test_overload_squish_uses_scaled_threshold(self):
        # Demand beyond one CPU's threshold is NOT squished on 4 CPUs.
        system = build_real_rate_system(n_cpus=4)
        farm = WebFarm.attach(system, n_servers=6, requests_per_second=150.0,
                              service_cpu_us=1_500)
        system.run_for(1_000_000)
        decisions = system.driver.last_decisions
        assert decisions
        total_granted = sum(d.granted_ppt for d in decisions)
        assert total_granted <= system.allocator.config.overload_threshold_total_ppt(4)

    def test_smp_farm_outperforms_single_cpu(self):
        def throughput(n_cpus):
            system = build_real_rate_system(n_cpus=n_cpus)
            farm = WebFarm.attach(system, n_servers=6,
                                  requests_per_second=150.0,
                                  service_cpu_us=1_500)
            system.run_for(1_500_000)
            return farm.total_served()

        assert throughput(4) > 1.3 * throughput(1)
