"""Integration tests for the assembled real-rate system facade."""

from repro.core.config import ControllerConfig
from repro.core.taxonomy import ThreadSpec
from repro.ipc.roles import Role
from repro.ipc.tty import TTY
from repro.sim.clock import seconds
from repro.sim.requests import Compute, Get, Put
from repro.system import build_real_rate_system

from tests.conftest import spin_body


class TestBuildRealRateSystem:
    def test_components_are_wired(self):
        system = build_real_rate_system()
        assert system.kernel.scheduler is system.scheduler
        assert system.allocator.scheduler is system.scheduler
        assert system.allocator.registry is system.registry
        assert system.driver.allocator is system.allocator

    def test_spawn_controlled_registers_with_allocator(self):
        system = build_real_rate_system()
        thread = system.spawn_controlled("t", spin_body())
        assert thread in system.allocator.controlled_threads()

    def test_open_queue_registers_roles(self):
        system = build_real_rate_system()
        producer = system.spawn_controlled("p", spin_body())
        consumer = system.spawn_controlled("c", spin_body())
        queue = system.open_queue("q", producer, consumer, capacity_bytes=512)
        roles = {
            l.thread.name: l.role for l in system.registry.linkages_on(queue)
        }
        assert roles == {"p": Role.PRODUCER, "c": Role.CONSUMER}
        assert queue.capacity_bytes == 512

    def test_link_existing_channel(self):
        system = build_real_rate_system()
        thread = system.spawn_controlled("editor", spin_body())
        tty = TTY("tty0")
        system.link(thread, tty, Role.CONSUMER)
        assert system.registry.has_progress_metric(thread)

    def test_run_for_advances_time(self):
        system = build_real_rate_system()
        system.run_for(seconds(0.5))
        assert system.now == seconds(0.5)

    def test_custom_config_respected(self):
        config = ControllerConfig(controller_period_us=5_000)
        system = build_real_rate_system(config)
        assert system.driver.period_us == 5_000
        system.run_for(50_000)
        assert system.driver.invocations == 10

    def test_overheads_can_be_disabled(self):
        system = build_real_rate_system(
            charge_dispatch_overhead=False, charge_controller_overhead=False
        )
        system.spawn_controlled("hog", spin_body())
        system.run_for(seconds(1))
        assert system.kernel.stolen_us == 0

    def test_overheads_charged_by_default(self):
        system = build_real_rate_system()
        system.spawn_controlled("hog", spin_body())
        system.run_for(seconds(1))
        assert system.kernel.stolen_dispatch_us > 0
        assert system.kernel.stolen_controller_us > 0


class TestEndToEndPipeline:
    def test_three_stage_pipeline_reaches_steady_state(self):
        """A producer -> filter -> consumer chain all under feedback."""
        system = build_real_rate_system(
            charge_dispatch_overhead=False, charge_controller_overhead=False
        )

        q1_capacity = 4_000
        q2_capacity = 4_000

        def source_body(env):
            while True:
                yield Compute(1_000)
                yield Put(q1, 20)

        def filter_body(env):
            while True:
                yield Get(q1, 20)
                yield Compute(2_000)
                yield Put(q2, 20)

        def sink_body(env):
            while True:
                yield Get(q2, 20)
                yield Compute(500)

        source2 = system.spawn_controlled(
            "source2", source_body,
            spec=ThreadSpec(proportion_ppt=150, period_us=10_000),
        )
        filt = system.spawn_controlled("filter", filter_body)
        sink = system.spawn_controlled("sink", sink_body)
        q1 = system.open_queue("q1", source2, filt, capacity_bytes=q1_capacity)
        q2 = system.open_queue("q2", filt, sink, capacity_bytes=q2_capacity)

        system.run_for(seconds(5))

        # The filter needs roughly twice the source's CPU (2 ms vs 1 ms
        # per block); the controller must discover that.
        filter_ppt = system.allocator.current_allocation_ppt(filt)
        source_share = source2.accounting.total_us / system.now
        filter_share = filt.accounting.total_us / system.now
        assert filter_share > source_share * 1.4
        assert filter_ppt > 150
        # Queues are under control (not saturated).
        assert 0.05 < q1.fill_level() < 0.95
        assert 0.05 < q2.fill_level() < 0.95

    def test_total_allocation_stays_under_threshold_with_many_jobs(self):
        system = build_real_rate_system(
            charge_dispatch_overhead=False, charge_controller_overhead=False
        )
        for i in range(6):
            system.spawn_controlled(f"hog{i}", spin_body())
        system.run_for(seconds(3))
        total = system.scheduler.total_reserved_ppt()
        assert total <= system.allocator.config.overload_threshold_ppt + 6

    def test_cpu_accounting_conserved(self):
        system = build_real_rate_system()
        for i in range(3):
            system.spawn_controlled(f"hog{i}", spin_body())
        system.run_for(seconds(1))
        kernel = system.kernel
        busy = kernel.total_thread_cpu_us()
        assert busy + kernel.idle_us + kernel.stolen_us == kernel.now
