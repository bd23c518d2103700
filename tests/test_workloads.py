"""Integration tests for the workload library running on the full system."""

import pytest

from repro.sched.priority import FixedPriorityScheduler
from repro.sim.clock import seconds
from repro.sim.kernel import Kernel
from repro.system import build_real_rate_system
from repro.workloads.cpu_hog import CpuHog
from repro.workloads.interactive import InteractiveJob
from repro.workloads.inversion import InversionScenario
from repro.workloads.pipeline import MultimediaPipeline, PipelineStageSpec
from repro.workloads.pulse import PulsePipeline, PulseSchedule, RateSegment
from repro.workloads.webserver import WebServer


def quiet_system(**kwargs):
    return build_real_rate_system(
        charge_dispatch_overhead=False, charge_controller_overhead=False, **kwargs
    )


class TestPulseSchedule:
    def test_default_rate_outside_segments(self):
        schedule = PulseSchedule([], default_rate=0.02)
        assert schedule.rate_at(0) == 0.02
        assert schedule.rate_at(10_000_000) == 0.02

    def test_segment_rate_applies_inside_window(self):
        schedule = PulseSchedule(
            [RateSegment(1_000_000, 2_000_000, 0.04)], default_rate=0.02
        )
        assert schedule.rate_at(999_999) == 0.02
        assert schedule.rate_at(1_000_000) == 0.04
        assert schedule.rate_at(1_999_999) == 0.04
        assert schedule.rate_at(2_000_000) == 0.02

    def test_invalid_segment(self):
        with pytest.raises(ValueError):
            RateSegment(100, 100, 0.01)
        with pytest.raises(ValueError):
            RateSegment(0, 100, 0.0)

    def test_paper_schedule_structure(self):
        schedule = PulseSchedule.paper_figure6(0.01)
        windows = schedule.pulse_windows
        assert len(windows) == 6
        rising = [w for w in windows if w[2]]
        falling = [w for w in windows if not w[2]]
        assert len(rising) == 3 and len(falling) == 3
        # Rising pulses double the rate; falling pulses dip back down.
        for start, end, _ in rising:
            assert schedule.rate_at((start + end) // 2) == pytest.approx(0.02)
        for start, end, _ in falling:
            assert schedule.rate_at((start + end) // 2) == pytest.approx(0.01)
        # The tail after the rising pulses runs at the high baseline.
        tail = schedule.high_baseline_start_us
        assert schedule.rate_at(tail + 1_000) == pytest.approx(0.02)

    def test_end_us(self):
        schedule = PulseSchedule.paper_figure6(0.01)
        assert schedule.end_us() > 20_000_000


class TestPulsePipeline:
    def test_steady_state_convergence(self):
        system = quiet_system()
        schedule = PulseSchedule([], default_rate=0.01)
        pipeline = PulsePipeline.attach(system, schedule=schedule)
        system.run_for(seconds(4))
        # The queue settles near the half-full set point…
        assert pipeline.fill_level() == pytest.approx(0.5, abs=0.15)
        # …and the consumer's allocation is near what matching the
        # producer requires (within the dispatch-quantisation overrun).
        expected = pipeline.expected_consumer_fraction(0.01)
        granted = system.allocator.current_allocation_ppt(pipeline.consumer) / 1000
        assert granted == pytest.approx(expected, abs=0.15)

    def test_consumer_progress_matches_producer(self):
        system = quiet_system()
        schedule = PulseSchedule([], default_rate=0.01)
        pipeline = PulsePipeline.attach(system, schedule=schedule)
        system.run_for(seconds(4))
        put = pipeline.queue.total_put_bytes
        got = pipeline.queue.total_get_bytes
        assert got == pytest.approx(put, rel=0.2)

    def test_producer_byte_rate_helper(self):
        """A 25% producer reservation at 0.01 bytes per CPU-us puts
        about 2,500 bytes per second into the queue."""
        system = quiet_system()
        pipeline = PulsePipeline.attach(
            system, schedule=PulseSchedule([], default_rate=0.01)
        )
        system.run_for(seconds(4))
        assert pipeline.queue.total_put_bytes / 4 == pytest.approx(2_500.0, rel=0.02)

    def test_producer_is_real_time_consumer_is_real_rate(self):
        system = quiet_system()
        pipeline = PulsePipeline.attach(
            system, schedule=PulseSchedule([], default_rate=0.01)
        )
        system.run_for(seconds(1))
        assert system.kernel.dispatch_count > 200
        decisions = {d.thread.name: d for d in system.driver.last_decisions}
        assert decisions["pulse.producer"].thread_class.name == "REAL_TIME"
        assert decisions["pulse.consumer"].thread_class.name == "REAL_RATE"


class TestCpuHog:
    def test_hog_uses_spare_cpu(self):
        system = quiet_system()
        hog = CpuHog.attach(system)
        system.run_for(seconds(2))
        # Most of the idle machine.
        assert hog.thread.accounting.total_us > seconds(1)

    def test_hog_classified_miscellaneous(self):
        system = quiet_system()
        CpuHog.attach(system)
        system.run_for(seconds(1))
        decision = system.driver.last_decisions[0]
        assert decision.thread_class.name == "MISCELLANEOUS"

    def test_invalid_burst(self):
        with pytest.raises(ValueError):
            CpuHog(burst_us=0)


class TestMultimediaPipeline:
    def test_decoder_gets_largest_cpu_share(self):
        system = quiet_system()
        pipeline = MultimediaPipeline.attach(system)
        system.run_for(seconds(5))
        shares = pipeline.cpu_shares()
        decoder = pipeline.decoder_thread()
        # The decoder dominates every other stage's CPU consumption even
        # though nothing declared its requirements.
        for name, share in shares.items():
            if name != decoder.name:
                assert shares[decoder.name] > share

    def test_frames_flow_through_pipeline(self):
        system = quiet_system()
        pipeline = MultimediaPipeline.attach(system)
        system.run_for(seconds(5))
        assert pipeline.frames_delivered > 50

    def test_queue_fill_levels_bounded(self):
        system = quiet_system()
        pipeline = MultimediaPipeline.attach(system)
        system.run_for(seconds(3))
        for queue in pipeline.queues:
            assert 0.0 <= queue.fill_level() <= 1.0

    def test_requires_at_least_one_stage(self):
        system = quiet_system()
        with pytest.raises(ValueError):
            MultimediaPipeline(system, stages=())

    def test_stage_spec_validation(self):
        with pytest.raises(ValueError):
            PipelineStageSpec("bad", 0)


class TestWebServer:
    def test_server_keeps_up_with_offered_load(self):
        system = quiet_system()
        server = WebServer.attach(system, requests_per_second=150.0)
        system.run_for(seconds(4))
        assert server.requests_sent > 400
        # All but a small backlog get served.
        assert server.requests_served >= server.requests_sent * 0.8
        assert server.backlog_requests() < 40

    def test_server_allocation_tracks_load_increase(self):
        def load(now_us):
            return 100.0 if now_us < 3_000_000 else 300.0

        system = quiet_system()
        server = WebServer.attach(system, requests_per_second=load)
        system.run_for(seconds(3))
        early = system.allocator.current_allocation_ppt(server.server)
        system.run_for(seconds(3))
        late = system.allocator.current_allocation_ppt(server.server)
        assert late > early

    def test_required_fraction_helper(self):
        server = WebServer(service_cpu_us=2_000, requests_per_second=100.0)
        assert server.required_fraction() == pytest.approx(0.2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WebServer(request_bytes=0)
        with pytest.raises(ValueError):
            WebServer(service_cpu_us=0)


class TestInteractiveJob:
    def test_keystrokes_answered_quickly_on_busy_system(self):
        system = quiet_system()
        job = InteractiveJob.attach(system, seed=1)
        CpuHog.attach(system)  # saturate the machine
        system.run_for(seconds(5))
        assert job.keystrokes_handled > 10
        # Responses stay within ordinary interactive tolerances even
        # with a hog saturating the CPU.
        assert job.mean_response_latency_us() < 100_000
        assert job.worst_response_latency_us() < 400_000

    def test_latency_recorded_per_keystroke(self):
        system = quiet_system()
        job = InteractiveJob.attach(system, seed=2)
        system.run_for(seconds(2))
        assert len(job.response_latencies_us) == job.keystrokes_handled
        assert all(l >= 0 for l in job.response_latencies_us)


class TestInversionScenario:
    def test_fixed_priority_inversion_is_unbounded(self):
        kernel = Kernel(
            FixedPriorityScheduler(), charge_dispatch_overhead=False,
        )
        scenario = InversionScenario().attach_priority(kernel)
        kernel.run_for(seconds(5))
        assert scenario.effective_worst_latency_us(kernel.now) > 2_000_000
        assert scenario.result.iterations <= 2

    def test_priority_inheritance_bounds_latency(self):
        kernel = Kernel(
            FixedPriorityScheduler(priority_inheritance=True),
            charge_dispatch_overhead=False,
        )
        scenario = InversionScenario().attach_priority(kernel)
        kernel.run_for(seconds(5))
        assert scenario.result.iterations >= 40
        assert scenario.result.miss_rate < 0.05

    def test_real_rate_scheduling_avoids_inversion(self):
        system = quiet_system()
        scenario = InversionScenario().attach_real_rate(system)
        system.run_for(seconds(5))
        assert scenario.result.iterations >= 40
        assert scenario.result.miss_rate < 0.05
        assert scenario.effective_worst_latency_us(system.now) <= 200_000

    def test_attach_priority_requires_priority_scheduler(self):
        system = quiet_system()
        with pytest.raises(TypeError):
            InversionScenario().attach_priority(system.kernel)
