"""Unit tests for progress and usage monitoring."""

import pytest

from repro.core.config import ControllerConfig
from repro.core.errors import ControllerError
from repro.ipc.bounded_buffer import BoundedBuffer
from repro.ipc.registry import SymbioticRegistry
from repro.ipc.roles import Role
from repro.monitor.progress import ConstantPressureSource, ProgressSampler
from repro.sim.thread import SimThread

from tests import figure4_oracle as oracle


class TestQueueFillMonitor:
    """The signed F value of Figure 3 for a single linkage, as the
    controller's :class:`ProgressSampler` reports it."""

    def _pressure(self, role, fill, capacity=1_000, setpoint=0.5):
        registry = SymbioticRegistry()
        thread = SimThread("t")
        queue = BoundedBuffer("q", capacity)
        if fill:
            queue.commit_put(fill)
        registry.register(thread, queue, role)
        sample = ProgressSampler(thread, registry, setpoint=setpoint).sample()
        assert sample.per_channel == {"q": sample.raw}
        return sample.raw

    def test_half_full_queue_has_zero_pressure(self):
        assert self._pressure(Role.CONSUMER, 500) == pytest.approx(0.0)

    def test_full_queue_pushes_consumer_up(self):
        assert self._pressure(Role.CONSUMER, 1_000) == pytest.approx(0.5)

    def test_full_queue_pushes_producer_down(self):
        assert self._pressure(Role.PRODUCER, 1_000) == pytest.approx(-0.5)

    def test_empty_queue_pushes_consumer_down(self):
        assert self._pressure(Role.CONSUMER, 0) == pytest.approx(-0.5)

    def test_empty_queue_pushes_producer_up(self):
        assert self._pressure(Role.PRODUCER, 0) == pytest.approx(0.5)

    def test_pressure_bounded_by_half(self):
        for fill in (0, 100, 250, 500, 750, 999, 1_000):
            assert -0.5 <= self._pressure(Role.CONSUMER, fill) <= 0.5

    def test_custom_setpoint(self):
        assert self._pressure(Role.CONSUMER, 250, setpoint=0.25) == pytest.approx(0.0)

    def test_invalid_setpoint_rejected(self):
        # The controller takes its set point from the config, which
        # refuses one outside (0, 1).
        with pytest.raises(ControllerError):
            ControllerConfig(setpoint_fill=1.0)


class TestConstantPressureSource:
    def test_positive_constant(self):
        source = ConstantPressureSource(0.3)
        assert source.sample().raw == 0.3

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ConstantPressureSource(0.0)


class TestProgressSampler:
    def test_no_linkages_returns_none(self):
        registry = SymbioticRegistry()
        sampler = ProgressSampler(SimThread("t"), registry)
        assert sampler.sample() is None

    def test_sums_over_multiple_queues(self):
        registry = SymbioticRegistry()
        thread = SimThread("stage")
        inbound = BoundedBuffer("in", 1_000)
        outbound = BoundedBuffer("out", 1_000)
        inbound.commit_put(1_000)   # full input: need more CPU (+0.5)
        outbound.commit_put(1_000)  # full output: slow down (-0.5)
        registry.register(thread, inbound, Role.CONSUMER)
        registry.register(thread, outbound, Role.PRODUCER)
        sample = ProgressSampler(thread, registry).sample()
        assert sample.raw == pytest.approx(0.0)
        assert sample.per_channel["in"] == pytest.approx(0.5)
        assert sample.per_channel["out"] == pytest.approx(-0.5)
        assert sample.saturated_full

    def test_saturation_flags(self):
        registry = SymbioticRegistry()
        thread = SimThread("c")
        queue = BoundedBuffer("q", 100)
        registry.register(thread, queue, Role.CONSUMER)
        sampler = ProgressSampler(thread, registry)
        assert sampler.sample().saturated_empty
        queue.commit_put(100)
        assert sampler.sample().saturated_full

    def test_new_linkages_picked_up(self):
        registry = SymbioticRegistry()
        thread = SimThread("t")
        sampler = ProgressSampler(thread, registry)
        assert sampler.sample() is None
        registry.register(thread, BoundedBuffer("q", 100), Role.CONSUMER)
        assert sampler.sample() is not None


class TestUsageMonitor:
    """Per-interval CPU usage as the controller tick samples it, on the
    test oracle's record (``tests/figure4_oracle.py``).  Re-registration
    is covered by ``test_core_allocator.py``."""

    def test_first_sample_has_zero_interval(self):
        sample = oracle.sample_usage(oracle.State(), 0, now=10_000, allocated_ppt=100)
        assert sample.used_us == 0
        assert sample.interval_us == 0
        assert sample.allocated_us == 0

    def test_delta_accounting(self):
        state = oracle.State()
        thread = SimThread("t")
        oracle.sample_usage(state, thread.accounting.total_us, now=0, allocated_ppt=100)
        thread.accounting.charge(3_000)
        sample = oracle.sample_usage(
            state, thread.accounting.total_us, now=10_000, allocated_ppt=500
        )
        assert sample == (3_000, 10_000, 5_000)
        assert (state.last_total_us, state.last_sample_us) == (3_000, 10_000)

    def test_unused_fraction_zero_when_fully_used(self):
        state = oracle.State()
        oracle.sample_usage(state, 0, now=0, allocated_ppt=100)
        sample = oracle.sample_usage(state, 1_000, now=10_000, allocated_ppt=100)
        assert sample.used_us == sample.allocated_us == 1_000
        # A fully used allocation keeps the usage-ratio EMA at 1, so the
        # reclaim rule does not fire.
        assert not oracle.too_generous(state, ControllerConfig(), sample, 100)
        assert state.usage_ratio_ema == 1.0

    def test_run_before_block_passthrough(self):
        """The interactive heuristic reads the thread's smoothed
        run-before-block time straight from its accounting."""
        thread = SimThread("t")
        thread.accounting.charge(2_000)
        thread.accounting.note_block()
        assert thread.accounting.run_before_block_ema_us == pytest.approx(2_000)
