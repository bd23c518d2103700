"""Unit tests for the proportion estimator (Figure 4) and period heuristic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import ProportionAllocator
from repro.core.config import ControllerConfig
from repro.core.estimator import ProportionEstimator
from repro.core.period import PeriodEstimator
from repro.ipc.bounded_buffer import BoundedBuffer
from repro.ipc.registry import SymbioticRegistry
from repro.ipc.roles import Role
from repro.monitor.progress import PressureSample
from repro.monitor.usage import UsageSample
from repro.sched.rbs import ReservationScheduler
from repro.sim.kernel import Kernel

from tests.conftest import spin_body


def usage(used_us: int, interval_us: int, allocated_ppt: int) -> UsageSample:
    return UsageSample(
        used_us=used_us,
        interval_us=interval_us,
        allocated_us=interval_us * allocated_ppt // 1000,
    )


def full_usage(interval_us: int, allocated_ppt: int) -> UsageSample:
    allocated = interval_us * allocated_ppt // 1000
    return UsageSample(used_us=allocated, interval_us=interval_us, allocated_us=allocated)


class TestProportionEstimator:
    def test_positive_pressure_raises_allocation(self):
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(50):
            result = estimator.estimate(0.4, full_usage(10_000, current), current, dt)
            current = result.desired_ppt
        assert current > 200

    def test_negative_pressure_lowers_allocation(self):
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(100):
            current = estimator.estimate(
                0.4, full_usage(10_000, current), current, dt
            ).desired_ppt
        high = current
        for _ in range(100):
            current = estimator.estimate(
                -0.4, full_usage(10_000, current), current, dt
            ).desired_ppt
        assert current < high

    def test_output_respects_bounds(self):
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(500):
            current = estimator.estimate(
                0.5, full_usage(10_000, current), current, dt
            ).desired_ppt
        assert current == config.max_proportion_ppt
        for _ in range(2_000):
            current = estimator.estimate(
                -0.5, full_usage(10_000, current), current, dt
            ).desired_ppt
        assert current == config.min_proportion_ppt

    def test_zero_pressure_holds_allocation(self):
        """The integral term preserves the level once the error is zero."""
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(60):
            current = estimator.estimate(
                0.3, full_usage(10_000, current), current, dt
            ).desired_ppt
        level = current
        for _ in range(20):
            current = estimator.estimate(
                0.0, full_usage(10_000, current), current, dt
            ).desired_ppt
        assert current == pytest.approx(level, abs=level * 0.15 + 5)

    def test_reclaim_fires_for_unused_allocation(self):
        """Positive pressure but unused allocation: the Figure 4 "too
        generous" branch must override the PID and reduce the
        allocation (the disk-bottlenecked case)."""
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = 500
        reclaimed = False
        for _ in range(30):
            result = estimator.estimate(
                0.4, usage(0, 10_000, current), current, dt
            )
            reclaimed = reclaimed or result.reclaimed
            current = result.desired_ppt
        assert reclaimed
        assert current < 500
        assert estimator.reclaim_count > 0

    def test_reclaim_reduces_by_constant_steps(self):
        config = ControllerConfig(reclaim_decrement_ppt=50, unused_threshold=0.5)
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        # Warm the usage EMA down so the reclaim rule is active.
        current = 600
        for _ in range(10):
            result = estimator.estimate(0.4, usage(0, 10_000, current), current, dt)
            current = result.desired_ppt
        # Once reclaiming, each step drops the allocation by <= C.
        previous = current
        result = estimator.estimate(0.4, usage(0, 10_000, previous), previous, dt)
        assert result.reclaimed
        assert 0 < previous - result.desired_ppt <= 50

    def test_no_reclaim_when_allocation_fully_used(self):
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = 400
        for _ in range(50):
            result = estimator.estimate(
                0.1, full_usage(10_000, current), current, dt
            )
            assert not result.reclaimed
            current = result.desired_ppt

    def test_no_reclaim_at_minimum_proportion(self):
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(20):
            result = estimator.estimate(0.0, usage(0, 10_000, current), current, dt)
            assert not result.reclaimed

    def test_reset(self):
        config = ControllerConfig()
        estimator = ProportionEstimator(config)
        estimator.estimate(0.5, full_usage(10_000, 100), 100, 0.01)
        estimator.reset()
        assert estimator.last_desired_ppt == config.min_proportion_ppt
        assert estimator.reclaim_count == 0


class TestPeriodEstimator:
    def test_small_allocation_grows_period(self):
        config = ControllerConfig(adapt_period=True)
        estimator = PeriodEstimator(config, dispatch_interval_us=1_000)
        start = estimator.period_us
        decision = estimator.update(proportion_ppt=10, fill_level=0.5)
        assert decision.grew_for_quantization
        assert decision.period_us > start

    def test_period_capped_at_maximum(self):
        config = ControllerConfig(adapt_period=True, period_max_us=60_000)
        estimator = PeriodEstimator(config, dispatch_interval_us=1_000)
        for _ in range(100):
            estimator.update(proportion_ppt=5, fill_level=0.5)
        assert estimator.period_us <= 60_000

    def test_large_allocation_keeps_period(self):
        config = ControllerConfig(adapt_period=True)
        estimator = PeriodEstimator(config, dispatch_interval_us=1_000)
        start = estimator.period_us
        decision = estimator.update(proportion_ppt=500, fill_level=0.5)
        assert not decision.grew_for_quantization
        assert decision.period_us == start

    def test_oscillation_shrinks_period(self):
        config = ControllerConfig(adapt_period=True, oscillation_threshold=0.1)
        estimator = PeriodEstimator(config, dispatch_interval_us=1_000)
        fills = [0.1, 0.9] * 10
        shrank = False
        for fill in fills:
            decision = estimator.update(proportion_ppt=500, fill_level=fill)
            shrank = shrank or decision.shrank_for_jitter
        assert shrank
        assert estimator.period_us < config.default_period_us

    def test_period_floored_at_minimum(self):
        config = ControllerConfig(
            adapt_period=True, oscillation_threshold=0.05, period_min_us=8_000
        )
        estimator = PeriodEstimator(config, dispatch_interval_us=1_000)
        for i in range(200):
            estimator.update(proportion_ppt=500, fill_level=(i % 2) * 1.0)
        assert estimator.period_us >= 8_000

    def test_initial_period_from_spec(self):
        config = ControllerConfig(adapt_period=True)
        estimator = PeriodEstimator(
            config, dispatch_interval_us=1_000, initial_period_us=42_000
        )
        assert estimator.period_us == 42_000


class FixedPressureSampler:
    """A progress sensor that reports whatever pressure the test sets."""

    def __init__(self, thread):
        self.thread = thread
        self.pressure = 0.0

    def sample(self):
        return PressureSample(raw=self.pressure, per_channel={})

    def linkages(self):
        return []


class TestControllerTickEquivalence:
    """The allocator's tick runs the Figure 4 law inline on a flat
    per-thread record; over arbitrary histories its decisions and that
    record must equal ProportionEstimator.estimate() — the readable
    spec — and its state, fed the same usage samples, bit for bit, for
    real-rate and miscellaneous threads alike."""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.floats(
                    min_value=-2.0, max_value=2.0,
                    allow_nan=False, allow_infinity=False,
                ),                                            # pressure
                st.integers(min_value=0, max_value=20_000),   # interval_us
                st.integers(min_value=0, max_value=20_000),   # real-rate used_us
                st.integers(min_value=0, max_value=20_000),   # misc used_us
                st.integers(min_value=0, max_value=1_000),    # real-rate ppt
                st.integers(min_value=0, max_value=1_000),    # misc ppt
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_allocator_matches_estimate(self, steps):
        config = ControllerConfig()
        dt = config.controller_period_s
        scheduler = ReservationScheduler()
        kernel = Kernel(scheduler, charge_dispatch_overhead=False)
        registry = SymbioticRegistry()
        allocator = ProportionAllocator(scheduler, registry, config)
        real_rate = kernel.spawn("rr", spin_body())
        registry.register(real_rate, BoundedBuffer("q", 100), Role.CONSUMER)
        allocator.register(real_rate)
        sensor = FixedPressureSampler(real_rate)
        allocator.set_sampler(real_rate, sensor)
        misc = kernel.spawn("misc", spin_body())
        allocator.register(misc)
        states = [allocator._controlled[t.tid] for t in (real_rate, misc)]
        references = [ProportionEstimator(config), ProportionEstimator(config)]

        now = 0
        for index, step in enumerate(steps):
            pressure, interval, rr_used, misc_used, rr_ppt, misc_ppt = step
            used = (rr_used, misc_used)
            if index == 0:
                # The first tick has no previous usage sample to diff.
                interval, used = 0, (0, 0)
            now += interval
            sensor.pressure = pressure
            for state, used_us, current_ppt in zip(states, used, (rr_ppt, misc_ppt)):
                state.thread.accounting.total_us += used_us
                state.current_ppt = current_ppt
            decisions = allocator.update(now)
            inputs = zip(
                decisions, states, references,
                (pressure, config.misc_pressure), used, (rr_ppt, misc_ppt),
            )
            for decision, state, reference, raw, used_us, current_ppt in inputs:
                expected = reference.estimate(
                    raw, usage(used_us, interval, current_ppt), current_ppt, dt
                )
                assert decision.desired_ppt == expected.desired_ppt
                assert decision.cumulative_pressure == expected.cumulative_pressure
                assert decision.reclaimed == expected.reclaimed
                # The flat record must track the spec's state exactly, or
                # later steps drift.
                assert state.integral == reference.pid.integral_value
                assert state.last_error == reference.pid.last_error
                assert state.usage_ratio_ema == reference._usage_ratio_ema
                assert state.used_fraction_ema == reference._used_fraction_ema
                assert state.reclaim_count == reference.reclaim_count
                assert state.last_desired_ppt == reference.last_desired_ppt
