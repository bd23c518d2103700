"""Unit tests for the Figure 4 estimation law and the period heuristic.

The law's behaviour is checked on the test oracle
(``tests/figure4_oracle.py``); ``TestControllerTickEquivalence`` holds
the allocator's tick equal to the oracle bit for bit.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import ProportionAllocator
from repro.core.config import ControllerConfig, PIDGains
from repro.core.period import PeriodEstimator
from repro.experiments.ablation_pid import DEFAULT_GAIN_SETTINGS
from repro.ipc.bounded_buffer import BoundedBuffer
from repro.ipc.registry import SymbioticRegistry
from repro.ipc.roles import Role
from repro.monitor.progress import PressureSample
from repro.sched.rbs import ReservationScheduler
from repro.sim.kernel import Kernel

from tests import figure4_oracle as oracle
from tests.conftest import spin_body
from tests.figure4_oracle import State


def usage(used_us: int, interval_us: int, allocated_ppt: int) -> oracle.Usage:
    return oracle.Usage(used_us, interval_us, interval_us * allocated_ppt // 1000)


def full_usage(interval_us: int, allocated_ppt: int) -> oracle.Usage:
    allocated = interval_us * allocated_ppt // 1000
    return oracle.Usage(allocated, interval_us, allocated)


class TestProportionEstimator:
    def test_positive_pressure_raises_allocation(self):
        config = ControllerConfig()
        state = State()
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(50):
            result = oracle.estimate(
                state, config, 0.4, full_usage(10_000, current), current, dt
            )
            current = result.desired_ppt
        assert current > 200

    def test_negative_pressure_lowers_allocation(self):
        config = ControllerConfig()
        state = State()
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(100):
            current = oracle.estimate(
                state, config, 0.4, full_usage(10_000, current), current, dt
            ).desired_ppt
        high = current
        for _ in range(100):
            current = oracle.estimate(
                state, config, -0.4, full_usage(10_000, current), current, dt
            ).desired_ppt
        assert current < high

    def test_output_respects_bounds(self):
        config = ControllerConfig()
        state = State()
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(500):
            current = oracle.estimate(
                state, config, 0.5, full_usage(10_000, current), current, dt
            ).desired_ppt
        assert current == config.max_proportion_ppt
        for _ in range(2_000):
            current = oracle.estimate(
                state, config, -0.5, full_usage(10_000, current), current, dt
            ).desired_ppt
        assert current == config.min_proportion_ppt

    def test_zero_pressure_holds_allocation(self):
        """The integral term preserves the level once the error is zero."""
        config = ControllerConfig()
        state = State()
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(60):
            current = oracle.estimate(
                state, config, 0.3, full_usage(10_000, current), current, dt
            ).desired_ppt
        level = current
        for _ in range(20):
            current = oracle.estimate(
                state, config, 0.0, full_usage(10_000, current), current, dt
            ).desired_ppt
        assert current == pytest.approx(level, abs=level * 0.15 + 5)

    def test_reclaim_fires_for_unused_allocation(self):
        """Positive pressure but unused allocation: the Figure 4 "too
        generous" branch must override the PID and reduce the
        allocation (the disk-bottlenecked case)."""
        config = ControllerConfig()
        state = State()
        dt = config.controller_period_s
        current = 500
        reclaimed = False
        for _ in range(30):
            result = oracle.estimate(
                state, config, 0.4, usage(0, 10_000, current), current, dt
            )
            reclaimed = reclaimed or result.reclaimed
            current = result.desired_ppt
        assert reclaimed
        assert current < 500
        assert state.reclaim_count > 0

    def test_reclaim_reduces_by_constant_steps(self):
        config = ControllerConfig(reclaim_decrement_ppt=50, unused_threshold=0.5)
        state = State()
        dt = config.controller_period_s
        # Warm the usage EMA down so the reclaim rule is active.
        current = 600
        for _ in range(10):
            result = oracle.estimate(
                state, config, 0.4, usage(0, 10_000, current), current, dt
            )
            current = result.desired_ppt
        # Once reclaiming, each step drops the allocation by <= C.
        previous = current
        result = oracle.estimate(
            state, config, 0.4, usage(0, 10_000, previous), previous, dt
        )
        assert result.reclaimed
        assert 0 < previous - result.desired_ppt <= 50
        # The wind-down leaves the integral at the reclaimed level.
        reclaimed_fraction = result.desired_ppt / 1000
        assert state.integral * config.pid_gains.ki * config.k_scale == pytest.approx(
            reclaimed_fraction, abs=1e-3
        )

    def test_no_reclaim_when_allocation_fully_used(self):
        config = ControllerConfig()
        state = State()
        dt = config.controller_period_s
        current = 400
        for _ in range(50):
            result = oracle.estimate(
                state, config, 0.1, full_usage(10_000, current), current, dt
            )
            assert not result.reclaimed
            current = result.desired_ppt

    def test_no_reclaim_at_minimum_proportion(self):
        config = ControllerConfig()
        state = State()
        dt = config.controller_period_s
        current = config.min_proportion_ppt
        for _ in range(20):
            result = oracle.estimate(
                state, config, 0.0, usage(0, 10_000, current), current, dt
            )
            assert not result.reclaimed

    def test_reset(self):
        config = ControllerConfig()
        state = State()
        for _ in range(10):
            oracle.estimate(state, config, 0.5, usage(0, 10_000, 500), 500, 0.01)
        assert state.reclaim_count > 0
        oracle.reset(state)
        assert state == State()
        assert state.reclaim_count == 0


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

    def test_swing_moving_average(self):
        """The jitter signal is the mean fill-level swing over the last
        ``oscillation_window`` samples."""
        config = ControllerConfig(adapt_period=True, oscillation_window=3)
        estimator = PeriodEstimator(config, dispatch_interval_us=1_000)
        assert estimator.observe_fill(0.0) == 0.0  # no swing yet
        assert estimator.observe_fill(0.25) == 0.25
        assert estimator.observe_fill(0.75) == 0.375
        assert estimator.observe_fill(0.0) == 0.5
        assert estimator.observe_fill(1.0) == 0.75  # window slides

    def test_invalid_oscillation_window(self):
        config = ControllerConfig(adapt_period=True, oscillation_window=0)
        with pytest.raises(ValueError):
            PeriodEstimator(config, dispatch_interval_us=1_000)


class FixedPressureSampler:
    """A progress sensor that reports whatever pressure the test sets."""

    def __init__(self, thread):
        self.thread = thread
        self.pressure = 0.0

    def sample(self):
        return PressureSample(raw=self.pressure, per_channel={})

    def linkages(self):
        return []


#: Configs the tick is held equal to the oracle under: the defaults,
#: the PID ablation's gain settings (two have ``kd=0``) and one with
#: ``ki=0``, which leaves the integral unclamped.
GAIN_CONFIGS = {
    label: ControllerConfig(pid_gains=PIDGains(kp=kp, ki=ki, kd=kd))
    for label, kp, ki, kd in DEFAULT_GAIN_SETTINGS
}
GAIN_CONFIGS["no_integral"] = ControllerConfig(
    pid_gains=PIDGains(kp=0.5, ki=0.0, kd=0.01)
)

#: One controller tick's inputs: (pressure, interval_us, real-rate
#: used_us, misc used_us, real-rate ppt, misc ppt).
TICKS = st.lists(
    st.tuples(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=20_000),
        st.integers(min_value=0, max_value=20_000),
        st.integers(min_value=0, max_value=20_000),
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=0, max_value=1_000),
    ),
    min_size=1,
    max_size=40,
)


class TestControllerTickEquivalence:
    """The allocator's tick runs the Figure 4 law inline on a flat
    per-thread record; over arbitrary histories its decisions and that
    record must equal the test oracle's estimate and state, fed the
    same lifetime-CPU readings, bit for bit, for real-rate and
    miscellaneous threads alike."""

    @settings(max_examples=60, deadline=None)
    @given(steps=TICKS)
    def test_allocator_matches_estimate(self, steps):
        self.check(ControllerConfig(), steps)

    @pytest.mark.parametrize("label", sorted(GAIN_CONFIGS))
    @settings(max_examples=30, deadline=None)
    @given(steps=TICKS)
    def test_allocator_matches_estimate_across_gains(self, label, steps):
        self.check(GAIN_CONFIGS[label], steps)

    def test_pid_limits_match_the_oracle(self):
        for config in (ControllerConfig(), *GAIN_CONFIGS.values()):
            assert config.pid_limits == oracle.pid_limits(config)
        assert GAIN_CONFIGS["no_integral"].pid_limits[1:] == (None, None)

    @staticmethod
    def check(config, steps):
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
        references = [State(), State()]
        fields = [f.name for f in dataclasses.fields(State)]

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
                state.decision.granted_ppt = current_ppt
            decisions = allocator.update(now)
            inputs = zip(
                decisions, states, references,
                (pressure, config.misc_pressure), (rr_ppt, misc_ppt),
            )
            for decision, state, reference, raw, current_ppt in inputs:
                sample = oracle.sample_usage(
                    reference, state.thread.accounting.total_us, now, current_ppt
                )
                expected = oracle.estimate(
                    reference, config, raw, sample, current_ppt, dt
                )
                assert decision.desired_ppt == expected.desired_ppt
                assert decision.cumulative_pressure == expected.cumulative_pressure
                assert decision.reclaimed == expected.reclaimed
                assert state.last_desired_ppt == expected.desired_ppt
                # The flat record must track the oracle's state exactly,
                # or later steps drift.
                for name in fields:
                    assert getattr(state, name) == getattr(reference, name), name
