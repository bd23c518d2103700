"""Behaviour of the Figure 4 PID block (the G function of Figure 3).

The product runs the PID inline in the allocator's tick; these tests
check the law's properties on the test oracle, which
``tests/test_core_estimator_period.py`` holds equal to the tick bit for
bit.
"""

import pytest

from repro.core.config import PIDGains
from tests import figure4_oracle as oracle
from tests.figure4_oracle import State


def step(state, error, gains, dt=0.01, **limits):
    return oracle.pid_step(state, error, dt, gains, **limits)


class TestPIDGains:
    def test_defaults_non_negative(self):
        gains = PIDGains()
        assert gains.kp >= 0 and gains.ki >= 0 and gains.kd >= 0

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            PIDGains(kp=-1)


class TestPIDController:
    def test_proportional_only(self):
        assert step(State(), 0.5, PIDGains(kp=2.0, ki=0.0, kd=0.0)) == pytest.approx(1.0)

    def test_integral_accumulates_error(self):
        gains = PIDGains(kp=0.0, ki=1.0, kd=0.0)
        state = State()
        out = 0.0
        for _ in range(100):
            out = step(state, 1.0, gains)
        assert out == pytest.approx(1.0, rel=1e-6)

    def test_integral_persists_when_error_returns_to_zero(self):
        gains = PIDGains(kp=1.0, ki=1.0, kd=0.0)
        state = State()
        for _ in range(100):
            step(state, 1.0, gains)
        settled = step(state, 0.0, gains)
        assert settled == pytest.approx(1.0, rel=1e-6)

    def test_output_saturation(self):
        gains = PIDGains(kp=10.0, ki=0.0, kd=0.0)
        state = State()
        assert step(state, 5.0, gains, output_low=0.0, output_high=1.0) == 1.0
        assert step(state, -5.0, gains, output_low=0.0, output_high=1.0) == 0.0

    def test_anti_windup_limits_integral(self):
        gains = PIDGains(kp=0.0, ki=1.0, kd=0.0)
        state = State()
        for _ in range(10_000):
            step(state, 1.0, gains, output_low=0.0, output_high=1.0)
        assert state.integral == 1.0
        # After the error flips sign the output must recover quickly
        # because the integral was clamped at the output bound.
        recovery_steps = 0
        while (
            step(state, -1.0, gains, output_low=0.0, output_high=1.0) > 0.5
            and recovery_steps < 1_000
        ):
            recovery_steps += 1
        assert recovery_steps < 100

    def test_derivative_responds_to_change(self):
        gains = PIDGains(kp=0.0, ki=0.0, kd=1.0)
        state = State()
        assert step(state, 0.0, gains, filter_s=None) == 0.0
        assert step(state, 1.0, gains, filter_s=None) == pytest.approx(100.0)
        # The filtered derivative passes its first sample through, then
        # moves only part of the way towards each new slope.
        filtered = State()
        step(filtered, 0.0, gains)
        assert step(filtered, 0.0, gains) == 0.0
        assert 0.0 < step(filtered, 1.0, gains) < 100.0
        # Under a constant slope the filtered derivative converges to it.
        error = 1.0
        for _ in range(200):
            error += 0.01
            output = step(filtered, error, gains)
        assert output == pytest.approx(1.0, abs=1e-3)

    def test_preload_integral(self):
        state = State(integral=0.5)
        assert step(state, 0.0, PIDGains(kp=0.0, ki=2.0, kd=0.0)) == pytest.approx(1.0)

    def test_reset_clears_state(self):
        state = State()
        step(state, 1.0, PIDGains())
        step(state, 0.5, PIDGains())
        assert state != State()
        oracle.reset(state)
        assert state == State()
        assert state.integral == 0.0 and state.last_error is None

    def test_invalid_dt_rejected(self):
        with pytest.raises(ValueError):
            oracle.pid_step(State(), 1.0, 0.0, PIDGains())

    def test_closed_loop_first_order_plant_converges(self):
        """PID around a simple integrating plant reaches the set point."""
        gains = PIDGains(kp=2.0, ki=4.0, kd=0.0)
        pid = State()
        dt = 0.01
        plant = 0.0
        setpoint = 1.0
        for _ in range(2_000):
            control = step(pid, setpoint - plant, gains, dt)
            plant += control * dt
        assert plant == pytest.approx(setpoint, abs=0.01)
