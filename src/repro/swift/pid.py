"""PID control.

"The individual progress pressures are then summed and passed to a
proportional-integral-derivative (PID) control to calculate a
cumulative pressure, Qt."  This module provides that G function of
Figure 3: given the summed instantaneous pressure, it produces the
cumulative pressure combining the proportional, integral and derivative
terms.

The integral term is what lets the allocation *persist* after the error
returns to zero: when the consumer has caught up and the queue sits at
its half-full set point, the proportional term vanishes but the
integrated history keeps the proportion at the level that matched the
producer's rate.
"""

# float-order: exact — the PID step is verified bit-for-bit against
# goldens; see docs/ARCHITECTURE.md on the float-order boundary.

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.swift.components import Differentiator, Integrator, LowPassFilter

#: Time constant (s) of the derivative term's low-pass filter, for
#: :class:`PIDController` and the allocator's inline tick alike.
DERIVATIVE_FILTER_S = 0.05


@dataclass(frozen=True)
class PIDGains:
    """Gains for the three PID terms.

    The defaults are the ones used by the experiment reproductions;
    they were tuned (see ``benchmarks/test_bench_ablation_pid.py``) so
    that the pulse workload of Figure 6 settles in roughly a third of a
    second, matching the paper's reported response time, while staying
    well damped.
    """

    kp: float = 0.25
    ki: float = 0.8
    kd: float = 0.005

    def __post_init__(self) -> None:
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ValueError(
                f"PID gains must be non-negative, got kp={self.kp}, "
                f"ki={self.ki}, kd={self.kd}"
            )


class PIDController:
    """Discrete PID controller with anti-windup and derivative filtering.

    Parameters
    ----------
    gains:
        The :class:`PIDGains` to apply.
    output_low, output_high:
        Saturation limits on the controller output.  The integral term
        is clamped so that the integral alone cannot exceed the output
        range (anti-windup).
    derivative_filter_s:
        Time constant of the low-pass filter applied to the derivative
        term; ``None`` disables filtering.
    """

    def __init__(
        self,
        gains: Optional[PIDGains] = None,
        *,
        output_low: Optional[float] = None,
        output_high: Optional[float] = None,
        derivative_filter_s: Optional[float] = DERIVATIVE_FILTER_S,
    ) -> None:
        self.gains = gains if gains is not None else PIDGains()
        self.output_low = output_low
        self.output_high = output_high
        integral_low, integral_high = self.integral_limits(
            self.gains, output_low, output_high
        )
        self._integrator = Integrator(
            limit_low=integral_low, limit_high=integral_high
        )
        self._differentiator = Differentiator()
        self._derivative_filter = (
            LowPassFilter(derivative_filter_s)
            if derivative_filter_s is not None
            else None
        )
        self.last_output = 0.0
        self.last_error = 0.0
        self.steps = 0

    @staticmethod
    def integral_limits(
        gains: PIDGains,
        output_low: Optional[float],
        output_high: Optional[float],
    ) -> tuple[Optional[float], Optional[float]]:
        """The anti-windup clamp: the output range over ``ki``.

        Unclamped (``None``) on a side with no output limit, or
        everywhere when ``ki`` is zero.
        """
        if gains.ki <= 0:
            return None, None
        return (
            None if output_low is None else output_low / gains.ki,
            None if output_high is None else output_high / gains.ki,
        )

    def step(self, error: float, dt: float) -> float:
        """Advance one controller period with the given error sample.

        The three component updates are inlined (same arithmetic, same
        order as their ``step`` methods): one estimator steps its PID
        once per controlled thread per controller tick, so the call
        overhead of the component objects is measurable.  The objects
        themselves remain the state holders, keeping ``reset`` and
        ``preload_integral`` untouched.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        gains = self.gains
        proportional = gains.kp * error

        # Integrator.step: accumulate, then anti-windup clamp.
        integrator = self._integrator
        value = integrator.value + error * dt
        limit_high = integrator.limit_high
        if limit_high is not None and value > limit_high:
            value = limit_high
        limit_low = integrator.limit_low
        if limit_low is not None and value < limit_low:
            value = limit_low
        integrator.value = value
        integral = gains.ki * value

        # Differentiator.step: first difference over dt.
        differentiator = self._differentiator
        previous = differentiator._previous
        if previous is None:
            derivative_raw = 0.0
        else:
            derivative_raw = (error - previous) / dt
        differentiator._previous = error

        # LowPassFilter.step: single-pole IIR smoothing.
        lpf = self._derivative_filter
        if lpf is not None:
            if not lpf._primed:
                lpf.value = derivative_raw
                lpf._primed = True
            else:
                alpha = dt / (lpf.time_constant_s + dt)
                lpf.value += alpha * (derivative_raw - lpf.value)
            derivative_raw = lpf.value
        derivative = gains.kd * derivative_raw

        output = proportional + integral + derivative
        if self.output_high is not None and output > self.output_high:
            output = self.output_high
        if self.output_low is not None and output < self.output_low:
            output = self.output_low

        self.last_output = output
        self.last_error = error
        self.steps += 1
        return output

    @property
    def integral_value(self) -> float:
        """Current value of the (unscaled) integral accumulator."""
        return self._integrator.value

    def preload_integral(self, value: float) -> None:
        """Set the integral accumulator directly.

        Used when actuation is overridden externally (e.g. squishing
        during overload) so the controller's internal state tracks what
        was actually applied, avoiding a transient when the override
        ends.
        """
        self._integrator.value = value

    def reset(self) -> None:
        """Clear all internal state."""
        self._integrator.reset()
        self._differentiator.reset()
        if self._derivative_filter is not None:
            self._derivative_filter.reset()
        self.last_output = 0.0
        self.last_error = 0.0
        self.steps = 0


__all__ = ["DERIVATIVE_FILTER_S", "PIDController", "PIDGains"]
