"""Feedback-circuit components.

Each component transforms one (or several) input samples into one
output sample per controller step.  Stateful components take the step
interval ``dt`` (seconds) so their behaviour is independent of the
controller's sampling rate — important because the paper varies the
controller frequency when discussing responsiveness and overhead.
"""

# float-order: exact — circuit outputs feed the golden-verified PID
# path and the period heuristic; every reduction is an explicit left
# fold (CPython 3.12's builtin sum() compensates float sums).

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Iterable, Optional


class Component(ABC):
    """A single feedback-circuit block."""

    @abstractmethod
    def step(self, value: float, dt: float) -> float:
        """Consume one input sample and produce one output sample."""

    def reset(self) -> None:
        """Clear any internal state (default: stateless, nothing to do)."""


class Gain(Component):
    """Multiply the input by a constant factor."""

    def __init__(self, k: float) -> None:
        self.k = float(k)

    def step(self, value: float, dt: float) -> float:
        return self.k * value


class SummingJunction:
    """Sum an arbitrary number of inputs (optionally with signs).

    Not a :class:`Component` because it takes multiple inputs; used at
    the head of the pressure circuit to combine per-queue pressures.
    """

    def __init__(self, signs: Optional[Iterable[float]] = None) -> None:
        self.signs = list(signs) if signs is not None else None

    def combine(self, values: Iterable[float]) -> float:
        """Return the (signed) sum of ``values``."""
        values = list(values)
        total: float = 0
        if self.signs is None:
            for value in values:
                total += value
            return float(total)
        if len(values) != len(self.signs):
            raise ValueError(
                f"summing junction configured with {len(self.signs)} signs "
                f"but received {len(values)} inputs"
            )
        for sign, value in zip(self.signs, values):
            total += sign * value
        return float(total)


class Integrator(Component):
    """Discrete-time integrator with optional anti-windup clamping.

    Anti-windup matters here because the allocator's output saturates:
    a proportion cannot exceed the whole CPU, so during overload the
    integral would otherwise grow without bound and the controller
    would respond sluggishly when the overload clears.
    """

    def __init__(
        self,
        initial: float = 0.0,
        limit_low: Optional[float] = None,
        limit_high: Optional[float] = None,
    ) -> None:
        self._initial = float(initial)
        self.value = float(initial)
        self.limit_low = limit_low
        self.limit_high = limit_high

    def step(self, value: float, dt: float) -> float:
        self.value += value * dt
        if self.limit_high is not None and self.value > self.limit_high:
            self.value = self.limit_high
        if self.limit_low is not None and self.value < self.limit_low:
            self.value = self.limit_low
        return self.value

    def reset(self) -> None:
        self.value = self._initial


class Differentiator(Component):
    """First difference divided by the step interval."""

    def __init__(self) -> None:
        self._previous: Optional[float] = None

    def step(self, value: float, dt: float) -> float:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if self._previous is None:
            self._previous = value
            return 0.0
        derivative = (value - self._previous) / dt
        self._previous = value
        return derivative

    def reset(self) -> None:
        self._previous = None


class LowPassFilter(Component):
    """Single-pole IIR low-pass filter.

    The paper's discussion of sampling ("Using a suitable low-pass
    filter, we can schedule jobs with reasonable responsiveness and low
    overhead while keeping the sampling rate reasonably high") motivates
    smoothing noisy progress signals before they reach the control law.

    ``time_constant_s`` is the filter's RC constant; the per-step
    smoothing factor is derived from ``dt`` so changing the controller
    period does not change the filter's bandwidth.
    """

    def __init__(self, time_constant_s: float, initial: float = 0.0) -> None:
        if time_constant_s <= 0:
            raise ValueError(
                f"time constant must be positive, got {time_constant_s}"
            )
        self.time_constant_s = float(time_constant_s)
        self._initial = float(initial)
        self.value = float(initial)
        self._primed = False

    def step(self, value: float, dt: float) -> float:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if not self._primed:
            self.value = value
            self._primed = True
            return self.value
        alpha = dt / (self.time_constant_s + dt)
        self.value += alpha * (value - self.value)
        return self.value

    def reset(self) -> None:
        self.value = self._initial
        self._primed = False


class MovingAverage(Component):
    """Simple moving average over the last ``window`` samples.

    Used by the period-estimation heuristic, which averages fill-level
    oscillation "over the course of a period, averaged over several
    periods".
    """

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = int(window)
        self._samples: deque[float] = deque(maxlen=self.window)

    def step(self, value: float, dt: float) -> float:
        self._samples.append(value)
        total = 0.0
        for sample in self._samples:
            total += sample
        return total / len(self._samples)

    def reset(self) -> None:
        self._samples.clear()

    def __len__(self) -> int:
        return len(self._samples)


class Clamp(Component):
    """Limit the input to ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if low > high:
            raise ValueError(f"clamp range is empty: [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def step(self, value: float, dt: float) -> float:
        return min(self.high, max(self.low, value))


class DeadBand(Component):
    """Zero out inputs whose magnitude is below ``threshold``.

    Useful to stop the allocator from chasing tiny fill-level noise and
    re-actuating reservations every period for no benefit.
    """

    def __init__(self, threshold: float) -> None:
        if threshold < 0:
            raise ValueError(f"threshold cannot be negative, got {threshold}")
        self.threshold = float(threshold)

    def step(self, value: float, dt: float) -> float:
        return 0.0 if abs(value) < self.threshold else value


__all__ = [
    "Clamp",
    "Component",
    "DeadBand",
    "Differentiator",
    "Gain",
    "Integrator",
    "LowPassFilter",
    "MovingAverage",
    "SummingJunction",
]
