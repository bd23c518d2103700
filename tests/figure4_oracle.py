"""Reference copy of the Figure 4 estimation law, for tests only.

The product runs the law in one place, inline in
``ProportionAllocator.update`` on the thread's flat record.  This module
writes the same law out plainly, as functions over a small state
record of its own, so tests can check the tick against it bit for bit
and check the law's behaviour (anti-windup, reclaim, clamps) on it
directly.  It builds no product objects and works out the PID limits
from the config's fields itself; only the two spec constants
(``DERIVATIVE_FILTER_S``, ``USAGE_EMA_ALPHA``) and the gains record are
shared with the product.

The arithmetic is written in the order the tick uses: floating-point
addition is not associative, so the oracle is only a reference if each
sum, product and clamp happens in the same order.

Per controller period and thread, :func:`estimate` does:

* **PID step** (:func:`pid_step`) — the integral accumulates
  ``error * dt`` and is clamped to the output range over ``ki``
  (anti-windup); the derivative is the first difference over ``dt``
  (0 on the first step), smoothed by a single-pole low-pass filter
  that passes its first sample through; the output
  ``kp*e + ki*I + kd*D`` is clamped to ``[output_low, output_high]``.
* **on target** — ``P' = k * Q_t``.
* **too generous** (:func:`too_generous`) — two EMAs of the last
  interval's usage (used/allocated, capped at 2, and used/interval)
  are updated; if more than ``unused_threshold`` of the allocation
  went unused and the thread is above the floor, ``P' = P - C``, but
  never below the used-fraction EMA, and only if that is lower than
  the PID's answer.  The integral is then wound down
  (:func:`wind_down`) so that at zero error the PID reproduces it.
* **clamps** (:func:`clamp`) — to ``[min, max]`` as a fraction, then
  rounded to parts per thousand and clamped again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.core.config import (
    DERIVATIVE_FILTER_S,
    USAGE_EMA_ALPHA,
    ControllerConfig,
    PIDGains,
)

#: Parts per thousand, written out rather than imported.
SCALE = 1000


@dataclass
class State:
    """One thread's Figure 4 state, as a fresh registration starts it."""

    integral: float = 0.0
    #: Error of the previous PID step (``None`` before the first).
    last_error: Optional[float] = None
    derivative: float = 0.0
    derivative_primed: bool = False
    usage_ratio_ema: float = 1.0
    used_fraction_ema: float = 0.0
    reclaim_count: int = 0
    #: Lifetime CPU and time of the last usage sample.
    last_total_us: Optional[int] = None
    last_sample_us: int = 0


class Usage(NamedTuple):
    """CPU used vs. allocated over one controller interval."""

    used_us: int
    interval_us: int
    allocated_us: int


class Estimate(NamedTuple):
    """Outcome of one estimation step."""

    desired_ppt: int
    cumulative_pressure: float
    reclaimed: bool


def reset(state: State) -> None:
    """Put ``state`` back to a fresh registration's."""
    vars(state).update(vars(State()))


# ----------------------------------------------------------------------
# the PID block
# ----------------------------------------------------------------------
def integral_limits(
    gains: PIDGains, output_low: Optional[float], output_high: Optional[float]
) -> tuple[Optional[float], Optional[float]]:
    """The anti-windup clamp: the output range over ``ki``.

    Unclamped on a side with no output limit, and everywhere when
    ``ki`` is zero.
    """
    if gains.ki <= 0:
        return None, None
    return (
        None if output_low is None else output_low / gains.ki,
        None if output_high is None else output_high / gains.ki,
    )


def pid_limits(
    config: ControllerConfig,
) -> tuple[float, Optional[float], Optional[float]]:
    """``(output_high, integral_low, integral_high)`` of the law's PID,
    whose output range is [0, max fraction / k]."""
    output_high = config.max_proportion_ppt / SCALE / config.k_scale
    return (output_high, *integral_limits(config.pid_gains, 0.0, output_high))


def pid_step(
    state: State,
    error: float,
    dt: float,
    gains: PIDGains,
    *,
    output_low: Optional[float] = None,
    output_high: Optional[float] = None,
    filter_s: Optional[float] = DERIVATIVE_FILTER_S,
) -> float:
    """One PID step; returns the (clamped) cumulative pressure.

    ``filter_s=None`` leaves the derivative unfiltered.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    integral_low, integral_high = integral_limits(gains, output_low, output_high)
    integral = state.integral + error * dt
    if integral_high is not None and integral > integral_high:
        integral = integral_high
    if integral_low is not None and integral < integral_low:
        integral = integral_low
    state.integral = integral

    derivative = 0.0 if state.last_error is None else (error - state.last_error) / dt
    state.last_error = error
    if filter_s is not None:
        if state.derivative_primed:
            gain = dt / (filter_s + dt)
            state.derivative += gain * (derivative - state.derivative)
        else:
            state.derivative = derivative
            state.derivative_primed = True
        derivative = state.derivative

    output = gains.kp * error + gains.ki * integral + gains.kd * derivative
    if output_high is not None and output > output_high:
        output = output_high
    if output_low is not None and output < output_low:
        output = output_low
    return output


# ----------------------------------------------------------------------
# usage sampling and the reclaim rule
# ----------------------------------------------------------------------
def sample_usage(state: State, total_us: int, now: int, allocated_ppt: int) -> Usage:
    """CPU used since the previous sample, given the thread's lifetime
    CPU ``total_us`` at ``now``; the first sample covers nothing."""
    if state.last_total_us is None:
        used = interval = 0
    else:
        used = max(0, total_us - state.last_total_us)
        interval = max(0, now - state.last_sample_us)
    state.last_total_us = total_us
    state.last_sample_us = now
    return Usage(used, interval, interval * allocated_ppt // SCALE)


def too_generous(
    state: State, config: ControllerConfig, usage: Usage, current_ppt: int
) -> bool:
    """Update the usage EMAs; whether the allocation went largely unused."""
    used_us, interval_us, allocated_us = usage
    if allocated_us <= 0 or interval_us <= 0:
        return False
    ratio = min(2.0, used_us / allocated_us)
    alpha = USAGE_EMA_ALPHA
    beta = 1.0 - alpha
    state.usage_ratio_ema = alpha * ratio + beta * state.usage_ratio_ema
    state.used_fraction_ema = (
        alpha * (used_us / interval_us) + beta * state.used_fraction_ema
    )
    if current_ppt <= config.min_proportion_ppt:
        return False
    return 1.0 - min(1.0, state.usage_ratio_ema) > config.unused_threshold


def wind_down(state: State, config: ControllerConfig, desired_fraction: float) -> None:
    """Set the integral so that, at zero error, the PID reproduces
    ``desired_fraction`` (no-op without an integral term)."""
    ki = config.pid_gains.ki
    if ki <= 0:
        return
    state.integral = max(0.0, desired_fraction / config.k_scale) / ki


def clamp(config: ControllerConfig, desired_fraction: float) -> int:
    """The desired fraction as a proportion inside [min, max]."""
    min_fraction = config.min_proportion_ppt / SCALE
    max_fraction = config.max_proportion_ppt / SCALE
    desired_fraction = min(max_fraction, max(min_fraction, desired_fraction))
    desired_ppt = int(round(desired_fraction * SCALE))
    return min(config.max_proportion_ppt, max(config.min_proportion_ppt, desired_ppt))


# ----------------------------------------------------------------------
# the whole law
# ----------------------------------------------------------------------
def estimate(
    state: State,
    config: ControllerConfig,
    pressure_raw: float,
    usage: Usage,
    current_ppt: int,
    dt: float,
) -> Estimate:
    """The thread's desired proportion for the next interval.

    ``pressure_raw`` is the summed progress pressure (or the
    miscellaneous constant), ``usage`` the last interval's CPU usage and
    ``current_ppt`` the proportion in force over it.
    """
    output_high = pid_limits(config)[0]
    cumulative = pid_step(
        state, pressure_raw, dt, config.pid_gains,
        output_low=0.0, output_high=output_high,
    )
    desired_fraction = config.k_scale * cumulative
    reclaimed = False
    if too_generous(state, config, usage, current_ppt):
        reclaim_fraction = max(
            (current_ppt - config.reclaim_decrement_ppt) / SCALE,
            state.used_fraction_ema,
        )
        if reclaim_fraction < desired_fraction:
            desired_fraction = reclaim_fraction
            reclaimed = True
            state.reclaim_count += 1
            wind_down(state, config, desired_fraction)
    return Estimate(clamp(config, desired_fraction), cumulative, reclaimed)
