"""Proportion estimation (Figure 4).

:class:`ProportionEstimator` is the readable spec of the law; the
allocator's tick runs it inline on a flat per-thread record, and a
test checks the two bit for bit.  Each controller period the law takes
a thread's summed progress pressure (Figure 3) and its CPU usage over
the last interval, and produces the thread's *desired* proportion:

* **on target** — the cumulative pressure Q_t from the PID block is
  multiplied by the constant scaling factor k to give the new desired
  allocation (``P' = k * Q_t``);
* **too generous** — if the thread left more than a threshold fraction
  of its previous allocation unused, the pressure is assumed to be
  overestimating the real need (for example the thread is bottlenecked
  on a disk) and the allocation is instead reduced by the constant C
  (``P' = P - C``).  The PID integral is wound down to match so the
  next period starts from the reduced value instead of snapping back.

The result is always clamped to the configured [min, max] proportion
range; the minimum is what guarantees the paper's starvation-freedom
property.
"""

# float-order: exact — the estimation law replays the PID arithmetic;
# reassociating it would break golden-trace equality.

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.core.config import PROPORTION_SCALE, ControllerConfig
from repro.monitor.usage import UsageSample
from repro.swift.pid import PIDController


class EstimateResult(NamedTuple):
    """Outcome of one estimation step for one thread."""

    desired_ppt: int
    cumulative_pressure: float
    reclaimed: bool


class ProportionEstimator:
    """Per-thread implementation of the Figure 4 estimation law."""

    def __init__(self, config: ControllerConfig) -> None:
        self.config = config
        # The PID output is a cumulative pressure; scaling by k turns it
        # into a CPU fraction, so bounding the output at
        # max_fraction / k bounds the desired fraction (and, through the
        # integral clamp inside PIDController, provides anti-windup).
        self.pid = PIDController(
            config.pid_gains,
            output_low=0.0,
            output_high=self.pid_limits(config)[0],
        )
        self.last_desired_ppt = config.min_proportion_ppt
        self.reclaim_count = 0
        # Smoothed used/allocated ratio.  A thread whose reservation
        # period is longer than the controller interval receives its
        # allocation in bursts, so a single interval can legitimately
        # show zero usage; the reclaim rule therefore looks at a short
        # exponential average rather than one sample.
        self._usage_ratio_ema = 1.0
        # Smoothed fraction of the CPU the thread actually used; the
        # reclaim rule never reduces the allocation below this, so a
        # thread that is genuinely using (say) 12% of the machine is not
        # reclaimed down to the floor just because it was granted more.
        self._used_fraction_ema = 0.0

    #: Weight of the newest usage sample in the smoothed ratio.
    USAGE_EMA_ALPHA = 0.25

    @staticmethod
    def pid_limits(
        config: ControllerConfig,
    ) -> tuple[float, Optional[float], Optional[float]]:
        """``(output_high, integral_low, integral_high)`` of the PID.

        The output range is [0, max_fraction / k]; the integral clamp is
        the PID's own anti-windup rule applied to that range.
        """
        output_high = config.max_fraction / config.k_scale
        integral_low, integral_high = PIDController.integral_limits(
            config.pid_gains, 0.0, output_high
        )
        return output_high, integral_low, integral_high

    def estimate(
        self,
        pressure_raw: float,
        usage: UsageSample,
        current_ppt: int,
        dt: float,
    ) -> EstimateResult:
        """Produce the thread's desired proportion for the next interval.

        Parameters
        ----------
        pressure_raw:
            Σ R·F over the thread's progress metrics (or the
            miscellaneous constant).
        usage:
            CPU used vs. allocated over the previous controller
            interval, for the reclaim rule.
        current_ppt:
            The proportion actually in force over the previous interval
            (post-squish), which is what the reclaim rule decrements.
        dt:
            Controller period in seconds.
        """
        config = self.config
        cumulative = self.pid.step(pressure_raw, dt)
        desired_fraction = config.k_scale * cumulative
        reclaimed = False

        if self._too_generous(usage, current_ppt):
            reclaim_fraction = (
                current_ppt - config.reclaim_decrement_ppt
            ) / PROPORTION_SCALE
            # Never reclaim below what the thread is demonstrably using.
            reclaim_fraction = max(reclaim_fraction, self._used_fraction_ema)
            if reclaim_fraction < desired_fraction:
                desired_fraction = reclaim_fraction
                reclaimed = True
                self.reclaim_count += 1
                self._wind_down_to(desired_fraction)

        desired_fraction = min(config.max_fraction, max(config.min_fraction,
                                                        desired_fraction))
        desired_ppt = int(round(desired_fraction * PROPORTION_SCALE))
        desired_ppt = min(config.max_proportion_ppt,
                          max(config.min_proportion_ppt, desired_ppt))
        self.last_desired_ppt = desired_ppt
        return EstimateResult(
            desired_ppt=desired_ppt,
            cumulative_pressure=cumulative,
            reclaimed=reclaimed,
        )

    def _too_generous(self, usage: UsageSample, current_ppt: int) -> bool:
        """Whether the previous allocation overestimated the real need."""
        used_us, interval_us, allocated_us = usage
        if allocated_us <= 0 or interval_us <= 0:
            return False
        ratio = min(2.0, used_us / allocated_us)
        alpha = self.USAGE_EMA_ALPHA
        beta = 1.0 - alpha
        self._usage_ratio_ema = alpha * ratio + beta * self._usage_ratio_ema
        # interval_us > 0 was checked above, so this is exactly
        # usage.used_fraction without the property's guard branch.
        self._used_fraction_ema = (
            alpha * (used_us / interval_us) + beta * self._used_fraction_ema
        )
        if current_ppt <= self.config.min_proportion_ppt:
            return False
        unused = 1.0 - min(1.0, self._usage_ratio_ema)
        return unused > self.config.unused_threshold

    def _wind_down_to(self, desired_fraction: float) -> None:
        """Make the PID's internal state consistent with a reclaim.

        Without this, the integral term would still encode the old
        (too-generous) allocation and the very next period would undo
        the reclaim.  We set the integral so that, at zero error, the
        controller reproduces the reclaimed value.
        """
        gains = self.config.pid_gains
        if gains.ki <= 0:
            return
        target_output = max(0.0, desired_fraction / self.config.k_scale)
        self.pid.preload_integral(target_output / gains.ki)

    def reset(self) -> None:
        """Clear the estimator's internal state."""
        self.pid.reset()
        self.last_desired_ppt = self.config.min_proportion_ppt
        self.reclaim_count = 0
        self._usage_ratio_ema = 1.0
        self._used_fraction_ema = 0.0


__all__ = ["EstimateResult", "ProportionEstimator"]
