"""Controller configuration.

Collects every tunable of the adaptive controller in one dataclass so
experiments and ablations can vary a single knob without touching the
allocator.  Defaults are calibrated so the Figure 6 pulse workload
responds in roughly a third of a second, as the paper reports, while
remaining well damped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import ControllerError

#: Parts-per-thousand scale used throughout (matches the paper's interface).
PROPORTION_SCALE = 1_000

#: Time constant (s) of the low-pass filter on the PID's derivative term.
DERIVATIVE_FILTER_S = 0.05

#: Weight of the newest sample in the reclaim rule's usage EMAs.
USAGE_EMA_ALPHA = 0.25


@dataclass(frozen=True)
class PIDGains:
    """Gains for the three PID terms (the G function of Figure 3).

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


@dataclass
class ControllerConfig:
    """All tunables of the :class:`~repro.core.allocator.ProportionAllocator`.

    Attributes
    ----------
    controller_period_us:
        How often the controller samples progress and re-actuates.  The
        paper's prototype samples at 100 Hz (10 ms).
    pid_gains:
        Gains of the PID block (the G function of Figure 3).
    k_scale:
        The constant scaling factor of Figure 4 that converts cumulative
        pressure into a desired CPU fraction.
    setpoint_fill:
        Target queue fill level (the paper uses 1/2).
    min_proportion_ppt:
        Floor applied to every controlled thread; guarantees the
        paper's "every job in the system is assigned a non-zero
        percentage of the CPU" starvation-freedom property.
    max_proportion_ppt:
        Ceiling applied to any single thread's allocation.
    overload_threshold_ppt:
        Total allocation above which the controller squishes; below
        1000 to "reserve some capacity to cover the overhead of
        scheduling and interrupt handling".
    admission_threshold_ppt:
        Total *real-time* reservation above which new real-time
        requests are rejected.
    default_period_us:
        Period assigned when the application does not specify one
        (30 ms in the paper).
    interactive_period_us:
        Period pinned for interactive jobs.
    misc_pressure:
        The positive constant used as pseudo-progress for miscellaneous
        threads.
    unused_threshold:
        Fraction of the allocation that must go unused before the
        reclaim ("too generous") rule of Figure 4 fires.
    reclaim_decrement_ppt:
        The constant C of Figure 4: how much the allocation is reduced
        per controller period while the thread is not using it.
    adapt_period:
        Enables the period-estimation heuristic (the paper disables it
        for all reported experiments; our figure reproductions do too).
    period_min_us / period_max_us:
        Bounds for the adapted period.
    period_grow_factor / period_shrink_factor:
        Multiplicative steps used by the heuristic.
    quantization_quanta:
        If a thread's per-period allocation is smaller than this many
        dispatch intervals, the heuristic considers it quantisation-
        limited and grows the period.
    oscillation_threshold:
        Mean per-period fill-level swing (fraction of the buffer) above
        which the heuristic shrinks the period to reduce jitter.
    oscillation_window:
        Number of controller samples over which the swing is averaged.
    """

    controller_period_us: int = 10_000
    pid_gains: PIDGains = field(default_factory=PIDGains)
    k_scale: float = 10.0
    setpoint_fill: float = 0.5
    min_proportion_ppt: int = 5
    max_proportion_ppt: int = 950
    overload_threshold_ppt: int = 850
    admission_threshold_ppt: int = 900
    default_period_us: int = 30_000
    interactive_period_us: int = 30_000
    misc_pressure: float = 0.25
    unused_threshold: float = 0.6
    reclaim_decrement_ppt: int = 30
    adapt_period: bool = False
    period_min_us: int = 5_000
    period_max_us: int = 200_000
    period_grow_factor: float = 1.25
    period_shrink_factor: float = 0.8
    quantization_quanta: int = 4
    oscillation_threshold: float = 0.2
    oscillation_window: int = 8

    def __post_init__(self) -> None:
        if self.controller_period_us <= 0:
            raise ControllerError(
                f"controller period must be positive, got {self.controller_period_us}"
            )
        if not 0 < self.setpoint_fill < 1:
            raise ControllerError(
                f"setpoint fill must be in (0, 1), got {self.setpoint_fill}"
            )
        if not 0 < self.min_proportion_ppt <= self.max_proportion_ppt <= PROPORTION_SCALE:
            raise ControllerError(
                "proportion bounds must satisfy 0 < min <= max <= 1000, got "
                f"min={self.min_proportion_ppt}, max={self.max_proportion_ppt}"
            )
        if not 0 < self.overload_threshold_ppt <= PROPORTION_SCALE:
            raise ControllerError(
                f"overload threshold must be in (0, 1000], got "
                f"{self.overload_threshold_ppt}"
            )
        if not 0 < self.admission_threshold_ppt <= PROPORTION_SCALE:
            raise ControllerError(
                f"admission threshold must be in (0, 1000], got "
                f"{self.admission_threshold_ppt}"
            )
        if self.k_scale <= 0:
            raise ControllerError(f"k_scale must be positive, got {self.k_scale}")
        if self.misc_pressure <= 0:
            raise ControllerError(
                f"misc_pressure must be positive, got {self.misc_pressure}"
            )
        if not 0 <= self.unused_threshold <= 1:
            raise ControllerError(
                f"unused_threshold must be in [0, 1], got {self.unused_threshold}"
            )
        if self.reclaim_decrement_ppt <= 0:
            raise ControllerError(
                f"reclaim_decrement_ppt must be positive, got "
                f"{self.reclaim_decrement_ppt}"
            )
        if not 0 < self.period_min_us <= self.period_max_us:
            raise ControllerError(
                "period bounds must satisfy 0 < min <= max, got "
                f"min={self.period_min_us}, max={self.period_max_us}"
            )
        if self.default_period_us <= 0 or self.interactive_period_us <= 0:
            raise ControllerError("default and interactive periods must be positive")

    @property
    def controller_period_s(self) -> float:
        """Controller period in seconds (the PID's dt)."""
        return self.controller_period_us / 1_000_000

    # ------------------------------------------------------------------
    # multiprocessor capacity scaling
    # ------------------------------------------------------------------
    def overload_threshold_total_ppt(self, n_cpus: int = 1) -> int:
        """Squish threshold against total capacity ``n_cpus * 1000``.

        The per-CPU headroom (1000 - overload_threshold_ppt, reserved
        for scheduling and interrupt overhead) scales with the CPU
        count, so each CPU keeps the same reserve the paper argues for.
        """
        if n_cpus < 1:
            raise ControllerError(f"n_cpus must be at least 1, got {n_cpus}")
        return self.overload_threshold_ppt * n_cpus

    @property
    def min_fraction(self) -> float:
        """Minimum proportion as a fraction of the CPU."""
        return self.min_proportion_ppt / PROPORTION_SCALE

    @property
    def max_fraction(self) -> float:
        """Maximum proportion as a fraction of the CPU."""
        return self.max_proportion_ppt / PROPORTION_SCALE

    @property
    def pid_limits(self) -> tuple[float, Optional[float], Optional[float]]:
        """``(output_high, integral_low, integral_high)`` of the PID.

        The PID output is a cumulative pressure that ``k_scale`` turns
        into a CPU fraction, so its range is [0, max_fraction / k].  The
        integral is clamped to that range over ``ki`` (anti-windup), and
        left unclamped when ``ki`` is zero.
        """
        output_high = self.max_fraction / self.k_scale
        ki = self.pid_gains.ki
        if ki <= 0:
            return output_high, None, None
        return output_high, 0.0, output_high / ki


__all__ = [
    "DERIVATIVE_FILTER_S",
    "PROPORTION_SCALE",
    "USAGE_EMA_ALPHA",
    "ControllerConfig",
    "PIDGains",
]
