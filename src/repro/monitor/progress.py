"""Progress-pressure sources (Figure 3 inputs).

For shared queues the paper computes the per-metric value as

    F_t,i = fill_level / size - 1/2

so F ranges over [-1/2, +1/2] with 0 at the half-full set point that
"leaves maximal room to handle bursts by both the producer and
consumer".  R_t,i flips the sign for producers.  A thread's summed
instantaneous pressure is Σ_i R_t,i · F_t,i, which the controller then
passes through the PID block G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ipc.registry import Linkage, SymbioticRegistry
from repro.sim.thread import SimThread

#: The target fill level: half full, per the paper.
SETPOINT_FILL = 0.5

#: Pressure applied to miscellaneous threads (no progress metric).  The
#: paper only says it is "a positive constant"; a modest value keeps a
#: lone hog from instantly demanding the whole machine while still
#: growing to use all spare CPU within a few controller periods.
DEFAULT_CONSTANT_PRESSURE = 0.25


@dataclass(frozen=True)
class PressureSample:
    """One thread's progress-pressure observation at a sampling instant.

    Attributes
    ----------
    raw:
        Σ R·F over all the thread's linkages (or the constant for
        metric-less threads); bounded by ±(number of linkages)/2.
    per_channel:
        The individual signed contributions, keyed by channel name, for
        tracing and debugging.
    saturated_full / saturated_empty:
        Whether any of the thread's queues was completely full or
        completely empty at the sample — the condition under which the
        controller may raise a quality exception during overload.
    mean_fill:
        Mean fill level across the thread's queues at the sample (the
        period estimator's input), or ``None`` when the source has no
        queues.  Computed alongside the pressures so the controller
        does not re-read every fill level a second time per tick.
    """

    raw: float
    per_channel: dict[str, float] = field(default_factory=dict)
    saturated_full: bool = False
    saturated_empty: bool = False
    mean_fill: Optional[float] = None


class ConstantPressureSource:
    """Pseudo-progress for threads with no symbiotic interface.

    "For proportion, the controller approximates the thread's progress
    with a positive constant. In this way there is constant pressure to
    allocate more CPU to a miscellaneous thread, until it is either
    satisfied or the CPU becomes oversubscribed."
    """

    def __init__(self, pressure: float = DEFAULT_CONSTANT_PRESSURE) -> None:
        if pressure <= 0:
            raise ValueError(
                f"miscellaneous pressure must be positive, got {pressure}"
            )
        self.pressure = pressure
        # The sample never varies, and PressureSample is frozen: hand
        # out one shared instance instead of building one per thread
        # per controller tick.
        self._sample = PressureSample(raw=pressure, per_channel={})

    def sample(self) -> PressureSample:
        """Return the constant pressure as a sample."""
        return self._sample


class ProgressSampler:
    """Collects a thread's combined pressure from the registry.

    One sampler per controlled thread; created lazily by the allocator
    when a thread registers.  The sampler re-reads the registry's
    linkage list at every sample so channels registered after the thread
    joined are picked up automatically.
    """

    def __init__(
        self,
        thread: SimThread,
        registry: SymbioticRegistry,
        setpoint: float = SETPOINT_FILL,
    ) -> None:
        self.thread = thread
        self.registry = registry
        self.setpoint = setpoint

    def linkages(self) -> list[Linkage]:
        """Current linkages for the thread."""
        return self.registry.linkages_for(self.thread)

    def sample(self) -> Optional[PressureSample]:
        """Sample the thread's summed pressure, or ``None`` if no metric."""
        linkages = self.linkages()
        if not linkages:
            return None
        total = 0.0
        fill_total = 0.0
        per_channel: dict[str, float] = {}
        saturated_full = False
        saturated_empty = False
        setpoint = self.setpoint
        for linkage in linkages:
            # F_t,i of Figure 3, signed by the linkage's role (R_t,i).
            channel = linkage.channel
            fill = channel.fill_level()
            fill_total += fill
            signed = linkage.role.sign * (fill - setpoint)
            per_channel[channel.name] = signed
            total += signed
            if channel.is_full():
                saturated_full = True
            if channel.is_empty():
                saturated_empty = True
        return PressureSample(
            raw=total,
            per_channel=per_channel,
            saturated_full=saturated_full,
            saturated_empty=saturated_empty,
            mean_fill=fill_total / len(linkages),
        )


__all__ = [
    "ConstantPressureSource",
    "DEFAULT_CONSTANT_PRESSURE",
    "PressureSample",
    "ProgressSampler",
    "SETPOINT_FILL",
]
