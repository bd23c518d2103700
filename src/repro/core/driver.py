"""Driving the controller inside a simulated system.

The paper's controller is a user-level process scheduled alongside the
jobs it controls; Figure 5 measures its CPU overhead as a function of
the number of controlled processes and finds it linear
(``y = .00066 x + .00057`` at a 10 ms controller period).

:class:`ControllerDriver` attaches a :class:`ProportionAllocator` to a
:class:`~repro.sim.kernel.Kernel` as a periodic activity.  Each firing

1. runs one allocator update,
2. charges the modelled controller cost to the simulation as stolen CPU
   time (so experiments see the overhead the paper's users would see),
   and
3. records per-thread allocation traces in the kernel's tracer.

The driver reads no host clock: the wall cost of a tick is measured
outside the simulation, by perfbench's ``core.allocator.update`` span.
"""

# float-order: exact — the overhead remainder fold decides how many
# whole microseconds steal_cpu takes, and so shapes the dispatch log.

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

from repro.core.allocator import AllocationDecision, ProportionAllocator
from repro.sim.events import PeriodicEvent
from repro.sim.kernel import Kernel

#: Calibration of the modelled controller cost.  With a 10 ms controller
#: period these values reproduce the paper's measured overhead line:
#: 6.6 us per controlled process -> slope 0.00066, 5.7 us fixed ->
#: intercept 0.00057.
PAPER_PER_THREAD_COST_US = 6.6
PAPER_FIXED_COST_US = 5.7


@dataclass
class ControllerOverheadModel:
    """Linear model of the controller's per-invocation CPU cost.

    ``cost = fixed_us + per_thread_us * controlled_threads`` — linear in
    the number of controlled threads because each invocation must "read
    the progress metrics from the kernel, calculate new allocations,
    and send the new values to the in-kernel RBS" for every thread.
    """

    fixed_us: float = PAPER_FIXED_COST_US
    per_thread_us: float = PAPER_PER_THREAD_COST_US

    def __post_init__(self) -> None:
        if self.fixed_us < 0 or self.per_thread_us < 0:
            raise ValueError(
                "controller overhead costs cannot be negative, got "
                f"fixed={self.fixed_us}, per_thread={self.per_thread_us}"
            )

    def cost_us(self, controlled_threads: int) -> float:
        """Modelled CPU cost of one controller invocation."""
        if controlled_threads < 0:
            raise ValueError(
                f"thread count cannot be negative, got {controlled_threads}"
            )
        return self.fixed_us + self.per_thread_us * controlled_threads


class ControllerDriver:
    """Runs a :class:`ProportionAllocator` periodically inside a kernel."""

    def __init__(
        self,
        kernel: Kernel,
        allocator: ProportionAllocator,
        *,
        period_us: Optional[int] = None,
        overhead_model: Optional[ControllerOverheadModel] = None,
        charge_overhead: bool = True,
        trace_allocations: bool = True,
        start_us: int = 0,
    ) -> None:
        self.kernel = kernel
        self.allocator = allocator
        self.period_us = (
            period_us
            if period_us is not None
            else allocator.config.controller_period_us
        )
        self.overhead_model = (
            overhead_model if overhead_model is not None else ControllerOverheadModel()
        )
        self.charge_overhead = charge_overhead
        self.trace_allocations = trace_allocations

        self.invocations = 0
        self.modeled_cost_us_total = 0.0
        self.last_decisions: list[AllocationDecision] = []
        self._overhead_remainder = 0.0
        #: tid -> [alloc times, alloc values, pressure times, pressure
        #: values] (the pressure pair ``None`` until its first sample):
        #: series columns resolved once per thread, not once per tick.
        self._trace_columns: dict[int, list] = {}
        #: "alloc:total" columns, created on first use so a driver that
        #: never ticks leaves no empty series behind.
        self._total_columns: Optional[tuple[array[int], array[float]]] = None
        # The tick is a periodic entry in the kernel's unified event
        # calendar, so the idle fast-forward sees the next sample as an
        # ordinary transition instead of being polled for it.
        self._periodic: PeriodicEvent = kernel.add_periodic(
            self.period_us, self._tick, start_us=start_us, label="controller"
        )

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop running the controller (existing reservations persist)."""
        self._periodic.stop()

    def _tick(self, now: int) -> None:
        decisions = self.allocator.update(now)
        self.invocations += 1
        self.last_decisions = decisions

        cost = self.overhead_model.cost_us(len(decisions))
        self.modeled_cost_us_total += cost
        if self.charge_overhead:
            self._overhead_remainder += cost
            whole = int(self._overhead_remainder)
            if whole > 0:
                self._overhead_remainder -= whole
                self.kernel.steal_cpu(whole, reason="controller")

        if self.trace_allocations:
            # Samples go straight onto each series' typed columns: the
            # int64 time column takes ``int(now)`` and the double value
            # column converts an int grant itself.  A sample earlier than
            # its series' last one goes through Tracer.record, which
            # raises.
            tracer = self.kernel.tracer
            cache = self._trace_columns
            time_us = int(now)
            total_granted = 0
            for decision in decisions:
                thread = decision.thread
                entry = cache.get(thread.tid)
                if entry is None:
                    # The pressure series stays uncreated until the
                    # first real sample, exactly as when it was created
                    # through Tracer.record — threads that never report
                    # a pressure must not leave an empty series behind.
                    entry = cache[thread.tid] = [
                        *tracer.series(f"alloc:{thread.name}").columns(), None, None
                    ]
                granted = decision.granted_ppt
                total_granted += granted
                times = entry[0]
                if times and now < times[-1]:
                    tracer.record(f"alloc:{thread.name}", now, granted)
                times.append(time_us)
                entry[1].append(granted)
                pressure = decision.cumulative_pressure
                if pressure is not None:
                    if entry[2] is None:
                        entry[2:] = tracer.series(f"pressure:{thread.name}").columns()
                    times = entry[2]
                    if times and now < times[-1]:
                        tracer.record(f"pressure:{thread.name}", now, pressure)
                    times.append(time_us)
                    entry[3].append(pressure)
            # Aggregate grant, for eyeballing total load against the
            # kernel's capacity of n_cpus * PROPORTION_SCALE.
            if self._total_columns is None:
                self._total_columns = tracer.series("alloc:total").columns()
            times, values = self._total_columns
            if times and now < times[-1]:
                tracer.record("alloc:total", now, total_granted)
            times.append(time_us)
            values.append(total_granted)

    # ------------------------------------------------------------------
    # overhead reporting (Figure 5)
    # ------------------------------------------------------------------
    def modeled_overhead_fraction(self) -> float:
        """Modelled controller CPU as a fraction of elapsed virtual time."""
        if self.kernel.now <= 0:
            return 0.0
        return self.modeled_cost_us_total / self.kernel.now


__all__ = [
    "ControllerDriver",
    "ControllerOverheadModel",
    "PAPER_FIXED_COST_US",
    "PAPER_PER_THREAD_COST_US",
]
