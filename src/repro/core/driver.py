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
3. appends a sample to each series of its own that a reader watches in
   the kernel's tracer (:meth:`~repro.sim.trace.Tracer.watch`):
   ``alloc:<name>`` (a thread's grant), ``pressure:<name>`` (its
   cumulative pressure, when it has one) and ``alloc:total`` (the sum
   of the grants).  With nothing watched it does no trace work.

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
from repro.sim.trace import TraceSeries

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

        self.invocations = 0
        self.modeled_cost_us_total = 0.0
        self.last_decisions: list[AllocationDecision] = []
        self._overhead_remainder = 0.0
        #: The time of every tick that sampled a watched series; every
        #: series this driver samples reads its times from here (index
        #: 0 is never a sample, see TraceSeries.share).
        self._tick_times: array[int] = array("q", [0])
        #: (decision, alloc series, pressure series) per controlled
        #: thread with a watched series, in decision order (a series
        #: ``None`` when not watched), and the watched "alloc:total".
        self._watched_threads: list[
            tuple[AllocationDecision, Optional[TraceSeries], Optional[TraceSeries]]
        ] = []
        self._total_series: Optional[TraceSeries] = None
        #: (watched names, allocator membership version) the two above
        #: were resolved at: they change only when a reader watches a
        #: series or a thread joins or leaves control.
        self._resolved_at = (0, -1)
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
                self.kernel.steal_cpu(whole)

        if self.kernel.tracer.watched:
            self._trace(now, decisions)

    def _trace(self, now: int, decisions: list[AllocationDecision]) -> None:
        """Sample this tick's decisions into the watched series."""
        watched = self.kernel.tracer.watched
        key = (len(watched), self.allocator.membership_version)
        if key != self._resolved_at:
            # Decisions are reused across ticks, so the resolved list
            # stays valid until a thread joins or leaves control.
            self._watched_threads = []
            for decision in decisions:
                name = decision.thread.name
                alloc = watched.get(f"alloc:{name}")
                pressure = watched.get(f"pressure:{name}")
                if alloc is not None or pressure is not None:
                    self._watched_threads.append((decision, alloc, pressure))
            self._total_series = watched.get("alloc:total")
            self._resolved_at = key
        total_series = self._total_series
        if not self._watched_threads and total_series is None:
            return
        # The tick's time is stored once, in the tick-time column.
        ticks = self._tick_times
        ticks.append(int(now))
        tick = len(ticks) - 1
        sample = self._sample
        for decision, alloc, pressure in self._watched_threads:
            if alloc is not None:
                sample(alloc, tick, now, decision.granted_ppt)
            if pressure is not None and decision.cumulative_pressure is not None:
                sample(pressure, tick, now, decision.cumulative_pressure)
        if total_series is not None:
            # Aggregate grant, for eyeballing total load against the
            # kernel's capacity of n_cpus * PROPORTION_SCALE.
            total_granted = 0
            for decision in decisions:
                total_granted += decision.granted_ppt
            sample(total_series, tick, now, total_granted)

    def _sample(self, series: TraceSeries, tick: int, now: int, value: float) -> None:
        """Append ``value`` at tick ``tick`` (time ``now``) to ``series``.

        An empty series first shares the tick-time column from this
        tick on.  A series on the column with a sample for every tick
        since its first and none yet for this one takes just the value
        (the double column converts an int grant itself).  Any other
        sample (a missed tick, two threads with one name, a series
        someone else appended to) goes through TraceSeries.append,
        which moves the series onto its own copy of its times and
        raises on a sample earlier than its last.
        """
        series.share(self._tick_times)
        values = series._values
        if series._times is self._tick_times and series._first + len(values) == tick:
            values.append(value)
        else:
            series.append(now, value)

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
