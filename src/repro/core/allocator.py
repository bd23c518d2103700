"""The adaptive controller (Figure 1's "Controller" box).

:class:`ProportionAllocator` closes the feedback loop:

1. **Monitor progress** — for every controlled thread it samples the
   symbiotic registry (queue fill levels and roles) or falls back to
   the miscellaneous constant-pressure heuristic.
2. **Estimate** — the Figure 4 law turns the pressure and
   last-interval CPU usage into a desired proportion; real-time and
   aperiodic real-time threads skip this and use their specified
   proportion.  The tick runs that law inline on one flat record per
   thread, which holds the PID, usage and reclaim state itself.  This
   is the paper's SWiFT feedback circuit, realised as one function.
3. **Resolve overload** — desired allocations are summed; if they
   exceed the overload threshold, real-rate and miscellaneous proposals
   are squished (fair share or weighted fair share), and quality
   exceptions are raised for threads whose queues have saturated.
4. **Actuate** — the resulting (proportion, period) pairs are written
   into the reservation scheduler.

The allocator is deliberately independent of the simulation kernel: it
only needs a scheduler that accepts reservations, a registry to read
fill levels from, and a clock value passed into :meth:`update`.  The
:class:`~repro.core.driver.ControllerDriver` wires it to a simulated
system and models its own CPU cost.
"""

# float-order: exact — the tick runs the Figure 4 estimation law;
# reassociating it would break golden-trace equality.

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import (
    DERIVATIVE_FILTER_S,
    PROPORTION_SCALE,
    USAGE_EMA_ALPHA,
    ControllerConfig,
)
from repro.core.errors import AdmissionError, ControllerError, QualityException
from repro.core.overload import (
    SquishPolicy,
    WeightedFairShareSquish,
    check_admission,
)
from repro.core.period import PeriodEstimator
from repro.core.taxonomy import ThreadClass, ThreadSpec, classify
from repro.ipc.registry import SymbioticRegistry
from repro.monitor.progress import ConstantPressureSource, ProgressSampler
from repro.sched.rbs import ReservationScheduler
from repro.sim.thread import SimThread, ThreadState


@dataclass
class AllocationDecision:
    """What the controller decided for one thread in one period."""

    thread: SimThread
    thread_class: ThreadClass
    pressure_raw: Optional[float]
    cumulative_pressure: Optional[float]
    desired_ppt: int
    granted_ppt: int
    period_us: int
    squished: bool = False
    reclaimed: bool = False
    #: Saturation direction noted during the decision ("full"/"empty"),
    #: consumed by the quality-exception check during overload.
    _saturation: Optional[str] = field(default=None, repr=False, compare=False)


@dataclass(slots=True)
class _ControlledThread:
    """Internal per-thread controller state, one flat record that the
    tick reads and writes directly.  A thread that is unregistered and
    registered again starts from a fresh record."""

    thread: SimThread
    spec: ThreadSpec
    sampler: ProgressSampler
    #: The thread's decision, made at registration and mutated in
    #: place every tick; its ``granted_ppt`` is the proportion last
    #: actuated and its ``thread_class`` is set by the tick layout.
    decision: AllocationDecision
    #: Desired proportion of the last Figure 4 step.
    last_desired_ppt: int
    period_estimator: Optional[PeriodEstimator] = None
    # -- Figure 4: PID state, then the reclaim rule's EMAs and count --
    integral: float = 0.0
    #: Pressure of the previous step (``None`` before the first).
    last_error: Optional[float] = None
    derivative: float = 0.0
    derivative_primed: bool = False
    usage_ratio_ema: float = 1.0
    used_fraction_ema: float = 0.0
    reclaim_count: int = 0
    # -- last usage sample: lifetime CPU and the time it was read --
    last_total_us: Optional[int] = None
    last_sample_us: int = 0


@dataclass(slots=True)
class _TickLayout:
    """What a tick reads that changes only when a thread joins or
    leaves control or a linkage moves: the records and their decisions
    and threads in registration order, and the decisions and
    importances of each squishable tier (see ``update``)."""

    #: ``(membership_version, registry.version)`` it was laid out at.
    key: tuple[int, int]
    records: list[_ControlledThread]
    decisions: list[AllocationDecision] = field(default_factory=list)
    threads: list[SimThread] = field(default_factory=list)
    rr_decisions: list[AllocationDecision] = field(default_factory=list)
    rr_importance: list[float] = field(default_factory=list)
    misc_decisions: list[AllocationDecision] = field(default_factory=list)
    misc_importance: list[float] = field(default_factory=list)


class ProportionAllocator:
    """Feedback-driven assignment of proportion and period.

    Parameters
    ----------
    scheduler:
        The reservation scheduler to actuate.
    registry:
        The symbiotic-interface registry to read progress from.
    config:
        Controller tunables.
    squish_policy:
        Overload policy; defaults to weighted fair share (which equals
        plain fair share when all importances are 1, the paper's base
        policy).
    """

    def __init__(
        self,
        scheduler: ReservationScheduler,
        registry: SymbioticRegistry,
        config: Optional[ControllerConfig] = None,
        squish_policy: Optional[SquishPolicy] = None,
    ) -> None:
        self.scheduler = scheduler
        self.registry = registry
        self.config = config if config is not None else ControllerConfig()
        self.squish_policy = (
            squish_policy
            if squish_policy is not None
            else WeightedFairShareSquish(self.config.min_proportion_ppt)
        )
        self.misc_pressure_source = ConstantPressureSource(self.config.misc_pressure)
        self.quality_exceptions: list[QualityException] = []
        self._controlled: dict[int, _ControlledThread] = {}
        #: Bumped whenever a thread joins or leaves control, so a reader
        #: of the (reused) decisions knows when to look them up again.
        self.membership_version = 0
        self._layout = self._lay_out()

    @property
    def capacity_cpus(self) -> int:
        """CPU count the controller budgets against (scheduler's kernel).

        Counts only *online* CPUs so admission and overload thresholds
        tighten the moment a CPU fails and relax again on recovery.
        """
        return self.scheduler.online_cpu_count

    # ------------------------------------------------------------------
    # registration (what the paper's jobs do explicitly)
    # ------------------------------------------------------------------
    def register(self, thread: SimThread, spec: Optional[ThreadSpec] = None) -> None:
        """Place ``thread`` under control of the allocator.

        Real-time specs (proportion and period both given) go through
        admission control and are actuated immediately, because a
        reservation must hold from the moment it is accepted, not from
        the next controller tick.  On a multiprocessor admission is a
        partitioned-schedulability test (:func:`check_admission`):
        the placement policy's greedy packing of all live real-time
        reservations — pinned ones on their CPU — must still fit the
        request under some CPU's admission threshold.
        """
        if thread.tid in self._controlled:
            raise ControllerError(f"thread {thread.name!r} is already controlled")
        spec = spec if spec is not None else ThreadSpec()
        if spec.specifies_proportion:
            check_admission(
                self.config,
                self._real_time_reservations(),
                spec.proportion_ppt,
                thread.affinity,
                thread.name,
                n_cpus=self.capacity_cpus,
            )
        state = _ControlledThread(
            thread=thread,
            spec=spec,
            sampler=ProgressSampler(
                thread, self.registry, setpoint=self.config.setpoint_fill
            ),
            decision=AllocationDecision(
                thread, classify(spec, self.registry.has_progress_metric(thread)),
                pressure_raw=None, cumulative_pressure=None,
                desired_ppt=0, granted_ppt=0, period_us=0,
            ),
            last_desired_ppt=self.config.min_proportion_ppt,
        )
        if self.config.adapt_period:
            state.period_estimator = PeriodEstimator(
                self.config,
                self.scheduler.dispatch_interval_us,
                initial_period_us=spec.period_us,
            )
        self._controlled[thread.tid] = state
        self.membership_version += 1
        if spec.specifies_proportion:
            period = spec.period_us or self.config.default_period_us
            self.scheduler.set_reservation(thread, spec.proportion_ppt, period)
            state.decision.granted_ppt = spec.proportion_ppt

    def would_admit(
        self,
        proportion_ppt: int,
        *,
        affinity: Optional[int] = None,
        name: str = "<candidate>",
    ) -> bool:
        """Whether a real-time reservation of ``proportion_ppt`` would
        pass admission control right now.

        The open-system workload engine's admission-on-arrival check:
        the same partitioned-schedulability test :meth:`register` runs
        (so a ``True`` answer guarantees the immediately following
        ``register`` succeeds — the simulation is single-threaded), but
        returning a verdict instead of raising, so a rejected arrival
        is an expected outcome, not an exception.  Capacity freed by an
        exited job is visible immediately: the test only counts *live*
        real-time reservations.
        """
        try:
            check_admission(
                self.config,
                self._real_time_reservations(),
                proportion_ppt,
                affinity,
                name,
                n_cpus=self.capacity_cpus,
            )
        except AdmissionError:
            return False
        return True

    def unregister(self, thread: SimThread) -> None:
        """Remove ``thread`` from control (its reservation is cleared)."""
        state = self._controlled.pop(thread.tid, None)
        if state is None:
            return
        self.membership_version += 1
        if thread.state.is_live:
            self.scheduler.clear_reservation(thread)

    def controlled_threads(self) -> list[SimThread]:
        """All threads currently under control."""
        return [state.thread for state in self._controlled.values()]

    def spec_for(self, thread: SimThread) -> ThreadSpec:
        """The spec a thread registered with."""
        state = self._controlled.get(thread.tid)
        if state is None:
            raise ControllerError(f"thread {thread.name!r} is not controlled")
        return state.spec

    def sampler_for(self, thread: SimThread) -> ProgressSampler:
        """The progress sampler the controller reads for ``thread``.

        Exposed so fault injection can wrap the sensor path (dropout /
        corruption windows) without reaching into private state.
        """
        state = self._controlled.get(thread.tid)
        if state is None:
            raise ControllerError(f"thread {thread.name!r} is not controlled")
        return state.sampler

    def set_sampler(self, thread: SimThread, sampler: ProgressSampler) -> None:
        """Replace the progress sampler the controller reads for ``thread``.

        The counterpart of :meth:`sampler_for`: fault injection swaps in
        a wrapping sensor for the fault window and restores the original
        afterwards.  The sampler must observe the same thread.
        """
        state = self._controlled.get(thread.tid)
        if state is None:
            raise ControllerError(f"thread {thread.name!r} is not controlled")
        if sampler.thread is not thread:
            raise ControllerError(
                f"sampler observes {sampler.thread.name!r}, not {thread.name!r}"
            )
        state.sampler = sampler

    def _real_time_reservations(self) -> list[tuple[int, Optional[int]]]:
        """Live real-time reservations as (proportion, affinity) pairs."""
        return [
            (state.spec.proportion_ppt, state.thread.affinity)
            for state in self._controlled.values()
            if state.spec.specifies_proportion and state.thread.state.is_live
        ]

    # ------------------------------------------------------------------
    # the controller period
    # ------------------------------------------------------------------
    def update(self, now: int) -> list[AllocationDecision]:
        """Run one controller period at virtual time ``now``.

        Returns the decisions made, in registration order, after
        actuating them on the scheduler.

        The returned list and the :class:`AllocationDecision` objects in
        it are **reused across ticks** (one long-lived decision per
        controlled thread, mutated in place, and one list per tick
        layout) — a deliberate hot-path trade-off, since one decision
        exists per thread per tick.  Read them before the next update;
        a caller that wants a history must copy the fields it cares
        about, not retain the objects.

        The tick is one pass over the tick layout (:meth:`_lay_out`),
        which is rebuilt only when a thread joins or leaves control or
        a linkage moves.  For each thread the tick samples usage and
        progress, runs the Figure 4 law inline on the fields of the
        thread's flat record — the PID step, the reclaim rule with its
        two EMAs, the integral wind-down and the clamps — picks the
        period, and appends the desired proportion to its overload
        tier.  Overload resolution then works from the tiers, and one
        ``scheduler.actuate`` call applies every grant.
        """
        self._drop_exited()
        layout = self._layout
        if layout.key != (self.membership_version, self.registry.version):
            layout = self._layout = self._lay_out()

        # Per-tick constants: the Figure 4 gains and limits are the
        # config's, the same for every thread.
        config = self.config
        dt = config.controller_period_s
        gains = config.pid_gains
        kp = gains.kp
        ki = gains.ki
        kd = gains.kd
        k_scale = config.k_scale
        output_high, integral_low, integral_high = config.pid_limits
        alpha = USAGE_EMA_ALPHA
        beta = 1.0 - alpha
        # The derivative filter's gain, dt / (tc + dt), is fixed per tick.
        filter_gain = dt / (DERIVATIVE_FILTER_S + dt)
        min_ppt = config.min_proportion_ppt
        max_ppt = config.max_proportion_ppt
        min_fraction = config.min_fraction
        max_fraction = config.max_fraction
        unused_threshold = config.unused_threshold
        reclaim_decrement = config.reclaim_decrement_ppt
        default_period = config.default_period_us
        interactive_period = config.interactive_period_us
        misc_pressure = self.misc_pressure_source.pressure
        real_rate = ThreadClass.REAL_RATE
        miscellaneous = ThreadClass.MISCELLANEOUS
        real_time = ThreadClass.REAL_TIME

        # The overload inputs, built in the same pass: real-time and
        # aperiodic desires are protected, real-rate and miscellaneous
        # ones are squishable (each desired list is index-aligned with
        # its tier's decisions and importances in the layout).
        protected = 0
        real_rate_total = 0
        misc_total = 0
        rr_desired: list[int] = []
        misc_desired: list[int] = []

        for state in layout.records:
            spec = state.spec
            thread = state.thread
            decision = state.decision
            thread_class = decision.thread_class

            # Usage sampling, on the record: the previous sample is read
            # and replaced, no sample object.
            total = thread.accounting.total_us
            last_total = state.last_total_us
            last_time = state.last_sample_us
            state.last_total_us = total
            state.last_sample_us = now

            if thread_class is not real_rate and thread_class is not miscellaneous:
                # Real-time and aperiodic real-time: keep the specified
                # proportion; usage is still sampled above so the
                # record's last sample stays continuous.
                decision.pressure_raw = None
                decision.cumulative_pressure = None
                decision.desired_ppt = decision.granted_ppt = spec.proportion_ppt
                if thread_class is real_time:
                    decision.period_us = spec.period_us
                elif spec.interactive:
                    decision.period_us = interactive_period
                else:
                    decision.period_us = default_period
                protected += decision.desired_ppt
                continue

            if thread_class is real_rate:
                sample = state.sampler.sample()
                pressure_raw = sample.raw if sample is not None else 0.0
                fill_level = sample.mean_fill if sample is not None else None
            else:
                sample = None
                pressure_raw = misc_pressure
                fill_level = None

            current_ppt = decision.granted_ppt
            if last_total is None:
                used = 0
                interval = 0
            else:
                used = total - last_total
                if used < 0:
                    used = 0
                interval = now - last_time
                if interval < 0:
                    interval = 0
            allocated = interval * current_ppt // 1000

            # -- Figure 4: the PID step, anti-windup, filtered derivative --
            value = state.integral + pressure_raw * dt
            if integral_high is not None and value > integral_high:
                value = integral_high
            if integral_low is not None and value < integral_low:
                value = integral_low
            state.integral = value
            last_error = state.last_error
            if last_error is None:
                derivative = 0.0
            else:
                derivative = (pressure_raw - last_error) / dt
            state.last_error = pressure_raw
            if state.derivative_primed:
                filtered = state.derivative
                filtered += filter_gain * (derivative - filtered)
            else:
                filtered = derivative
                state.derivative_primed = True
            state.derivative = filtered
            cumulative = kp * pressure_raw + ki * value + kd * filtered
            if cumulative > output_high:
                cumulative = output_high
            if cumulative < 0.0:
                cumulative = 0.0

            # -- Figure 4: the reclaim rule, its EMAs and the wind-down --
            desired_fraction = k_scale * cumulative
            reclaimed = False
            if allocated > 0:
                ratio = used / allocated
                if ratio > 2.0:
                    ratio = 2.0
                usage_ema = alpha * ratio + beta * state.usage_ratio_ema
                state.usage_ratio_ema = usage_ema
                used_ema = alpha * (used / interval) + beta * state.used_fraction_ema
                state.used_fraction_ema = used_ema
                if (
                    current_ppt > min_ppt
                    and 1.0 - (1.0 if usage_ema > 1.0 else usage_ema) > unused_threshold
                ):
                    reclaim_fraction = (current_ppt - reclaim_decrement) / PROPORTION_SCALE
                    # Never reclaim below what the thread demonstrably uses.
                    if used_ema > reclaim_fraction:
                        reclaim_fraction = used_ema
                    if reclaim_fraction < desired_fraction:
                        desired_fraction = reclaim_fraction
                        reclaimed = True
                        state.reclaim_count += 1
                        if ki > 0:
                            # The wind-down overwrites the clamped integral.
                            target_output = desired_fraction / k_scale
                            if target_output < 0.0:
                                target_output = 0.0
                            state.integral = target_output / ki

            # -- Figure 4: the clamps --
            if desired_fraction < min_fraction:
                desired_fraction = min_fraction
            if desired_fraction > max_fraction:
                desired_fraction = max_fraction
            desired_ppt = round(desired_fraction * PROPORTION_SCALE)
            if desired_ppt < min_ppt:
                desired_ppt = min_ppt
            if desired_ppt > max_ppt:
                desired_ppt = max_ppt
            state.last_desired_ppt = desired_ppt

            if spec.interactive:
                period = interactive_period
                # Interactive jobs: "assigning them a small period and
                # estimating their proportion by measuring the amount of
                # time they typically run before blocking".  Their input
                # queues are empty almost all the time, so the fill-level
                # feedback alone would park them at the floor; the
                # run-before-block heuristic reserves enough to serve one
                # typical burst within each (small) period.
                burst_us = thread.accounting.run_before_block_ema_us
                if burst_us > 0:
                    heuristic_ppt = round(1.5 * burst_us * PROPORTION_SCALE / period)
                    heuristic_ppt = min(max_ppt, heuristic_ppt)
                    desired_ppt = max(desired_ppt, heuristic_ppt)
            elif spec.period_us is not None:
                period = spec.period_us
            elif state.period_estimator is not None and thread_class is real_rate:
                period = state.period_estimator.update(
                    current_ppt or min_ppt, fill_level
                ).period_us
            else:
                period = default_period

            decision.pressure_raw = pressure_raw
            decision.cumulative_pressure = cumulative
            decision.desired_ppt = desired_ppt
            decision.granted_ppt = desired_ppt
            decision.period_us = period
            decision.reclaimed = reclaimed
            decision.squished = False
            if thread_class is real_rate:
                # A quality exception is only warranted when a queue
                # saturated in the direction that means this thread is
                # falling behind (signed pressure at its maximum): a
                # consumer's queue completely full, or a producer's queue
                # completely empty.
                if (
                    sample is not None
                    and sample.per_channel
                    and (sample.saturated_full or sample.saturated_empty)
                    and max(sample.per_channel.values()) >= 0.45
                ):
                    decision._saturation = "full" if sample.saturated_full else "empty"
                else:
                    decision._saturation = None
                real_rate_total += desired_ppt
                rr_desired.append(desired_ppt)
            else:
                misc_total += desired_ppt
                misc_desired.append(desired_ppt)

        # Overload resolution: fit the proposals under the threshold.
        # Real-time (and aperiodic real-time) reservations are
        # protected; the rest of the capacity is handed out in two
        # tiers, which is what produces the Figure 7 behaviour where the
        # CPU hog "effectively loses allocation to the consumer":
        #
        # 1. real-rate threads — whose desired allocation reflects a
        #    *measured* need — are satisfied first, squished among
        #    themselves only if they alone exceed the available capacity;
        # 2. miscellaneous threads — whose constant pseudo-pressure just
        #    says "give me whatever is spare" — share the residual via
        #    the (weighted) fair-share squish policy, never dropping
        #    below the minimum proportion (starvation freedom).
        threshold = config.overload_threshold_total_ppt(self.capacity_cpus)
        if protected + real_rate_total + misc_total > threshold:
            available = max(0, threshold - protected)
            if real_rate_total > available:
                self._squish(layout.rr_decisions, rr_desired, layout.rr_importance, available, now)
                misc_available = 0
            else:
                misc_available = available - real_rate_total
            self._squish(
                layout.misc_decisions, misc_desired, layout.misc_importance, misc_available, now
            )

        # One scheduler call actuates the whole tick; its lists are
        # index-aligned with the layout's threads.
        decisions = layout.decisions
        self.scheduler.actuate(
            layout.threads,
            [decision.granted_ppt for decision in decisions],
            [decision.period_us for decision in decisions],
            now,
        )
        return decisions

    def _lay_out(self) -> _TickLayout:
        """The tick layout of the controlled threads as they are now.

        Each thread's class is a pure function of its (immutable) spec
        and the registry's linkage knowledge, so it is derived here and
        holds until a linkage is added or removed.  A thread that moved
        tiers starts without a saturation mark.
        """
        layout = _TickLayout(
            (self.membership_version, self.registry.version),
            list(self._controlled.values()),
        )
        has_progress_metric = self.registry.has_progress_metric
        for state in layout.records:
            decision = state.decision
            decision.thread_class = thread_class = classify(
                state.spec, has_progress_metric(state.thread)
            )
            decision._saturation = None
            layout.decisions.append(decision)
            layout.threads.append(state.thread)
            if thread_class is ThreadClass.REAL_RATE:
                layout.rr_decisions.append(decision)
                layout.rr_importance.append(state.spec.importance)
            elif thread_class is ThreadClass.MISCELLANEOUS:
                layout.misc_decisions.append(decision)
                layout.misc_importance.append(state.spec.importance)
        return layout

    def _squish(
        self,
        decisions: list[AllocationDecision],
        desired: list[int],
        importance: list[float],
        available_ppt: int,
        now: int,
    ) -> None:
        """Apply the squish policy's grants to one overload tier."""
        if not decisions:
            return
        grants = self.squish_policy.squish(desired, importance, available_ppt)
        min_ppt = self.config.min_proportion_ppt
        for decision, want, granted in zip(decisions, desired, grants):
            if granted < want:
                # max(min_ppt, granted), inlined.
                decision.granted_ppt = granted if granted > min_ppt else min_ppt
                decision.squished = True
                if decision._saturation is not None:
                    self._quality_exception(decision, now)

    def _quality_exception(self, decision: AllocationDecision, now: int) -> None:
        """Raise a quality exception for a squished, saturated thread."""
        exception = QualityException(
            time_us=now,
            thread=decision.thread,
            reason=f"queue {decision._saturation} while overloaded",
            desired_ppt=decision.desired_ppt,
            granted_ppt=decision.granted_ppt,
        )
        self.quality_exceptions.append(exception)
        callback = self._controlled[decision.thread.tid].spec.quality_callback
        if callback is not None:
            callback(exception)

    def _drop_exited(self) -> None:
        # Inline the is_live property: this runs over every controlled
        # thread once per controller tick.
        exited = ThreadState.EXITED
        gone = [
            tid for tid, s in self._controlled.items()
            if s.thread.state is exited
        ]
        for tid in gone:
            del self._controlled[tid]
            self.membership_version += 1

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def current_allocation_ppt(self, thread: SimThread) -> int:
        """The proportion currently actuated for ``thread``."""
        state = self._controlled.get(thread.tid)
        if state is None:
            raise ControllerError(f"thread {thread.name!r} is not controlled")
        return state.decision.granted_ppt


__all__ = ["AllocationDecision", "ProportionAllocator"]
