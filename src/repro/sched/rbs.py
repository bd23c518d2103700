"""The reservation-based proportion/period scheduler (RBS).

This is the substrate described in Section 3.1 of the paper: every
thread registered with the policy carries a *proportion* (parts per
thousand of the CPU) and a *period* (microseconds here, milliseconds in
the paper's interface).  Within each period the thread may consume
``proportion/1000 * period`` microseconds of CPU; once it has, it is
throttled until the next period begins.

Dispatch ordering follows the paper's goodness construction:

* reservation threads always beat best-effort threads ("our policy
  calculates goodness to ensure that threads it controls have higher
  goodness than jobs under other policies"), and
* among reservation threads, shorter periods win ("jobs with shorter
  periods have higher goodness values"), which is exactly
  rate-monotonic scheduling.

Enforcement happens only at dispatch time (the paper's prototype cannot
preempt mid-quantum), so a thread may overrun its allocation by up to
one dispatch interval.  That quantisation error is discussed in
Section 4.3; setting ``enforce_within_slice=True`` enables the
microsecond-accurate enforcement the authors propose there, and the
ablation benchmarks compare the two.

Incremental dispatch
--------------------
The dispatcher is incremental: instead of re-scanning and re-sorting
every registered thread per pick (O(n) per simulated millisecond), it
maintains the run-queue structures of :mod:`repro.sched.base` —

* a rate-monotonic ready heap of runnable, unexhausted reservations
  keyed ``(period_us, -proportion_ppt, tid)``, whose minimum is the
  head of the sort it replaces (tids make the order total);
* a replenishment heap ``(period_end, tid)`` of runnable, throttled
  reservations, which answers :meth:`next_wakeup` and replenishes due
  threads without touching the rest;
* a pending deque of threads whose eligibility changed (woke up,
  exhausted their budget, had their reservation re-sized) and that are
  re-examined *at pick time*, so period windows roll forward at the
  exact virtual times the scan-based code rolled them — which keeps
  deadline-miss accounting and pick order bit-identical;
* running aggregates for :meth:`total_reserved_ppt` and
  :meth:`deadline_misses`, maintained at set/clear/charge time.

Period windows of threads the dispatcher has no reason to examine roll
*lazily*: :meth:`Reservation.advance_to` composes, so a later roll
reaches the same state an eager roll would have.  Every reservation
with recorded unmet demand (``wanted_more``) is kept fresh at the same
pick/refresh points the scan used, so deadline misses are realised at
identical times; the one observable difference is the diagnostic
``periods_elapsed``/window-position of *demand-free* reservations
between examinations (``tests/test_sched_rbs_differential.py`` pins
down exactly this contract against the scan implementation).

Best-effort threads keep the historical cursor-based round-robin over
the registration-ordered candidate list (the cursor arithmetic depends
on the candidate count per pick, so any reordering — e.g. a plain FIFO
— would change dispatch traces).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.sched.base import LazyMinHeap, Scheduler
from repro.sim.errors import SchedulerError
from repro.sim.thread import SchedulingPolicy, SimThread, ThreadState

#: Proportions are expressed in parts per thousand, as in the paper.
PROPORTION_SCALE = 1_000

#: Default period assigned by the controller when none is known (30 ms).
DEFAULT_PERIOD_US = 30_000


@dataclass
class Reservation:
    """Per-thread reservation state.

    Attributes
    ----------
    proportion_ppt:
        Parts-per-thousand of the CPU the thread may use each period.
    period_us:
        Length of the repeating allocation period.
    period_start:
        Start of the current period (absolute microseconds).
    used_in_period_us:
        CPU consumed since ``period_start``.
    deadline_misses:
        Number of periods in which the scheduler could not deliver the
        full allocation (the thread was runnable, wanted CPU, and did
        not receive its allocation before the period ended).
    periods_elapsed:
        Total periods that have passed since the reservation was made.
    """

    proportion_ppt: int
    period_us: int
    period_start: int = 0
    used_in_period_us: int = 0
    deadline_misses: int = 0
    periods_elapsed: int = 0
    total_allocated_us: int = 0
    wanted_more: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.proportion_ppt <= PROPORTION_SCALE:
            raise SchedulerError(
                f"proportion must be in [0, {PROPORTION_SCALE}] parts per "
                f"thousand, got {self.proportion_ppt}"
            )
        if self.period_us <= 0:
            raise SchedulerError(
                f"period must be positive, got {self.period_us}us"
            )

    @property
    def allocation_us(self) -> int:
        """CPU budget per period in microseconds."""
        return self.period_us * self.proportion_ppt // PROPORTION_SCALE

    @property
    def remaining_us(self) -> int:
        """CPU budget left in the current period."""
        return max(0, self.allocation_us - self.used_in_period_us)

    @property
    def exhausted(self) -> bool:
        """Whether the current period's budget has been used up."""
        return self.used_in_period_us >= self.allocation_us

    def period_end(self) -> int:
        """Absolute time at which the current period ends."""
        return self.period_start + self.period_us

    def advance_to(self, now: int) -> int:
        """Roll the period window forward so it contains ``now``.

        Returns the number of complete periods that elapsed.  On each
        period boundary the usage counter is reset; if the thread wanted
        more CPU than it received in a period where it was runnable, a
        deadline miss is recorded.
        """
        if now < self.period_start:
            return 0
        elapsed = (now - self.period_start) // self.period_us
        if elapsed <= 0:
            return 0
        if self.wanted_more:
            # The thread hit its budget and still wanted CPU this
            # period: its reservation was too small for its demand.
            self.deadline_misses += 1
        self.period_start += elapsed * self.period_us
        self.periods_elapsed += elapsed
        self.used_in_period_us = 0
        self.wanted_more = False
        return elapsed


class ReservationScheduler(Scheduler):
    """Proportion/period dispatcher with rate-monotonic ordering.

    Parameters
    ----------
    enforce_within_slice:
        When ``True``, a thread's slice is additionally capped by its
        remaining allocation, eliminating the one-dispatch-interval
        overrun of the paper's prototype (Section 4.3 improvement).
    best_effort_slice_us:
        Time slice handed to best-effort threads when no reservation
        thread is eligible.
    """

    SCHED_KEY = "rbs"

    def __init__(
        self,
        *,
        enforce_within_slice: bool = False,
        best_effort_slice_us: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.enforce_within_slice = enforce_within_slice
        self._best_effort_slice_us = best_effort_slice_us
        self._best_effort_cursor = 0
        #: tid -> live reservation (mirror of ``sched_data[SCHED_KEY]``).
        self._reservations: dict[int, Reservation] = {}
        #: Runnable, unexhausted reservations in rate-monotonic order.
        self._rm_heap = LazyMinHeap()
        #: Runnable, throttled reservations keyed by replenishment time.
        self._replenish = LazyMinHeap()
        #: Threads whose eligibility must be re-examined at pick time.
        self._pending: deque[int] = deque()
        self._pending_set: set[int] = set()
        #: Best-effort members (any state), in registration order.
        self._best_effort: dict[int, SimThread] = {}
        #: Reservations with unmet demand recorded (``wanted_more``)
        #: that are *not* covered by the replenishment heap or the
        #: pending queue — a throttled thread that blocked, or one made
        #: eligible again by a proportion raise before its period
        #: rolled.  The scan-based code realised their period rolls (and
        #: thus their deadline misses) at every pick/refresh; this set
        #: is almost always empty, so doing the same stays O(1).
        self._wanted_stray: set[int] = set()
        #: Throttled threads classified by ``refresh`` (which, like the
        #: old full scan's refresh, never records unmet demand); the
        #: next pick marks their ``wanted_more`` exactly as the scan's
        #: per-candidate pass did.
        self._unmarked: set[int] = set()
        #: Running aggregates (see total_reserved_ppt / deadline_misses).
        self._reserved_ppt_total = 0
        self._deadline_miss_total = 0

    # ------------------------------------------------------------------
    # reservation management (the controller's actuation interface)
    # ------------------------------------------------------------------
    def reservation(self, thread: SimThread) -> Optional[Reservation]:
        """The thread's reservation, or ``None`` if it has no reservation."""
        return thread.sched_data.get(self.SCHED_KEY)

    def set_reservation(
        self,
        thread: SimThread,
        proportion_ppt: int,
        period_us: int = DEFAULT_PERIOD_US,
        *,
        now: Optional[int] = None,
    ) -> Reservation:
        """Create or update ``thread``'s proportion/period reservation.

        Updating an existing reservation preserves the current period
        window and usage, matching the paper's "very low overhead to
        change proportion and period": actuation does not reset
        accounting, it simply changes the budget going forward.
        """
        if thread.tid not in self._run_queue:
            raise SchedulerError(
                f"thread {thread.name!r} is not registered with this scheduler"
            )
        proportion_ppt = int(proportion_ppt)
        period_us = int(period_us)
        current = thread.sched_data.get(self.SCHED_KEY)
        if current is None:
            if now is None:
                now = self.kernel.now if self.kernel is not None else 0
            reservation = Reservation(
                proportion_ppt=proportion_ppt,
                period_us=period_us,
                period_start=now,
            )
            thread.sched_data[self.SCHED_KEY] = reservation
            thread.policy = SchedulingPolicy.RESERVATION
            self._best_effort.pop(thread.tid, None)
            self._track_reservation(thread, reservation)
            return reservation
        if (
            proportion_ppt == current.proportion_ppt
            and period_us == current.period_us
        ):
            # The controller re-actuating unchanged values is the common
            # case; nothing about eligibility or ordering moved.
            return current
        # Same bounds (and error messages) as Reservation.__post_init__,
        # without building a throwaway instance on the actuation path.
        if not 0 <= proportion_ppt <= PROPORTION_SCALE:
            raise SchedulerError(
                f"proportion must be in [0, {PROPORTION_SCALE}] parts per "
                f"thousand, got {proportion_ppt}"
            )
        if period_us <= 0:
            raise SchedulerError(
                f"period must be positive, got {period_us}us"
            )
        self._reserved_ppt_total += proportion_ppt - current.proportion_ppt
        current.proportion_ppt = proportion_ppt
        if period_us != current.period_us:
            if now is None:
                now = self.kernel.now if self.kernel is not None else 0
            current.period_us = period_us
            current.period_start = now
            current.used_in_period_us = 0
            # The window was reset: route through a full pick-time
            # reclassification (also refreshes any replenishment entry
            # keyed by the old window's end).
            self._reexamine(thread)
        else:
            self._requeue_resized(thread, current)
        return current

    def clear_reservation(self, thread: SimThread) -> None:
        """Demote ``thread`` to best-effort scheduling."""
        thread.sched_data.pop(self.SCHED_KEY, None)
        thread.policy = SchedulingPolicy.BEST_EFFORT
        tid = thread.tid
        reservation = self._reservations.pop(tid, None)
        if reservation is not None:
            self._reserved_ppt_total -= reservation.proportion_ppt
            self._deadline_miss_total -= reservation.deadline_misses
            self._rm_heap.discard(tid)
            self._replenish.discard(tid)
            self._pending_set.discard(tid)
            self._wanted_stray.discard(tid)
            self._unmarked.discard(tid)
        if self.has_thread(thread):
            # Rebuild so best-effort candidates keep registration order
            # (a demoted thread must not move to the back of the line).
            self._rebuild_best_effort()

    def total_reserved_ppt(self) -> int:
        """Sum of all live reservations' proportions (overload detector).

        Maintained incrementally at set/clear/add/remove time — O(1).
        """
        return self._reserved_ppt_total

    def capacity_ppt(self) -> int:
        """Total schedulable capacity: one ``PROPORTION_SCALE`` per CPU.

        Scales with the number of *online* CPUs, so a simulated CPU
        failure immediately shrinks what admission control and the
        degradation machinery may hand out.  With every CPU online
        (the common case) this equals ``n_cpus * PROPORTION_SCALE``.
        """
        return self.online_cpu_count * PROPORTION_SCALE

    def deadline_misses(self) -> int:
        """Total deadline misses across all reservation threads.

        Maintained incrementally: every period-window roll performed by
        the scheduler folds new misses into the running total — O(1).
        """
        return self._deadline_miss_total

    # ------------------------------------------------------------------
    # internal bookkeeping
    # ------------------------------------------------------------------
    def _track_reservation(self, thread: SimThread, reservation: Reservation) -> None:
        """Start tracking ``reservation`` in the aggregate counters and
        queue the thread for pick-time classification."""
        self._reservations[thread.tid] = reservation
        self._reserved_ppt_total += reservation.proportion_ppt
        self._deadline_miss_total += reservation.deadline_misses
        self._reexamine(thread)

    def _reexamine(self, thread: SimThread) -> None:
        """Invalidate ``thread``'s queue entries and defer its
        reclassification to the next pick (where ``now`` is known)."""
        tid = thread.tid
        self._rm_heap.discard(tid)
        self._replenish.discard(tid)
        if tid not in self._pending_set:
            self._pending_set.add(tid)
            self._pending.append(tid)

    def _requeue_resized(self, thread: SimThread, reservation: Reservation) -> None:
        """Re-queue after a proportion-only change (period untouched).

        The common controller actuation.  Where the routing outcome is
        already determined it is applied in place, skipping the deferred
        classification:

        * already queued for examination — nothing to do, the pending
          pass reads the fresh values;
        * on the ready heap and still unexhausted — only the heap key
          changed (``exhausted`` can only flip towards eligible when the
          window rolls, so an unexhausted stale window stays
          unexhausted);
        * throttled and still exhausted — the replenishment key
          (``period_end``) did not move, so the entry stands.

        Every other combination (flipped exhaustion, blocked threads)
        defers to pick time exactly like the scan-based code did.
        """
        tid = thread.tid
        if tid in self._pending_set:
            return
        exhausted = reservation.used_in_period_us >= (
            reservation.period_us * reservation.proportion_ppt // PROPORTION_SCALE
        )
        if tid in self._rm_heap:
            if not exhausted:
                self._rm_heap.push(
                    tid,
                    (reservation.period_us, -reservation.proportion_ppt, tid),
                )
            else:
                self._reexamine(thread)
            return
        if tid in self._replenish:
            if not exhausted:
                self._reexamine(thread)
            return
        state = thread.state
        if state is ThreadState.READY or state is ThreadState.RUNNING:
            self._reexamine(thread)

    def _rebuild_best_effort(self) -> None:
        reservations = self._reservations
        self._best_effort = {
            t.tid: t for t in self.threads() if t.tid not in reservations
        }

    def _advance(self, tid: int, reservation: Reservation, now: int) -> None:
        """Roll ``reservation`` forward, folding deadline misses into
        the running aggregate."""
        before = reservation.deadline_misses
        if reservation.advance_to(now):
            # A roll consumes wanted_more, so the thread (if tracked as
            # a stray) no longer needs pick-time realisation.
            self._wanted_stray.discard(tid)
        after = reservation.deadline_misses
        if after != before:
            self._deadline_miss_total += after - before

    def _classify(self, tid: int, now: int, mark_wanted: bool) -> None:
        """(Re)classify one reservation thread at a service point.

        Rolls the period window to ``now`` exactly as the historical
        scan did, then routes the thread to the rate-monotonic heap
        (eligible) or the replenishment heap (throttled).

        ``mark_wanted`` distinguishes the two historical service
        points: the *pick* scan recorded unmet demand
        (``wanted_more = True``, the flag that turns into a deadline
        miss at the next period boundary) for every runnable exhausted
        candidate, while ``refresh`` only advanced windows.  A thread
        classified as throttled from refresh therefore stays unmarked
        and is recorded for marking at the next pick.
        """
        thread = self._run_queue.get(tid)
        if thread is None:
            return
        reservation = self._reservations.get(tid)
        if reservation is None:
            return
        if not thread.state.is_runnable:
            # Blocked/sleeping: stays off both queues; on_ready will
            # queue a fresh examination when it wakes.  Pending unmet
            # demand keeps being realised through the stray set.
            if reservation.wanted_more:
                self._wanted_stray.add(tid)
            return
        self._advance(tid, reservation, now)
        if reservation.exhausted:
            if mark_wanted:
                reservation.wanted_more = True
                self._unmarked.discard(tid)
            elif not reservation.wanted_more:
                self._unmarked.add(tid)
            self._wanted_stray.discard(tid)
            self._replenish.push(tid, (reservation.period_end(), tid))
        else:
            if reservation.wanted_more:
                # Eligible again before the window rolled (proportion
                # raised mid-period): the recorded demand still turns
                # into a miss at the next roll, which the scan realised
                # at every pick — track it so we do too.
                self._wanted_stray.add(tid)
            self._rm_heap.push(
                tid,
                (reservation.period_us, -reservation.proportion_ppt, tid),
            )

    def _service_queues(
        self, now: int, *, mark_wanted: bool, include_blocked: bool = False
    ) -> None:
        """Process deferred examinations and due replenishments.

        The flags mirror the scan-based realisation points: picks
        advanced only runnable threads and recorded their unmet demand
        (``mark_wanted``); ``refresh`` (the kernel's idle path)
        advanced every reservation — including blocked ones — but
        never marked demand.
        """
        if not self._unmarked and not self._pending and not self._wanted_stray:
            # Fast path for the common steady state: nothing deferred,
            # so only a due replenishment can require service.
            entry = self._replenish.peek()
            if entry is None or entry[0] > now:
                return
        if mark_wanted and self._unmarked:
            # Throttled threads that were last examined by refresh: the
            # scan would record their unmet demand at this pick.
            # repro-lint: disable=determinism -- per-tid flag updates on each thread's own reservation; no cross-thread ordering effect
            for tid in list(self._unmarked):
                self._unmarked.discard(tid)
                reservation = self._reservations.get(tid)
                thread = self._run_queue.get(tid)
                if reservation is None or thread is None:
                    continue
                if not thread.state.is_runnable:
                    continue
                self._advance(tid, reservation, now)
                if reservation.exhausted:
                    reservation.wanted_more = True
                # A rolled, no-longer-exhausted thread keeps its (now
                # stale, already due) replenishment entry; it is popped
                # and re-routed to the ready heap just below.
        pending = self._pending
        if pending:
            pending_set = self._pending_set
            while pending:
                tid = pending.popleft()
                if tid in pending_set:
                    pending_set.discard(tid)
                    self._classify(tid, now, mark_wanted)
        replenish = self._replenish
        while True:
            entry = replenish.peek()
            if entry is None or entry[0] > now:
                break
            replenish.pop()
            self._classify(entry[1], now, mark_wanted)
        if self._wanted_stray:
            # repro-lint: disable=determinism -- independent per-tid period rolls; each touches only its own reservation
            for tid in list(self._wanted_stray):
                reservation = self._reservations.get(tid)
                thread = self._run_queue.get(tid)
                if reservation is None or thread is None:
                    self._wanted_stray.discard(tid)
                    continue
                if include_blocked or thread.state.is_runnable:
                    self._advance(tid, reservation, now)

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------
    def on_add(self, thread: SimThread) -> None:
        reservation = self.reservation(thread)
        if reservation is None and thread.policy is SchedulingPolicy.RESERVATION:
            # A thread that registers with the RBS but has not yet been
            # assigned a proportion starts with a zero reservation at the
            # default period; the controller raises it on its next pass.
            now = self.kernel.now if self.kernel is not None else 0
            reservation = Reservation(
                proportion_ppt=0,
                period_us=DEFAULT_PERIOD_US,
                period_start=now,
            )
            thread.sched_data[self.SCHED_KEY] = reservation
        if reservation is not None:
            self._track_reservation(thread, reservation)
        else:
            # Registration appends, so insertion order stays exact.
            self._best_effort[thread.tid] = thread

    def on_remove(self, thread: SimThread) -> None:
        tid = thread.tid
        reservation = self._reservations.pop(tid, None)
        if reservation is not None:
            self._reserved_ppt_total -= reservation.proportion_ppt
            self._deadline_miss_total -= reservation.deadline_misses
        self._rm_heap.discard(tid)
        self._replenish.discard(tid)
        self._pending_set.discard(tid)
        self._wanted_stray.discard(tid)
        self._unmarked.discard(tid)
        self._best_effort.pop(tid, None)

    def on_ready(self, thread: SimThread, now: int) -> None:
        super().on_ready(thread, now)
        tid = thread.tid
        if (
            tid in self._reservations
            and tid not in self._rm_heap
            and tid not in self._replenish
        ):
            self._reexamine(thread)

    def on_block(self, thread: SimThread, now: int) -> None:
        super().on_block(thread, now)
        tid = thread.tid
        reservation = self._reservations.get(tid)
        if reservation is not None:
            self._rm_heap.discard(tid)
            self._replenish.discard(tid)
            self._pending_set.discard(tid)
            self._unmarked.discard(tid)
            if reservation.wanted_more:
                # Recorded unmet demand still owes a deadline miss at
                # the next period roll; refresh realises it even while
                # the thread stays blocked (as the full scan did).
                self._wanted_stray.add(tid)

    def refresh(self, now: int) -> None:
        self._service_queues(now, mark_wanted=False, include_blocked=True)

    def charge(self, thread: SimThread, consumed_us: int, now: int) -> None:
        reservation = self._reservations.get(thread.tid)
        if reservation is None:
            return
        reservation.used_in_period_us += consumed_us
        reservation.total_allocated_us += consumed_us
        # _advance is a no-op until the window must roll (its guard,
        # inlined: elapsed periods > 0 iff now - start >= period).
        if now - reservation.period_start >= reservation.period_us:
            self._advance(thread.tid, reservation, now)
        if reservation.used_in_period_us >= (
            reservation.period_us
            * reservation.proportion_ppt
            // PROPORTION_SCALE
        ):
            # The budget ran out: leave the ready order and wait for a
            # pick to mark unmet demand / schedule the replenishment
            # (pick time is when the scan-based code did both).
            self._rm_heap.discard(thread.tid)
            if thread.state.is_runnable:
                self._reexamine(thread)

    # ------------------------------------------------------------------
    # placement (multiprocessor)
    # ------------------------------------------------------------------
    def placement_weight(self, thread: SimThread) -> float:
        """Balance CPUs by reserved proportion, not by thread count."""
        reservation = self._reservations.get(thread.tid)
        if reservation is None or reservation.proportion_ppt <= 0:
            # Best-effort and zero-proportion threads weigh a token
            # amount so they still spread over otherwise equal CPUs.
            return 1.0
        return float(reservation.proportion_ppt)

    def placement_weights(self, threads: list[SimThread]) -> list[float]:
        """Bulk weights: one tight loop instead of a call per thread."""
        reservations = self._reservations
        weights = []
        append = weights.append
        for thread in threads:
            reservation = reservations.get(thread.tid)
            if reservation is None:
                append(1.0)
            else:
                ppt = reservation.proportion_ppt
                append(float(ppt) if ppt > 0 else 1.0)
        return weights

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def pick_next(self, now: int, cpu: Optional[int] = None) -> Optional[SimThread]:
        # The _service_queues fast-path test, inlined (per-CPU picks
        # call this up to n_cpus times per round at the same instant).
        if self._unmarked or self._pending or self._wanted_stray:
            self._service_queues(now, mark_wanted=True)
        else:
            due = self._replenish.peek()
            if due is not None and due[0] <= now:
                self._service_queues(now, mark_wanted=True)
        rm_heap = self._rm_heap
        run_queue = self._run_queue
        ready = ThreadState.READY
        running = ThreadState.RUNNING
        # Fast path: the heap minimum is usually dispatchable as-is —
        # peek avoids walking the live set (the dispatchability test is
        # _dispatchable, inlined).
        entry = rm_heap.peek()
        if entry is not None:
            tid = entry[-1]
            thread = run_queue.get(tid)
            if thread is not None:
                state = thread.state
                if cpu is None:
                    dispatchable = state is ready or state is running
                elif state is ready:
                    # eligible_on, inlined for the per-round hot path.
                    affinity = thread.affinity
                    if affinity is not None:
                        dispatchable = affinity == cpu
                    else:
                        assigned = self._placement_map.get(tid)
                        dispatchable = assigned is None or assigned == cpu
                else:
                    dispatchable = False
                if dispatchable:
                    # Fresh window for time_slice / remaining_us, exactly
                    # as the per-pick scan advanced every candidate
                    # (_advance guard inlined: no-op before a roll is due).
                    reservation = self._reservations[tid]
                    if now - reservation.period_start >= reservation.period_us:
                        self._advance(tid, reservation, now)
                    return thread
        # Walk past ineligible entries (typically threads claimed by
        # lower-numbered CPUs this round) without mutating the heap:
        # the sorted live snapshot is exactly the pop order, and every
        # entry stays live either way — an ineligible thread may be
        # eligible for the next CPU's pick, and the chosen one keeps
        # its rate-monotonic position for future picks.
        for entry in rm_heap.live_sorted():
            tid = entry[-1]
            thread = run_queue.get(tid)
            if thread is None:
                continue
            if self._dispatchable(thread, cpu):
                reservation = self._reservations[tid]
                if now - reservation.period_start >= reservation.period_us:
                    self._advance(tid, reservation, now)
                return thread
        best_effort = self._best_effort
        if best_effort:
            candidates = [
                t for t in best_effort.values() if self._dispatchable(t, cpu)
            ]
            if candidates:
                # Round-robin over best-effort threads for basic fairness.
                self._best_effort_cursor += 1
                return candidates[self._best_effort_cursor % len(candidates)]
        return None

    def _dispatchable(self, thread: SimThread, cpu: Optional[int]) -> bool:
        """One predicate for every pick path: may ``thread`` be
        dispatched by this pick?  Mirrors ``dispatch_candidates``:
        uniprocessor picks take any runnable thread; per-CPU picks take
        READY threads placed on (or free to run on) that CPU."""
        state = thread.state
        if cpu is None:
            return state is ThreadState.READY or state is ThreadState.RUNNING
        return state is ThreadState.READY and self.eligible_on(thread, cpu)

    def time_slice(self, thread: SimThread, now: int) -> int:
        reservation = self._reservations.get(thread.tid)
        if reservation is None:
            if self._best_effort_slice_us is not None:
                return self._best_effort_slice_us
            return self.dispatch_interval_us
        slice_us = self.dispatch_interval_us
        if self.enforce_within_slice:
            slice_us = min(slice_us, max(1, reservation.remaining_us))
        return slice_us

    def next_wakeup(self, now: int) -> Optional[int]:
        earliest: Optional[int] = None
        entry = self._replenish.peek()
        if entry is not None:
            earliest = entry[0]
        # Pending examinations are normally drained by the pick that
        # precedes any idle advance; cover them anyway so a direct call
        # never misses a throttled thread.
        # repro-lint: disable=determinism -- min-fold over period ends; the minimum is independent of visitation order
        for tid in self._pending_set:
            reservation = self._reservations.get(tid)
            thread = self._run_queue.get(tid)
            if (
                reservation is None
                or thread is None
                or not thread.state.is_runnable
                or not reservation.exhausted
            ):
                continue
            end = reservation.period_end()
            if earliest is None or end < earliest:
                earliest = end
        return earliest


__all__ = [
    "DEFAULT_PERIOD_US",
    "PROPORTION_SCALE",
    "Reservation",
    "ReservationScheduler",
]
