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
* running aggregates for :meth:`total_reserved_ppt` and
  :meth:`deadline_misses`, maintained at set/clear/charge time.

A thread is routed to one heap as soon as its eligibility changes (a
charge spends its budget, it wakes, its reservation is made or
re-sized), by its current window and without rolling it.  A stale
exhausted window is already due on the replenishment heap, so the next
pick or refresh rolls it at the virtual time the scan-based code did.

On an over-committed CPU every dispatch throttles one thread and
replenishes another, so that cycle is written inline, reading the
heaps through :class:`~repro.sched.base.LazyMinHeap`'s ``heap`` and
``live`` attributes.  One service pass (a pick that finds work due, or
``refresh``) first realises owed marks, then walks the replenishment
heap's backing list in one loop that calls no method per entry: it
drops a dead entry (``live.get(tid) is not entry``), stops at the
first live entry that is not yet due, rolls the due thread's window
(:meth:`Reservation.advance_to`, inlined, with a recorded demand added
to the miss total) and pushes the thread onto the ready heap.  A zero
budget is still exhausted in the new window; that rare thread is
re-throttled through ``_throttle`` instead, marked if the pass is a
pick's.  The ready heap gets one compaction check after the loop, and
the pass ends by rolling strays.  ``pick_next`` then reads the ready
heap's head and its run-queue member in place, and a ``charge`` that
spends the budget throttles inline.

Recording unmet demand (``wanted_more``, which turns into a deadline
miss when the window rolls) is the one step that stays deferred.  The
scan recorded it at a pick, for a thread it found runnable and still
exhausted there.  Between a charge and the next pick the kernel fires
due events, and a controller tick steals CPU, so in that gap the window
can roll, the thread can block, or a proportion raise can make it
eligible again; a mark set at charge time would become a miss the scan
never counted.  A charge therefore leaves an *owed* mark, and the next
pick realises it: roll the window to the pick time, then mark the
thread if it is still runnable and still exhausted.

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
the registration-ordered candidate list, one cursor per CPU
(:meth:`Scheduler.rotate`; the cursor arithmetic depends on the
candidate count per pick, so any reordering — e.g. a plain FIFO —
would change dispatch traces).

SMP rounds
~~~~~~~~~~
A multiprocessor round starts with placement.  Its input, the runnable
threads heaviest first, changes much more slowly than rounds come: a
weight is a reserved proportion, which changes only when the controller
actuates (about once per 10 ms tick), and the membership changes only
at add, remove, reserve and clear.  The scheduler therefore keeps a
standing *roster*, every member as ``(-placement_weight(t), tid, t)``,
sorted.  The one proportion write (in :meth:`~ReservationScheduler.actuate`,
once per batch that changed a proportion), ``_track_reservation``,
:meth:`~ReservationScheduler.clear_reservation`, ``on_add`` and
``on_remove`` drop it; the next
:meth:`~ReservationScheduler.placement_order` sorts it again.  Every
other round's order is the roster filtered to READY and RUNNING
threads, which is exactly the list the base contract builds by weighing
and sorting: filtering a sorted list keeps it sorted.

The round then asks for one pick per online CPU, in CPU order, at one
instant, and the kernel claims each pick before the next CPU asks.  The
scan answered each CPU separately: the first READY reservation in
rate-monotonic order that is pinned to that CPU, or placed on it, or
placed nowhere.  Re-walking the order per CPU repeats the same work, so
:meth:`ReservationScheduler.place_threads` drops the previous round's
plan and the round's first :meth:`~ReservationScheduler.pick_next_cpu`
builds a new one:

* it realises owed marks, due replenishments and stray rolls once, and
  only when one is owed, a stray may roll or the replenishment top is
  due (the guard ``pick_next`` uses); a second service at the same
  instant would find nothing left to do;
* it walks the rate-monotonic order once and gives each READY thread
  to the CPU the scan would have: its pin, else its placement, else (an
  unplaced thread) the lowest online CPU still without a pick.  A CPU
  that already has a pick keeps it.  The scan gives the same answer:
  when it let CPU k pass a thread, the thread was either not eligible
  on k or already claimed by a lower CPU.

Later calls in the round read the plan.  A CPU the plan leaves empty
falls back to that CPU's best-effort round-robin, exactly as the scan
did.  Best-effort threads never hold a reservation, so these picks
cannot change the plan.

Batched actuation
~~~~~~~~~~~~~~~~~
The controller re-sizes every reservation it manages once per tick,
through :meth:`ReservationScheduler.actuate`, which holds the one copy
of the re-size rules inline; ``set_reservation`` re-sizes through a
one-element batch.  Most re-sizes change only the proportion of a
thread that sits on the ready heap and stays eligible, which changes
only its heap key.  A batch *stages* each new key (it replaces the
thread's live entry without touching the backing heap) and rebuilds the
heap from the live entries once at the end, in a ``finally`` so that an
error partway through the batch cannot leave a live key the heap lacks.
Nothing reads the ready heap during a batch, and drain order is a total
order, so the heap's arrangement cannot change a pick.  Every other
effect of a re-size (throttling, a return to the ready heap, a period
change's re-route, owed marks and strays, the reserved total) happens
in batch order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

from repro.sched.base import LazyMinHeap, Scheduler
from repro.sched.placement import PlacementOrder
from repro.sim.errors import SchedulerError
from repro.sim.thread import SchedulingPolicy, SimThread, ThreadState

#: Proportions are expressed in parts per thousand, as in the paper.
PROPORTION_SCALE = 1_000

#: Default period assigned by the controller when none is known (30 ms).
DEFAULT_PERIOD_US = 30_000

# Runnable states, bound once: the hot paths below test ``state is
# _READY or state is _RUNNING`` (ThreadState.is_runnable, inlined).
_READY = ThreadState.READY
_RUNNING = ThreadState.RUNNING


@dataclass(slots=True)
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
        #: tid -> live reservation (mirror of ``sched_data[SCHED_KEY]``).
        self._reservations: dict[int, Reservation] = {}
        #: Runnable, unexhausted reservations in rate-monotonic order.
        self._rm_heap = LazyMinHeap()
        #: Runnable, throttled reservations keyed by replenishment time.
        self._replenish = LazyMinHeap()
        #: Throttled threads owed a ``wanted_more`` mark by the next
        #: pick: put on the replenishment heap unmarked since the last
        #: pick (by a charge, a wake-up, a re-size, or by ``refresh``,
        #: which never marks).  Always a subset of the replenishment
        #: heap.  Dicts here are insertion-ordered sets.
        self._owed: dict[int, None] = {}
        #: Best-effort members (any state), in registration order.
        self._best_effort: dict[int, SimThread] = {}
        #: Reservations with unmet demand recorded (``wanted_more``)
        #: that the replenishment heap does not cover: a throttled
        #: thread that blocked, or one made eligible again by a
        #: proportion raise before its period rolled.  The scan rolled
        #: their windows (realising the miss) at every pick/refresh;
        #: this is almost always empty, so doing the same stays O(1).
        self._wanted_stray: dict[int, None] = {}
        #: Running aggregates (see total_reserved_ppt / deadline_misses).
        self._reserved_ppt_total = 0
        self._deadline_miss_total = 0
        #: This SMP round's reservation pick per CPU; ``None`` until the
        #: round's first ``pick_next_cpu`` (see "SMP rounds").
        self._plan: Optional[list[Optional[SimThread]]] = None
        #: Every member heaviest first, ``(-placement_weight(t), tid, t)``
        #: ascending; ``None`` once a weight or the membership changed,
        #: until the next ``placement_order`` sorts it again.
        self._roster: Optional[PlacementOrder] = None

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
        tid = thread.tid
        current = thread.sched_data.get(self.SCHED_KEY)
        # A tracked reservation proves registration (``on_remove`` drops
        # it), so only an untracked one needs the run-queue probe.
        if current is None or self._reservations.get(tid) is not current:
            if tid not in self._run_queue:
                raise SchedulerError(
                    f"thread {thread.name!r} is not registered with this scheduler"
                )
        proportion_ppt = int(proportion_ppt)
        period_us = int(period_us)
        if now is None:
            now = self.kernel.now if self.kernel is not None else 0
        if current is None:
            reservation = Reservation(
                proportion_ppt=proportion_ppt,
                period_us=period_us,
                period_start=now,
            )
            thread.sched_data[self.SCHED_KEY] = reservation
            thread.policy = SchedulingPolicy.RESERVATION
            self._best_effort.pop(tid, None)
            self._track_reservation(thread, reservation)
            return reservation
        self.actuate((thread,), (proportion_ppt,), (period_us,), now)
        return current

    def actuate(
        self,
        threads: Sequence[SimThread],
        proportions_ppt: Sequence[int],
        periods_us: Sequence[int],
        now: int,
    ) -> None:
        """Apply one controller tick's grants, index-aligned per thread.

        The effect is that of one ``set_reservation(threads[i],
        proportions_ppt[i], periods_us[i], now=now)`` call per thread,
        in order, and an error stops the batch where that call would
        have raised.  The grants and periods must be ints, as the
        controller's are: unlike ``set_reservation``, a re-size does not
        coerce them.  A ready thread that stays eligible is only
        re-keyed, so the ready heap is rebuilt once at the end instead
        of taking one push per thread (see "Batched actuation").  These
        are the only re-size rules: ``set_reservation`` re-sizes a
        reservation through a one-element batch.
        """
        reservations = self._reservations
        rm_heap = self._rm_heap
        ready = rm_heap.live
        waiting = self._replenish.live
        resized = False
        try:
            for thread, proportion_ppt, period_us in zip(
                threads, proportions_ppt, periods_us
            ):
                tid = thread.tid
                # A tracked reservation is the thread's ``sched_data``
                # one (``_reservations`` mirrors it), the one that
                # set_reservation would re-size.
                current = reservations.get(tid)
                if current is None:
                    # Untracked: the registration probe and the creation
                    # path are set_reservation's.
                    self.set_reservation(thread, proportion_ppt, period_us, now=now)
                    continue
                if (
                    proportion_ppt == current.proportion_ppt
                    and period_us == current.period_us
                ):
                    # The controller re-actuating unchanged values is the
                    # common case; nothing about eligibility or ordering
                    # moved.
                    continue
                # Same bounds (and error messages) as
                # Reservation.__post_init__, without building a
                # throwaway instance on the actuation path.
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
                resized = True
                if period_us != current.period_us:
                    current.period_us = period_us
                    current.period_start = now
                    current.used_in_period_us = 0
                    # The window was reset: re-route by the new one (this
                    # also re-keys a replenishment entry from the old
                    # window's end).
                    if thread.state.is_runnable:
                        self._route(tid, current)
                    continue
                # Proportion only, the common controller actuation.  A
                # ready thread that stays eligible only changes its heap
                # key, so its new key is staged (see LazyMinHeap), and a
                # throttled one that stays exhausted keeps its entry
                # (``period_end`` did not move).  A flipped exhaustion is
                # re-routed.  A blocked thread is on neither heap;
                # ``on_ready`` routes it when it wakes.
                exhausted = current.used_in_period_us >= (
                    period_us * proportion_ppt // PROPORTION_SCALE
                )
                if tid in ready:
                    if not exhausted:
                        ready[tid] = (period_us, -proportion_ppt, tid)
                    else:
                        self._throttle(tid, current)
                elif not exhausted and tid in waiting:
                    self._make_ready(tid, current)
        finally:
            # Also after an error: every staged key must reach the heap,
            # and the placement roster must re-sort the new weights.
            rm_heap.rebuild()
            if resized:
                self._roster = None

    def clear_reservation(self, thread: SimThread) -> None:
        """Demote ``thread`` to best-effort scheduling."""
        thread.sched_data.pop(self.SCHED_KEY, None)
        thread.policy = SchedulingPolicy.BEST_EFFORT
        tid = thread.tid
        reservation = self._reservations.pop(tid, None)
        if reservation is not None:
            self._roster = None
            self._reserved_ppt_total -= reservation.proportion_ppt
            self._deadline_miss_total -= reservation.deadline_misses
            self._rm_heap.discard(tid)
            self._replenish.discard(tid)
            self._owed.pop(tid, None)
            self._wanted_stray.pop(tid, None)
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
        route the thread if it is runnable (``on_ready`` routes it on
        wake-up otherwise)."""
        self._reservations[thread.tid] = reservation
        self._roster = None
        self._reserved_ppt_total += reservation.proportion_ppt
        self._deadline_miss_total += reservation.deadline_misses
        if thread.state.is_runnable:
            self._route(thread.tid, reservation)

    def _route(self, tid: int, reservation: Reservation) -> None:
        """Queue a runnable reservation thread by its current window.

        The window is not rolled: if it is stale, an exhausted thread's
        replenishment entry is already due and the next pick or refresh
        rolls it, and an unexhausted one stays unexhausted when it rolls.
        """
        if reservation.used_in_period_us >= (
            reservation.period_us * reservation.proportion_ppt // PROPORTION_SCALE
        ):
            self._throttle(tid, reservation)
        else:
            self._make_ready(tid, reservation)

    def _throttle(self, tid: int, reservation: Reservation) -> None:
        """Park an exhausted thread on the replenishment heap until its
        window ends, owing the next pick a ``wanted_more`` mark unless
        it already carries one."""
        self._rm_heap.discard(tid)
        self._replenish.push(
            tid, (reservation.period_start + reservation.period_us, tid)
        )
        if reservation.wanted_more:
            # The heap rolls the window (realising the miss) when due.
            self._wanted_stray.pop(tid, None)
        else:
            self._owed[tid] = None

    def _make_ready(self, tid: int, reservation: Reservation) -> None:
        """Put an unexhausted thread on the rate-monotonic heap."""
        self._replenish.discard(tid)
        self._owed.pop(tid, None)
        if reservation.wanted_more:
            # Eligible again before the window rolled (proportion
            # raised mid-period): the recorded demand still turns into
            # a miss at the next roll, which the scan realised at every
            # pick — track it so we do too.
            self._wanted_stray[tid] = None
        self._rm_heap.push(
            tid, (reservation.period_us, -reservation.proportion_ppt, tid)
        )

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
            self._wanted_stray.pop(tid, None)
        after = reservation.deadline_misses
        if after != before:
            self._deadline_miss_total += after - before

    def _service_queues(self, now: int, *, pick: bool) -> None:
        """Realise owed marks, due replenishments and stray rolls.

        ``pick`` selects between the scan's two realisation points.  A
        pick rolled only runnable threads and recorded their unmet
        demand; ``refresh`` (the kernel's idle path) rolled every
        reservation, blocked ones included, but never recorded demand.
        Both heaps hold only runnable threads (``on_block`` and
        ``on_remove`` take a thread off them), and so does ``_owed``.
        The replenishment pass is one loop over the heap's backing list
        (see "Incremental dispatch").
        """
        reservations = self._reservations
        if pick and self._owed:
            owed = self._owed
            self._owed = {}
            for tid in owed:
                reservation = reservations[tid]
                if now - reservation.period_start >= reservation.period_us:
                    # A rolled, no-longer-exhausted thread keeps its (now
                    # stale, already due) replenishment entry; it is
                    # popped and re-routed just below.
                    self._advance(tid, reservation, now)
                if reservation.used_in_period_us >= (
                    reservation.period_us
                    * reservation.proportion_ppt
                    // PROPORTION_SCALE
                ):
                    reservation.wanted_more = True
        owed = self._owed
        waiting = self._replenish.live
        heap = self._replenish.heap
        rm_heap = self._rm_heap
        ready = rm_heap.live
        ready_heap = rm_heap.heap
        pushed = False
        while heap:
            entry = heap[0]
            tid = entry[1]
            if waiting.get(tid) is not entry:
                heappop(heap)
                continue
            if entry[0] > now:
                break
            heappop(heap)
            del waiting[tid]
            reservation = reservations[tid]
            # Reservation.advance_to, inlined.  A thread on this heap is
            # never a stray (_throttle takes it off the stray set), so
            # the roll has no stray to drop, unlike _advance.
            start = reservation.period_start
            period_us = reservation.period_us
            if now - start >= period_us:
                elapsed = (now - start) // period_us
                if reservation.wanted_more:
                    reservation.deadline_misses += 1
                    self._deadline_miss_total += 1
                    reservation.wanted_more = False
                reservation.period_start = start + elapsed * period_us
                reservation.periods_elapsed += elapsed
                reservation.used_in_period_us = 0
            if reservation.used_in_period_us >= (
                period_us * reservation.proportion_ppt // PROPORTION_SCALE
            ):
                # A zero budget stays exhausted in the new window.  The
                # pick marks it, as the scan marked every runnable
                # exhausted candidate; refresh leaves the mark owed.
                if pick:
                    reservation.wanted_more = True
                self._throttle(tid, reservation)
            else:
                # _make_ready, inlined.  The thread carries no mark (any
                # roll since it was throttled cleared it, and only an
                # exhausted thread gets one), so it is no stray.  Only a
                # refresh can meet an owed thread: a pick took the set.
                if owed:
                    owed.pop(tid, None)
                entry = (period_us, -reservation.proportion_ppt, tid)
                ready[tid] = entry
                heappush(ready_heap, entry)
                pushed = True
        if pushed:
            rm_heap.compact()
        stray = self._wanted_stray
        if stray:
            run_queue = self._run_queue
            for tid in list(stray):
                thread = run_queue.get(tid)
                if thread is not None and (
                    not pick or thread.state is _READY or thread.state is _RUNNING
                ):
                    self._advance(tid, reservations[tid], now)

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------
    def on_add(self, thread: SimThread) -> None:
        self._roster = None
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
        self._roster = None
        tid = thread.tid
        reservation = self._reservations.pop(tid, None)
        if reservation is not None:
            self._reserved_ppt_total -= reservation.proportion_ppt
            self._deadline_miss_total -= reservation.deadline_misses
        self._rm_heap.discard(tid)
        self._replenish.discard(tid)
        self._owed.pop(tid, None)
        self._wanted_stray.pop(tid, None)
        self._best_effort.pop(tid, None)

    def on_ready(self, thread: SimThread, now: int) -> None:
        super().on_ready(thread, now)
        tid = thread.tid
        reservation = self._reservations.get(tid)
        if (
            reservation is not None
            and tid not in self._rm_heap
            and tid not in self._replenish
        ):
            self._route(tid, reservation)

    def on_block(self, thread: SimThread, now: int) -> None:
        super().on_block(thread, now)
        tid = thread.tid
        reservation = self._reservations.get(tid)
        if reservation is not None:
            self._rm_heap.discard(tid)
            self._replenish.discard(tid)
            self._owed.pop(tid, None)
            if reservation.wanted_more:
                # Recorded unmet demand still owes a deadline miss at
                # the next period roll; refresh realises it even while
                # the thread stays blocked (as the full scan did).
                self._wanted_stray[tid] = None

    def refresh(self, now: int) -> None:
        self._service_queues(now, pick=False)

    def charge(self, thread: SimThread, consumed_us: int, now: int) -> None:
        tid = thread.tid
        reservation = self._reservations.get(tid)
        if reservation is None:
            return
        reservation.used_in_period_us += consumed_us
        reservation.total_allocated_us += consumed_us
        # _advance is a no-op until the window must roll (its guard,
        # inlined: elapsed periods > 0 iff now - start >= period).
        if now - reservation.period_start >= reservation.period_us:
            self._advance(tid, reservation, now)
        if reservation.used_in_period_us >= (
            reservation.period_us
            * reservation.proportion_ppt
            // PROPORTION_SCALE
        ):
            # The budget ran out: wait for the window end on the
            # replenishment heap, owing the next pick the unmet-demand
            # mark (see "Incremental dispatch" for why not now).
            self._rm_heap.live.pop(tid, None)
            state = thread.state
            if state is _READY or state is _RUNNING:
                # _throttle, inlined.
                replenish = self._replenish
                entry = (reservation.period_start + reservation.period_us, tid)
                replenish.live[tid] = entry
                heappush(replenish.heap, entry)
                replenish.compact()
                if reservation.wanted_more:
                    self._wanted_stray.pop(tid, None)
                else:
                    self._owed[tid] = None

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

    def placement_order(self) -> PlacementOrder:
        """The base order, filtered from the standing roster (see "SMP
        rounds"): no weight read and no sort unless a weight or the
        membership changed since the last round."""
        roster = self._roster
        if roster is None:
            weight = self.placement_weight
            roster = self._roster = sorted(
                (-weight(thread), tid, thread)
                for tid, thread in self._run_queue._members.items()
            )
        return [
            entry
            for entry in roster
            if (state := entry[2].state) is _READY or state is _RUNNING
        ]

    def place_threads(self, now: int) -> dict[int, int]:
        """Place the round's threads and drop the previous round's plan."""
        self._plan = None
        return super().place_threads(now)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def pick_next(self, now: int, cpu: Optional[int] = None) -> Optional[SimThread]:
        """The uniprocessor pick; per-CPU picks go through
        :meth:`pick_next_cpu`."""
        if cpu is not None:
            raise SchedulerError(
                "the reservation scheduler answers per-CPU picks through "
                "pick_next_cpu"
            )
        # Service only when a mark is owed, a stray may roll or the
        # replenishment heap's top is due (a stale one costs a service
        # pass that only drops it).
        waiting = self._replenish.heap
        if self._owed or self._wanted_stray or (waiting and waiting[0][0] <= now):
            self._service_queues(now, pick=True)
        rm_heap = self._rm_heap
        members = self._run_queue._members
        # Fast path: the heap minimum is usually dispatchable as-is.
        # Drop dead tops (as LazyMinHeap.peek does) and read the live
        # one in place, without walking the live set.
        heap = rm_heap.heap
        ready = rm_heap.live
        while heap:
            entry = heap[0]
            tid = entry[-1]
            if ready.get(tid) is not entry:
                heappop(heap)
                continue
            thread = members.get(tid)
            if thread is not None:
                state = thread.state
                if state is _READY or state is _RUNNING:
                    # Fresh window for time_slice / remaining_us, exactly
                    # as the per-pick scan advanced every candidate
                    # (_advance guard inlined: no-op before a roll is due).
                    reservation = self._reservations[tid]
                    if now - reservation.period_start >= reservation.period_us:
                        self._advance(tid, reservation, now)
                    return thread
            break
        # Walk past entries without mutating the heap: the sorted live
        # snapshot is exactly the drain order.  An emptied heap (the
        # common way out of the loop above) has nothing to walk.
        if ready:
            for entry in rm_heap.live_sorted():
                tid = entry[-1]
                thread = members.get(tid)
                if thread is None:
                    continue
                state = thread.state
                if state is _READY or state is _RUNNING:
                    reservation = self._reservations[tid]
                    if now - reservation.period_start >= reservation.period_us:
                        self._advance(tid, reservation, now)
                    return thread
        best_effort = self._best_effort
        if best_effort:
            candidates = [
                t
                for t in best_effort.values()
                if t.state is _READY or t.state is _RUNNING
            ]
            if candidates:
                # Round-robin over best-effort threads for basic fairness.
                return self.rotate(candidates, None)
        return None

    def pick_next_cpu(self, cpu: int, now: int) -> Optional[SimThread]:
        """CPU ``cpu``'s pick this round: the plan's reservation, else
        a best-effort thread (see "SMP rounds")."""
        plan = self._plan
        if plan is None:
            plan = self._plan = self._plan_round(now)
        thread = plan[cpu]
        if thread is not None:
            return thread
        best_effort = self._best_effort
        if best_effort:
            candidates = [
                t
                for t in best_effort.values()
                if t.state is _READY and self.eligible_on(t, cpu)
            ]
            if candidates:
                return self.rotate(candidates, cpu)
        return None

    def _plan_round(self, now: int) -> list[Optional[SimThread]]:
        """Every online CPU's reservation pick for the round at ``now``
        (indexed by CPU; ``None`` where no reservation is eligible)."""
        # The service guard of ``pick_next``.
        waiting = self._replenish.heap
        if self._owed or self._wanted_stray or (waiting and waiting[0][0] <= now):
            self._service_queues(now, pick=True)
        n_cpus = self._n_cpus
        plan: list[Optional[SimThread]] = [None] * n_cpus
        # open_cpus: the CPUs still without a pick; offline CPUs never pick.
        online: "range | tuple[int, ...]"
        if self._online is None:
            online = range(n_cpus)
            open_cpus = [True] * n_cpus
        else:
            online = self._online
            open_cpus = [False] * n_cpus
            for index in online:
                open_cpus[index] = True
        left = len(online)
        members = self._run_queue._members.get
        placement = self._placement_map
        reservations = self._reservations
        for entry in self._rm_heap.live_sorted():
            tid = entry[-1]
            thread = members(tid)
            if thread is None or thread.state is not _READY:
                continue
            cpu = thread.affinity
            if cpu is None:
                cpu = placement.get(tid)
                if cpu is None:
                    # Placed nowhere: eligible on every CPU, so the
                    # lowest one still open would have claimed it.
                    cpu = next(c for c in online if open_cpus[c])
            if not open_cpus[cpu]:
                continue
            open_cpus[cpu] = False
            plan[cpu] = thread
            reservation = reservations[tid]
            if now - reservation.period_start >= reservation.period_us:
                self._advance(tid, reservation, now)
            left -= 1
            if not left:
                break
        return plan

    def time_slice(self, thread: SimThread, now: int) -> int:
        reservation = self._reservations.get(thread.tid)
        if reservation is None:
            if self._best_effort_slice_us is not None:
                return self._best_effort_slice_us
            return self._interval_us
        if self.enforce_within_slice:
            return min(self._interval_us, max(1, reservation.remaining_us))
        return self._interval_us

    def next_wakeup(self, now: int) -> Optional[int]:
        entry = self._replenish.peek()
        return None if entry is None else int(entry[0])


__all__ = [
    "DEFAULT_PERIOD_US",
    "PROPORTION_SCALE",
    "Reservation",
    "ReservationScheduler",
]
