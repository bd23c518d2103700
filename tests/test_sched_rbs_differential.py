"""Differential test: optimized vs reference reservation scheduler.

The incremental :class:`~repro.sched.rbs.ReservationScheduler` (heap
run queues, pick-time reclassification, running aggregates) must make
exactly the decisions of the historical O(n) scan-and-sort
implementation.  :class:`ReferenceReservationScheduler` below *is* that
implementation, kept verbatim as a test fixture; hypothesis drives both
through identical randomized workloads — reservation changes (one at a
time, and in controller-tick batches that the optimized side takes in
one ``actuate`` call), blocks and wake-ups, dispatch rounds with
charges, on 1 and 4 CPUs — and every pick, every charge outcome and the
final deadline-miss counts must match.

On several CPUs the optimized scheduler plans a whole round at its
first ``pick_next_cpu``; the oracle inherits the base class's
``pick_next_cpu``, which asks its own ``pick_next(now, cpu)`` once per
CPU, so every SMP round compares the plan against per-CPU scans.

The one intentional representation difference: the optimized scheduler
rolls period windows *lazily* (a window advances when its thread is
next examined, not at every pick), so interim ``period_start`` /
``used_in_period_us`` values of unexamined threads may trail the
reference.  Window arithmetic composes (rolling later reaches the same
state), so the comparison realises all windows before checking final
accounting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sched.base import Scheduler
from repro.sched.rbs import (
    DEFAULT_PERIOD_US,
    Reservation,
    ReservationScheduler,
)
from repro.sim.errors import SchedulerError
from repro.sim.thread import SchedulingPolicy, SimThread, ThreadState


class ReferenceReservationScheduler(Scheduler):
    """The pre-optimization scan-based dispatcher, kept as an oracle.

    This is the seed implementation verbatim (modulo the base class's
    list membership becoming :meth:`Scheduler.threads`, and best-effort
    threads taking each CPU's own :meth:`Scheduler.rotate`): every pick
    rebuilds the eligible list, advances every candidate's period
    window and re-sorts; the aggregate queries scan every thread.
    """

    SCHED_KEY = "rbs_ref"

    def reservation(self, thread: SimThread) -> Optional[Reservation]:
        return thread.sched_data.get(self.SCHED_KEY)

    def set_reservation(self, thread, proportion_ppt, period_us=DEFAULT_PERIOD_US,
                        *, now=0):
        if not self.has_thread(thread):
            raise SchedulerError(
                f"thread {thread.name!r} is not registered with this scheduler"
            )
        current = self.reservation(thread)
        if current is None:
            reservation = Reservation(
                proportion_ppt=int(proportion_ppt),
                period_us=int(period_us),
                period_start=now,
            )
            thread.sched_data[self.SCHED_KEY] = reservation
            return reservation
        Reservation(proportion_ppt=int(proportion_ppt), period_us=int(period_us))
        current.proportion_ppt = int(proportion_ppt)
        if int(period_us) != current.period_us:
            current.period_us = int(period_us)
            current.period_start = now
            current.used_in_period_us = 0
        return current

    def clear_reservation(self, thread: SimThread) -> None:
        thread.sched_data.pop(self.SCHED_KEY, None)

    def total_reserved_ppt(self) -> int:
        total = 0
        for thread in self.threads():
            reservation = self.reservation(thread)
            if reservation is not None:
                total += reservation.proportion_ppt
        return total

    def deadline_misses(self) -> int:
        total = 0
        for thread in self.threads():
            reservation = self.reservation(thread)
            if reservation is not None:
                total += reservation.deadline_misses
        return total

    def refresh(self, now: int) -> None:
        for thread in self.threads():
            reservation = self.reservation(thread)
            if reservation is not None:
                reservation.advance_to(now)

    def charge(self, thread: SimThread, consumed_us: int, now: int) -> None:
        reservation = self.reservation(thread)
        if reservation is None:
            return
        reservation.used_in_period_us += consumed_us
        reservation.total_allocated_us += consumed_us
        reservation.advance_to(now)

    def placement_weight(self, thread: SimThread) -> float:
        reservation = self.reservation(thread)
        if reservation is None or reservation.proportion_ppt <= 0:
            return 1.0
        return float(reservation.proportion_ppt)

    def _eligible_reservation_threads(self, now, cpu=None):
        eligible = []
        for thread in self.dispatch_candidates(cpu):
            reservation = self.reservation(thread)
            if reservation is None:
                continue
            reservation.advance_to(now)
            if reservation.exhausted:
                reservation.wanted_more = True
                continue
            eligible.append(thread)
        return eligible

    def _runnable_best_effort(self, cpu=None):
        return [
            t for t in self.dispatch_candidates(cpu) if self.reservation(t) is None
        ]

    def pick_next(self, now: int, cpu: Optional[int] = None) -> Optional[SimThread]:
        eligible = self._eligible_reservation_threads(now, cpu)
        if eligible:
            eligible.sort(
                key=lambda t: (
                    self.reservation(t).period_us,
                    -self.reservation(t).proportion_ppt,
                    t.tid,
                )
            )
            return eligible[0]
        best_effort = self._runnable_best_effort(cpu)
        if not best_effort:
            return None
        return self.rotate(best_effort, cpu)

    def next_wakeup(self, now: int) -> Optional[int]:
        earliest: Optional[int] = None
        for thread in self.threads():
            if not thread.state.is_runnable:
                continue
            reservation = self.reservation(thread)
            if reservation is None or not reservation.exhausted:
                continue
            end = reservation.period_end()
            if earliest is None or end < earliest:
                earliest = end
        return earliest


@dataclass
class _FakeKernel:
    """Just enough kernel for a detached scheduler: time and CPUs."""

    now: int = 0
    n_cpus: int = 1
    dispatch_interval_us: int = 1_000
    offline: frozenset = frozenset()

    @property
    def offline_cpu_count(self) -> int:
        return len(self.offline)

    @property
    def online_cpu_count(self) -> int:
        return self.n_cpus - len(self.offline)

    def online_cpu_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_cpus) if i not in self.offline)


class DualHarness:
    """Drives the optimized and the reference scheduler in lockstep.

    Each logical thread exists twice (one twin per scheduler, created
    in the same order so relative tid ordering — the sort tiebreak —
    matches).  Every operation is applied to both sides; picks are the
    primary equivalence check.
    """

    def __init__(self, n_threads: int, n_cpus: int) -> None:
        self.n_cpus = n_cpus
        self.now = 0
        self.opt = ReservationScheduler()
        self.ref = ReferenceReservationScheduler()
        self.opt_kernel = _FakeKernel(n_cpus=n_cpus)
        self.ref_kernel = _FakeKernel(n_cpus=n_cpus)
        self.opt.attach(self.opt_kernel)
        self.ref.attach(self.ref_kernel)
        self.opt_threads: list[SimThread] = []
        self.ref_threads: list[SimThread] = []
        for i in range(n_threads):
            # Alternate twin creation so both sides interleave tids the
            # same way relative to each other.
            a = SimThread(f"t{i}", policy=SchedulingPolicy.BEST_EFFORT)
            b = SimThread(f"t{i}", policy=SchedulingPolicy.BEST_EFFORT)
            a.state = ThreadState.READY
            b.state = ThreadState.READY
            self.opt_threads.append(a)
            self.ref_threads.append(b)
            self.opt.add_thread(a)
            self.ref.add_thread(b)
            self.opt.on_ready(a, 0)
            self.ref.on_ready(b, 0)
        self.picks: list[Optional[str]] = []

    def _sync_clocks(self) -> None:
        self.opt_kernel.now = self.now
        self.ref_kernel.now = self.now

    # -- operations ----------------------------------------------------
    def set_reservation(self, index: int, ppt: int, period_us: int) -> None:
        self._sync_clocks()
        self.opt.set_reservation(
            self.opt_threads[index], ppt, period_us, now=self.now
        )
        self.ref.set_reservation(
            self.ref_threads[index], ppt, period_us, now=self.now
        )

    def actuate(self, grants: list[tuple[int, int, Optional[int]]]) -> None:
        """One batched re-size of ``(index, ppt, period)`` grants.

        The optimized side takes a single ``actuate`` call; the oracle
        takes one ``set_reservation`` per grant, in turn.  A ``None``
        period keeps the thread's period from before the batch (the
        controller's common proportion-only re-size).  Both sides must
        raise the same error, or neither.
        """
        self._sync_clocks()
        periods = []
        for index, _, period in grants:
            if period is None:
                current = self.opt.reservation(self.opt_threads[index])
                period = DEFAULT_PERIOD_US if current is None else current.period_us
            periods.append(period)
        opt_error = ref_error = None
        try:
            self.opt.actuate(
                [self.opt_threads[index] for index, _, _ in grants],
                [ppt for _, ppt, _ in grants],
                periods,
                self.now,
            )
        except SchedulerError as exc:
            opt_error = str(exc)
        try:
            for (index, ppt, _), period in zip(grants, periods):
                self.ref.set_reservation(
                    self.ref_threads[index], ppt, period, now=self.now
                )
        except SchedulerError as exc:
            ref_error = str(exc)
        assert opt_error == ref_error, f"batch errors diverged at t={self.now}"
        # next_wakeup is not compared: as after set_reservation, a
        # lazily rolled window's replenishment entry may trail the
        # scan's until the next pick or refresh.
        assert self.opt.total_reserved_ppt() == self.ref.total_reserved_ppt()
        assert self.opt.deadline_misses() == self.ref.deadline_misses()

    def clear_reservation(self, index: int) -> None:
        self.opt.clear_reservation(self.opt_threads[index])
        self.ref.clear_reservation(self.ref_threads[index])

    def block(self, index: int) -> None:
        a, b = self.opt_threads[index], self.ref_threads[index]
        if a.state is not ThreadState.READY:
            return
        a.state = ThreadState.BLOCKED
        b.state = ThreadState.BLOCKED
        self.opt.on_block(a, self.now)
        self.ref.on_block(b, self.now)

    def wake(self, index: int) -> None:
        a, b = self.opt_threads[index], self.ref_threads[index]
        if a.state is not ThreadState.BLOCKED:
            return
        a.state = ThreadState.READY
        b.state = ThreadState.READY
        self.opt.on_ready(a, self.now)
        self.ref.on_ready(b, self.now)

    def pin(self, index: int, cpu: Optional[int]) -> None:
        """Pin (or unpin) one logical thread; an offline CPU is refused,
        as ``SimThread.pin_to`` refuses it on a live kernel."""
        if cpu is not None and cpu in self.opt_kernel.offline:
            return
        for scheduler, thread in (
            (self.opt, self.opt_threads[index]),
            (self.ref, self.ref_threads[index]),
        ):
            thread.pin_to(cpu)
            scheduler.note_affinity_change(thread)

    def fail(self, cpu: int) -> None:
        """Take ``cpu`` offline and drain its pins to the lowest online
        CPU, as ``Kernel.fail_cpu`` does (the last CPU never fails)."""
        offline = self.opt_kernel.offline | {cpu}
        if cpu in self.opt_kernel.offline or len(offline) == self.n_cpus:
            return
        for kernel in (self.opt_kernel, self.ref_kernel):
            kernel.offline = offline
        target = self.opt_kernel.online_cpu_indices()[0]
        for index, thread in enumerate(self.opt_threads):
            if thread.affinity == cpu:
                self.pin(index, target)
        self.opt.note_capacity_change()
        self.ref.note_capacity_change()

    def recover(self, cpu: int) -> None:
        offline = self.opt_kernel.offline - {cpu}
        for kernel in (self.opt_kernel, self.ref_kernel):
            kernel.offline = offline
        self.opt.note_capacity_change()
        self.ref.note_capacity_change()

    def refresh(self, skip_us: int) -> None:
        """The kernel's idle path: jump the clock, refresh, compare.

        This is where blocked threads' period windows roll in the
        reference implementation, so deadline misses recorded for
        threads that blocked while throttled must surface identically.
        """
        self.now += skip_us
        self._sync_clocks()
        self.opt.refresh(self.now)
        self.ref.refresh(self.now)
        self._assert_aggregates()

    def _assert_aggregates(self) -> None:
        assert self.opt.total_reserved_ppt() == self.ref.total_reserved_ppt()
        assert self.opt.deadline_misses() == self.ref.deadline_misses(), (
            f"deadline misses diverged at t={self.now}: "
            f"optimized={self.opt.deadline_misses()} "
            f"reference={self.ref.deadline_misses()}"
        )
        assert self.opt.next_wakeup(self.now) == self.ref.next_wakeup(self.now)

    def dispatch_round(
        self, consumed_us: int, late_wakes: tuple[int, ...] = ()
    ) -> None:
        """One pick/charge round, mirroring the kernel's structure.

        ``late_wakes`` wakes those threads after placement and before
        the picks (SMP only): placed nowhere, each may run on any CPU.
        """
        self._sync_clocks()
        if self.n_cpus == 1:
            a = self.opt.pick_next(self.now)
            b = self.ref.pick_next(self.now)
            assert (a.name if a else None) == (b.name if b else None), (
                f"pick diverged at t={self.now}: "
                f"optimized={a and a.name} reference={b and b.name}"
            )
            self.picks.append(a.name if a else None)
            pairs = [(a, b)] if a is not None else []
        else:
            self.opt.place_threads(self.now)
            self.ref.place_threads(self.now)
            for index in late_wakes:
                self.wake(index)
            pairs = []
            for cpu in self.opt_kernel.online_cpu_indices():
                a = self.opt.pick_next_cpu(cpu, self.now)
                b = self.ref.pick_next_cpu(cpu, self.now)
                assert (a.name if a else None) == (b.name if b else None), (
                    f"SMP pick diverged at t={self.now} cpu={cpu}: "
                    f"optimized={a and a.name} reference={b and b.name}"
                )
                self.picks.append(a.name if a else None)
                if a is not None:
                    # Claim, as Kernel._dispatch_round does, so the next
                    # CPU cannot pick the same thread this round.
                    a.state = ThreadState.RUNNING
                    b.state = ThreadState.RUNNING
                    pairs.append((a, b))
        # The picked threads run and are charged; slices end preempted.
        end = self.now + max(1, consumed_us)
        for a, b in pairs:
            self.opt.charge(a, consumed_us, end)
            self.ref.charge(b, consumed_us, end)
            a.state = ThreadState.READY
            b.state = ThreadState.READY
            self.opt.on_preempt(a, end)
            self.ref.on_preempt(b, end)
        self.now = end
        self._sync_clocks()
        # Aggregates kept incrementally must match the scans, and the
        # idle-wakeup answer must be identical (it steers kernel time).
        self._assert_aggregates()

    def check_placement_order(self) -> None:
        """The optimized side's placement order, filtered from its
        standing roster, is the from-scratch weigh-and-sort."""
        opt = self.opt
        expected = sorted(
            (-opt.placement_weight(t), t.tid, t) for t in opt.runnable_threads()
        )
        assert opt.placement_order() == expected, (
            f"placement order diverged from a fresh sort at t={self.now}"
        )

    # -- final comparison ----------------------------------------------
    def check_final(self) -> None:
        # Realise every lazily-rolled window, then the full reservation
        # accounting must agree.  (advance_to composes: rolling a
        # window late reaches the same state as rolling it eagerly.)
        horizon = self.now + 1_000_000
        for a, b in zip(self.opt_threads, self.ref_threads):
            res_a = self.opt.reservation(a)
            res_b = self.ref.reservation(b)
            assert (res_a is None) == (res_b is None), a.name
            if res_a is None:
                continue
            res_a.advance_to(horizon)
            res_b.advance_to(horizon)
            # periods_elapsed is deliberately absent: it is a pure
            # diagnostic counter, and a period *change* resets a lazily
            # rolled window without realising rolls the eager scan had
            # already counted.  Everything behavioural — budget usage,
            # charges, misses, the post-reset window — must agree.
            assert (
                res_a.proportion_ppt,
                res_a.period_us,
                res_a.deadline_misses,
                res_a.used_in_period_us,
                res_a.total_allocated_us,
            ) == (
                res_b.proportion_ppt,
                res_b.period_us,
                res_b.deadline_misses,
                res_b.used_in_period_us,
                res_b.total_allocated_us,
            ), f"reservation state diverged for {a.name}"


# -- strategies --------------------------------------------------------
def _batch(index):
    """A controller tick's batched re-size: ``(index, ppt, period)``
    grants, where a ``None`` period keeps the current one and a ppt of
    -1 is out of range, so the batch raises where it reaches it."""
    return st.tuples(
        st.just("batch"),
        st.lists(
            st.tuples(
                index,
                st.integers(min_value=-1, max_value=400),
                st.sampled_from([None, 2_000, 5_000, 10_000, 30_000]),
            ),
            min_size=1,
            max_size=8,
        ),
    )


def _operations(n_threads: int):
    index = st.integers(min_value=0, max_value=n_threads - 1)
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("reserve"),
                index,
                st.integers(min_value=0, max_value=400),       # ppt
                st.sampled_from([2_000, 5_000, 10_000, 30_000]),  # period
            ),
            _batch(index),
            st.tuples(st.just("clear"), index),
            st.tuples(st.just("block"), index),
            st.tuples(st.just("wake"), index),
            st.tuples(
                st.just("round"),
                st.integers(min_value=0, max_value=3_000),     # consumed
            ),
            st.tuples(
                st.just("refresh"),
                st.integers(min_value=0, max_value=40_000),    # idle skip
            ),
        ),
        min_size=10,
        max_size=60,
    )


workload = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n), _operations(n))
)


#: Runs before the random cases: t0 and t1 spend their budgets, a pick
#: marks both, and t1 blocks while throttled.  At the window end t0's
#: replenishment rolls in a miss, and t1's dead entry must be dropped.
#: On 4 CPUs the second round's plan must not be the first's, which
#: still holds the spent t0 and t1.
_THROTTLE_BLOCK_REPLENISH = (3, [
    ("reserve", 0, 100, 10_000),
    ("reserve", 1, 100, 10_000),
    ("round", 1_000),
    ("round", 1_000),
    ("round", 500),
    ("block", 1),
    ("round", 3_000),
    ("round", 3_000),
    ("round", 3_000),
    ("round", 3_000),
])


#: A batch raises t1's proportion, so t1's staged key now heads the
#: ready heap: a pick from a heap the batch did not rebuild takes t0.
_BATCH_REKEYS_HEAD = (2, [
    ("reserve", 0, 100, 10_000),
    ("reserve", 1, 100, 10_000),
    ("batch", [(1, 200, None)]),
    ("round", 100),
])


@pytest.mark.parametrize("n_cpus", [1, 4])
@given(case=workload)
@example(case=_THROTTLE_BLOCK_REPLENISH)
@example(case=_BATCH_REKEYS_HEAD)
@settings(max_examples=200, deadline=None)
def test_optimized_matches_reference(n_cpus, case):
    """Pick sequences, charges and deadline misses are identical."""
    n_threads, operations = case
    harness = DualHarness(n_threads, n_cpus)
    rounds = 0
    for op in operations:
        kind = op[0]
        if kind == "reserve":
            harness.set_reservation(op[1], op[2], op[3])
        elif kind == "batch":
            harness.actuate(op[1])
        elif kind == "clear":
            harness.clear_reservation(op[1])
        elif kind == "block":
            harness.block(op[1])
        elif kind == "wake":
            harness.wake(op[1])
        elif kind == "refresh":
            harness.refresh(op[1])
        else:
            harness.dispatch_round(op[1])
            rounds += 1
    # Always end with a few settled rounds so replenishments and
    # throttling get exercised even for draw-heavy op sequences.
    for _ in range(5):
        harness.dispatch_round(1_000)
        rounds += 1
    assert rounds >= 5
    harness.check_final()


# -- SMP rounds: the plan against per-CPU scans ------------------------
#
# Four CPUs, with what the plain workload above leaves out: pins
# (including re-pins and unpins), CPUs failing and recovering, threads
# woken after placement, and best-effort threads picking up the CPUs
# the reservations leave idle.


def _smp_operations(n_threads: int):
    index = st.integers(min_value=0, max_value=n_threads - 1)
    cpu = st.integers(min_value=0, max_value=3)
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("reserve"),
                index,
                st.integers(min_value=0, max_value=400),
                st.sampled_from([2_000, 5_000, 10_000, 30_000]),
            ),
            _batch(index),
            st.tuples(st.just("clear"), index),
            st.tuples(st.just("block"), index),
            st.tuples(st.just("wake"), index),
            st.tuples(st.just("pin"), index, st.one_of(st.none(), cpu)),
            st.tuples(st.just("fail"), cpu),
            st.tuples(st.just("recover"), cpu),
            st.tuples(
                st.just("round"),
                st.integers(min_value=0, max_value=3_000),
                st.lists(index, max_size=2),
            ),
            st.tuples(
                st.just("refresh"),
                st.integers(min_value=0, max_value=40_000),
            ),
        ),
        min_size=10,
        max_size=60,
    )


smp_workload = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(st.just(n), _smp_operations(n))
)


#: A batch re-sizes t0 above t1 after a round sorted the roster: a
#: roster the batch left standing still places t1 first.
_BATCH_REORDERS_ROSTER = (3, [
    ("reserve", 0, 100, 10_000),
    ("reserve", 1, 200, 10_000),
    ("round", 500, []),
    ("batch", [(0, 300, None)]),
    ("round", 500, []),
])


@given(case=smp_workload)
@example(case=_BATCH_REORDERS_ROSTER)
@settings(max_examples=200, deadline=None)
def test_smp_rounds_match_reference(case):
    """Every CPU's pick in every round matches the per-CPU scan, and
    after every operation the placement order matches a fresh sort."""
    n_threads, operations = case
    harness = DualHarness(n_threads, n_cpus=4)
    harness.check_placement_order()
    for op in operations:
        kind = op[0]
        if kind == "reserve":
            harness.set_reservation(op[1], op[2], op[3])
        elif kind == "batch":
            harness.actuate(op[1])
        elif kind == "clear":
            harness.clear_reservation(op[1])
        elif kind == "block":
            harness.block(op[1])
        elif kind == "wake":
            harness.wake(op[1])
        elif kind == "pin":
            harness.pin(op[1], op[2])
        elif kind == "fail":
            harness.fail(op[1])
        elif kind == "recover":
            harness.recover(op[1])
        elif kind == "refresh":
            harness.refresh(op[1])
        else:
            harness.dispatch_round(op[1], tuple(op[2]))
        harness.check_placement_order()
    for _ in range(5):
        harness.dispatch_round(1_000)
    harness.check_final()


def test_smp_pinned_reservations():
    """Reservations pinned to one CPU queue there in rate-monotonic
    order, while unpinned ones spread over the rest."""
    harness = DualHarness(n_threads=7, n_cpus=4)
    for index, period in enumerate((2_000, 5_000, 10_000)):
        harness.set_reservation(index, 300, period)
        harness.pin(index, 1)
    for index in range(3, 7):
        harness.set_reservation(index, 200, 5_000 + 1_000 * index)
    harness.pin(3, 3)
    harness.dispatch_round(1_000)
    # CPU 1 runs its shortest pinned period, and CPU 3 its pinned t3,
    # which beats every thread placed beside it there.
    assert harness.picks[1] == "t0"
    assert harness.picks[3] == "t3"
    for _ in range(12):
        harness.dispatch_round(700)
    assert harness.picks[-4:] != [None] * 4
    harness.pin(1, None)
    harness.pin(4, 1)
    _settle(harness)


def test_smp_best_effort_fills_idle_cpus():
    """CPUs without an eligible reservation run the best-effort threads
    placed on them, round-robin in CPU order; a best-effort thread woken
    after placement may run on any such CPU."""
    harness = DualHarness(n_threads=8, n_cpus=4)
    harness.set_reservation(0, 200, 5_000)  # 1 ms budget
    harness.set_reservation(1, 100, 10_000)  # 1 ms budget
    harness.block(2)
    # Heavy reservations take CPUs 0 and 1; the best-effort threads
    # (weight 1) are all placed on CPUs 2 and 3.
    harness.dispatch_round(1_000)
    assert harness.picks[:2] == ["t0", "t1"]
    assert set(harness.picks[2:4]) <= {"t3", "t4", "t5", "t6", "t7"}
    # Both budgets are spent.  The late t2 is placed nowhere, so CPU 0
    # takes it; CPU 1 has nothing placed on it that may run.
    harness.dispatch_round(1_000, late_wakes=(2,))
    assert harness.picks[4:6] == ["t2", None]
    assert set(harness.picks[6:8]) <= {"t3", "t4", "t5", "t6", "t7"}
    for _ in range(6):
        harness.dispatch_round(1_000)
    _settle(harness)


def test_smp_reservation_woken_after_placement():
    """A reservation that wakes between placement and the picks is
    placed nowhere, so the lowest CPU claims it, ahead of the
    best-effort thread placed there."""
    harness = DualHarness(n_threads=2, n_cpus=4)
    harness.set_reservation(0, 300, 10_000)
    harness.block(0)
    harness.dispatch_round(1_000, late_wakes=(0,))
    assert harness.picks == ["t0", None, None, None]
    _settle(harness)


def test_smp_failed_cpu():
    """A failed CPU picks nothing, its pinned reservation drains to the
    lowest online CPU, and both come back after recovery."""
    harness = DualHarness(n_threads=6, n_cpus=4)
    for index in range(5):
        harness.set_reservation(index, 250, 4_000 + 2_000 * index)
    harness.pin(3, 2)
    harness.dispatch_round(800)
    harness.fail(2)
    assert harness.opt_threads[3].affinity == 0
    harness.dispatch_round(800)
    assert len(harness.picks) == 4 + 3
    harness.fail(0)
    for _ in range(4):
        harness.dispatch_round(800, late_wakes=(5,))
    harness.recover(2)
    harness.recover(0)
    _settle(harness)


def test_smp_replenishment_and_owed_mark_due_at_round_instant():
    """One round realises, at its own instant, both a replenishment
    that falls due exactly then and an owed mark left by the previous
    round's charge."""
    harness = DualHarness(n_threads=3, n_cpus=4)
    harness.set_reservation(0, 100, 2_000)  # 200 us budget, window ends at 2 ms
    harness.set_reservation(1, 150, 10_000)  # 1.5 ms budget
    harness.dispatch_round(1_000)  # t0 exhausted (owes a mark), t1 not
    harness.dispatch_round(1_000)  # t0's mark realised; t1 exhausted at 2 ms
    opt = harness.opt
    t0, t1 = (thread.tid for thread in harness.opt_threads[:2])
    assert harness.now == 2_000
    assert opt._replenish.peek() == (2_000, t0)
    assert t1 in opt._owed
    harness.dispatch_round(1_000)
    # t1's mark was realised; t0 ran again and owes a new one.
    assert opt._owed == {t0: None}
    assert opt.reservation(harness.opt_threads[1]).wanted_more
    assert "t0" in harness.picks[-4:]  # replenished and picked at once
    assert opt.deadline_misses() == harness.ref.deadline_misses() == 1
    _settle(harness)


@pytest.mark.parametrize("wake_before_end", [False, True])
def test_miss_recorded_for_thread_that_blocks_while_throttled(wake_before_end):
    """A throttled thread's recorded demand survives a block.

    The thread exhausts its budget (a pick marks ``wanted_more``), then
    blocks; when the kernel's idle path refreshes past the period end,
    the deadline miss must be counted exactly as the scan-based
    implementation counted it — whether or not the thread ever wakes.
    """
    harness = DualHarness(n_threads=2, n_cpus=1)
    harness.set_reservation(0, 100, 10_000)  # 1 ms budget per 10 ms
    # Consume the whole budget in one round, then pick again so the
    # schedulers observe the exhausted thread (marking wanted_more).
    harness.dispatch_round(1_000)
    harness.dispatch_round(500)
    harness.block(0)
    if wake_before_end:
        harness.wake(0)
    # Idle past the period boundary: the reference refresh rolls every
    # window; the optimized one must realise the same miss.
    harness.refresh(20_000)
    assert harness.opt.deadline_misses() == harness.ref.deadline_misses() == 1
    harness.check_final()


def test_reference_is_really_the_old_algorithm():
    """Sanity: the oracle picks by the scan-and-sort rules."""
    scheduler = ReferenceReservationScheduler()
    scheduler.attach(_FakeKernel())
    short = SimThread("short")
    long = SimThread("long")
    for thread in (short, long):
        thread.state = ThreadState.READY
        scheduler.add_thread(thread)
    scheduler.set_reservation(short, 100, 5_000)
    scheduler.set_reservation(long, 100, 50_000)
    assert scheduler.pick_next(0) is short


# -- owed marks: unmet demand realised at the pick, not at the charge ---
#
# A charge that exhausts a budget leaves the thread *owing* a
# ``wanted_more`` mark: the scan recorded unmet demand only when a pick
# found the thread still runnable and still exhausted.  In each case
# below a charge exhausts the budget, then one thing happens before any
# pick that makes an eagerly set mark wrong.  None of them is a deadline
# miss, so an eager mark shows up as a spurious one.


def _exhaust_then(action) -> DualHarness:
    harness = DualHarness(n_threads=2, n_cpus=1)
    harness.set_reservation(0, 100, 10_000)  # 1 ms budget per 10 ms
    harness.dispatch_round(1_000)  # t0 runs and spends the whole budget
    action(harness)
    return harness


def _refresh_past_window_end(harness: DualHarness) -> None:
    harness.refresh(15_000)


def _block_then_refresh_past_window_end(harness: DualHarness) -> None:
    harness.block(0)
    harness.refresh(15_000)
    harness.wake(0)


def _raise_proportion(harness: DualHarness) -> None:
    harness.set_reservation(0, 1_000, 10_000)  # eligible again
    harness.dispatch_round(500)
    harness.refresh(15_000)


@pytest.mark.parametrize(
    "action",
    [
        _refresh_past_window_end,
        _block_then_refresh_past_window_end,
        _raise_proportion,
    ],
    ids=["refresh", "block_refresh", "raise"],
)
def test_owed_mark_is_not_unmet_demand_yet(action):
    harness = _exhaust_then(action)
    assert harness.opt.deadline_misses() == harness.ref.deadline_misses() == 0
    for _ in range(5):
        harness.dispatch_round(1_000)
    harness.check_final()


# -- a zero budget at the window end ------------------------------------
#
# A window roll refills the budget, except when the budget is zero: the
# thread is still exhausted in the new window, so the replenishment pass
# re-throttles it instead of making it ready.  A pick marks its unmet
# demand at once, as the scan marked every runnable exhausted candidate;
# refresh never marks, so the mark stays owed to the next pick.


@pytest.mark.parametrize("n_cpus", [1, 4])
@pytest.mark.parametrize("at_pick", [True, False], ids=["pick", "refresh"])
def test_zero_budget_rethrottled_at_window_end(n_cpus, at_pick):
    harness = DualHarness(n_threads=2, n_cpus=n_cpus)
    harness.set_reservation(0, 0, 2_000)  # no budget: throttled at once
    assert _queues_of(harness, 0) == (False, True, True)
    t0 = harness.opt_threads[0].tid
    reservation = harness.opt.reservation(harness.opt_threads[0])
    if at_pick:
        harness.dispatch_round(1_000)  # the pick realises the owed mark
        harness.dispatch_round(1_000)  # the window ends as this one does
        harness.dispatch_round(1_000)  # its pick rolls the window: a miss
        marked, misses = True, 1
    else:
        harness.refresh(2_000)  # idle to the window end: nothing marked
        marked, misses = False, 0
    assert _queues_of(harness, 0) == (False, True, not marked)
    assert harness.opt._replenish.peek() == (4_000, t0)
    assert reservation.wanted_more is marked
    assert harness.opt.deadline_misses() == harness.ref.deadline_misses() == misses
    _settle(harness)


# -- proportion-only re-sizes ------------------------------------------
#
# The controller's common actuation changes a proportion and keeps the
# period, so the window and its usage stay put and only the thread's
# place in the run queues can move.  Each case re-sizes one reserved
# thread (t0, beside a best-effort t1) and checks where the optimized
# scheduler queued it, then runs both schedulers on to a final
# comparison with the scan oracle.


def _queues_of(harness: DualHarness, index: int) -> tuple[bool, bool, bool]:
    """(on the ready heap, on the replenishment heap, owed a mark)."""
    tid = harness.opt_threads[index].tid
    opt = harness.opt
    return tid in opt._rm_heap, tid in opt._replenish, tid in opt._owed


def _settle(harness: DualHarness) -> None:
    for _ in range(3):
        harness.dispatch_round(1_000)
    harness.refresh(25_000)
    for _ in range(3):
        harness.dispatch_round(1_000)
    harness.check_final()


@pytest.mark.parametrize("n_cpus", [1, 4])
def test_resize_cut_keeps_ready_thread_and_rekeys_it(n_cpus):
    """(a) A cut that leaves budget re-keys the ready-heap entry, so
    the rate-monotonic order follows the new proportion."""
    harness = DualHarness(n_threads=3, n_cpus=n_cpus)
    harness.set_reservation(0, 300, 10_000)
    harness.set_reservation(1, 200, 10_000)
    tids = [thread.tid for thread in harness.opt_threads]
    order = [entry[-1] for entry in harness.opt._rm_heap.live_sorted()]
    assert order == [tids[0], tids[1]]

    harness.set_reservation(0, 100, 10_000)  # 1 ms budget, none used
    assert _queues_of(harness, 0) == (True, False, False)
    order = [entry[-1] for entry in harness.opt._rm_heap.live_sorted()]
    assert order == [tids[1], tids[0]]
    harness.dispatch_round(500)
    if n_cpus == 1:
        assert harness.picks == ["t1"]
    _settle(harness)


@pytest.mark.parametrize("n_cpus", [1, 4])
def test_resize_cut_that_exhausts_throttles_with_owed_mark(n_cpus):
    """(b) A cut below what the window already used moves the thread
    to the replenishment heap, owing the next pick its mark."""
    harness = DualHarness(n_threads=2, n_cpus=n_cpus)
    harness.set_reservation(0, 300, 10_000)  # 3 ms budget
    harness.dispatch_round(1_000)  # t0 runs 1 ms and stays eligible
    assert _queues_of(harness, 0) == (True, False, False)

    harness.set_reservation(0, 50, 10_000)  # 0.5 ms budget: exhausted
    assert _queues_of(harness, 0) == (False, True, True)
    reservation = harness.opt.reservation(harness.opt_threads[0])
    assert not reservation.wanted_more
    harness.dispatch_round(500)  # the pick realises the owed mark
    assert reservation.wanted_more
    assert _queues_of(harness, 0) == (False, True, False)
    harness.refresh(10_000)  # past the window end: one miss on each side
    assert harness.opt.deadline_misses() == harness.ref.deadline_misses() == 1
    _settle(harness)


@pytest.mark.parametrize("n_cpus", [1, 4])
def test_resize_raise_returns_throttled_thread_to_ready_heap(n_cpus):
    """(c) A raise that restores budget before the window ends puts a
    throttled thread back on the ready heap; its recorded demand still
    becomes a miss at the roll."""
    harness = DualHarness(n_threads=2, n_cpus=n_cpus)
    harness.set_reservation(0, 100, 10_000)  # 1 ms budget
    harness.dispatch_round(1_000)  # t0 spends the whole budget
    assert _queues_of(harness, 0) == (False, True, True)
    harness.dispatch_round(500)  # a pick marks the unmet demand
    assert _queues_of(harness, 0) == (False, True, False)

    harness.set_reservation(0, 500, 10_000)  # 5 ms budget: eligible
    assert _queues_of(harness, 0) == (True, False, False)
    assert harness.opt_threads[0].tid in harness.opt._wanted_stray
    harness.dispatch_round(500)
    harness.refresh(10_000)
    assert harness.opt.deadline_misses() == harness.ref.deadline_misses() == 1
    _settle(harness)


@pytest.mark.parametrize("n_cpus", [1, 4])
@pytest.mark.parametrize(
    "new_ppt,queues_at_wake",
    [(50, (False, True, True)), (500, (True, False, False))],
    ids=["cut", "raise"],
)
def test_resize_of_blocked_thread_routes_at_wake(n_cpus, new_ppt, queues_at_wake):
    """(d) A blocked thread sits on neither heap through a re-size and
    is routed by its new size when it wakes."""
    harness = DualHarness(n_threads=2, n_cpus=n_cpus)
    harness.set_reservation(0, 100 if new_ppt > 100 else 300, 10_000)
    harness.dispatch_round(1_000)
    harness.block(0)
    assert _queues_of(harness, 0) == (False, False, False)

    harness.set_reservation(0, new_ppt, 10_000)
    assert _queues_of(harness, 0) == (False, False, False)
    harness.wake(0)
    assert _queues_of(harness, 0) == queues_at_wake
    _settle(harness)


@pytest.mark.parametrize("n_cpus", [1, 4])
@pytest.mark.parametrize(
    "ppt,period",
    [(1_001, 10_000), (-1, 10_000), (100, 0), (100, -5_000)],
    ids=["ppt_high", "ppt_negative", "period_zero", "period_negative"],
)
def test_resize_out_of_range_raises_oracle_text(n_cpus, ppt, period):
    """(e) A re-size out of range raises the oracle's SchedulerError
    text and changes nothing."""
    harness = DualHarness(n_threads=2, n_cpus=n_cpus)
    harness.set_reservation(0, 300, 10_000)
    harness.dispatch_round(1_000)
    before = _queues_of(harness, 0)
    messages = []
    for scheduler, thread in (
        (harness.opt, harness.opt_threads[0]),
        (harness.ref, harness.ref_threads[0]),
    ):
        with pytest.raises(SchedulerError) as excinfo:
            scheduler.set_reservation(thread, ppt, period, now=harness.now)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    assert _queues_of(harness, 0) == before
    assert harness.opt.total_reserved_ppt() == harness.ref.total_reserved_ppt() == 300
    _settle(harness)


@pytest.mark.parametrize("n_cpus", [1, 4])
def test_resize_of_removed_thread_raises_not_registered(n_cpus):
    """(e) A thread removed from the scheduler still carries its
    reservation, and a re-size of it raises the oracle's text."""
    harness = DualHarness(n_threads=2, n_cpus=n_cpus)
    harness.set_reservation(0, 300, 10_000)
    messages = []
    for scheduler, thread in (
        (harness.opt, harness.opt_threads[0]),
        (harness.ref, harness.ref_threads[0]),
    ):
        scheduler.remove_thread(thread)
        assert scheduler.reservation(thread) is not None
        with pytest.raises(SchedulerError) as excinfo:
            scheduler.set_reservation(thread, 200, 10_000, now=harness.now)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1] == (
        "thread 't0' is not registered with this scheduler"
    )


# -- batched re-sizes ------------------------------------------------------
#
# ``actuate`` stages each ready thread's new key and rebuilds the ready
# heap once, so the order the backing heap drains in is checked here,
# not only the picks (which may read the sorted live set).


def _ready_reservations(n_threads: int) -> tuple[ReservationScheduler, list[SimThread]]:
    scheduler = ReservationScheduler()
    scheduler.attach(_FakeKernel())
    threads = []
    for index in range(n_threads):
        thread = SimThread(f"t{index}", policy=SchedulingPolicy.BEST_EFFORT)
        thread.state = ThreadState.READY
        scheduler.add_thread(thread)
        scheduler.on_ready(thread, 0)
        scheduler.set_reservation(thread, 100 + 10 * index, 10_000, now=0)
        threads.append(thread)
    return scheduler, threads


def _drain(heap) -> list[tuple]:
    """Empty ``heap`` through its backing list, smallest live entry
    first: the order in which the ready heap's picks would see them."""
    drained = []
    entry = heap.peek()
    while entry is not None:
        drained.append(entry)
        heap.discard(entry[-1])
        entry = heap.peek()
    assert not heap.heap
    return drained


def test_actuate_rekeys_ready_heap_in_pop_order():
    """After a batch that re-keys every ready thread, the heap drains in
    the new rate-monotonic order."""
    scheduler, threads = _ready_reservations(6)
    before = [entry[-1] for entry in scheduler._rm_heap.live_sorted()]
    scheduler.actuate(
        threads, [400 - 10 * index for index in range(6)], [10_000] * 6, 0
    )
    expected = scheduler._rm_heap.live_sorted()
    assert [entry[-1] for entry in expected] == before[::-1]
    assert _drain(scheduler._rm_heap) == expected


def test_actuate_error_partway_keeps_every_entry_reachable():
    """A batch that raises at its third grant keeps the first two, and
    every ready thread stays reachable through the backing heap."""
    scheduler, threads = _ready_reservations(5)
    with pytest.raises(SchedulerError, match=r"got 1001$"):
        scheduler.actuate(
            threads, [500, 450, 1_001, 50, 40], [10_000] * 5, 0
        )
    assert [scheduler.reservation(t).proportion_ppt for t in threads] == [
        500, 450, 120, 130, 140
    ]
    assert scheduler.total_reserved_ppt() == 500 + 450 + 120 + 130 + 140
    heap = scheduler._rm_heap
    expected = heap.live_sorted()
    assert len(expected) == 5
    assert heap.peek() == expected[0]
    assert _drain(heap) == expected


# -- real kernels --------------------------------------------------------
#
# DualHarness drives the schedulers directly.  In a real Kernel, due
# events fire between a dispatch's charge and the next pick, and a
# controller tick steals CPU there (Kernel.steal_cpu), so a period
# window can end inside that gap.  These runs put both schedulers in
# real kernels fed the same seeded workload.

_KERNEL_PERIODS_US = (2_000, 5_000, 10_000, 30_000)


def _run_real_kernel(scheduler, seed: int, n_cpus: int, smp_extras: bool = False):
    """``smp_extras`` (4 CPUs) pins two threads, leaves three
    best-effort, and fails CPU 2 for part of the run."""
    from repro.sim.kernel import Kernel
    from repro.sim.requests import Compute, Sleep

    kernel = Kernel(scheduler, n_cpus=n_cpus, record_dispatches=True)

    def body(index):
        def run(env):
            rng = random.Random(seed * 1_000 + index)
            while True:
                yield Compute(rng.randint(100, 6_000))
                if rng.random() < 0.6:
                    yield Sleep(rng.randint(0, 12_000))

        return run

    n_threads = 3 * n_cpus + 2
    n_best_effort = 3 if smp_extras else 1
    setup = random.Random(seed)
    threads = []
    for index in range(n_threads):
        thread = kernel.spawn(
            f"t{index}", body(index), policy=SchedulingPolicy.BEST_EFFORT
        )
        threads.append(thread)
        if smp_extras and index < 2:
            thread.pin_to(2 + index)
        if index < n_threads - n_best_effort:
            scheduler.set_reservation(
                thread,
                setup.randint(20, 400),
                setup.choice(_KERNEL_PERIODS_US),
                now=kernel.now,
            )
    actuate = random.Random(seed + 7)

    def controller_tick(now: int) -> None:
        kernel.steal_cpu(actuate.randint(0, 1_500))
        thread = threads[actuate.randrange(n_threads - n_best_effort)]
        reservation = scheduler.reservation(thread)
        period = (
            reservation.period_us
            if actuate.random() < 0.7
            else actuate.choice(_KERNEL_PERIODS_US)
        )
        scheduler.set_reservation(
            thread, actuate.randint(0, 500), period, now=kernel.now
        )

    kernel.add_periodic(2_300, controller_tick, start_us=1_300)
    misses = []
    for chunk in range(8):
        if smp_extras and chunk == 2:
            kernel.fail_cpu(2)
        if smp_extras and chunk == 5:
            kernel.recover_cpu(2)
        kernel.run_for(25_000)
        misses.append(scheduler.deadline_misses())
    return list(kernel.dispatch_log), misses


@pytest.mark.parametrize("n_cpus", [1, 4])
@pytest.mark.parametrize("seed", range(12))
def test_real_kernel_matches_reference(n_cpus, seed):
    """Dispatch logs and deadline misses match inside real kernels."""
    log, misses = _run_real_kernel(ReservationScheduler(), seed, n_cpus)
    ref_log, ref_misses = _run_real_kernel(
        ReferenceReservationScheduler(), seed, n_cpus
    )
    assert log == ref_log
    assert misses == ref_misses
    assert misses[-1] > 0


@pytest.mark.parametrize("seed", range(6))
def test_real_kernel_smp_rounds_match_reference(seed):
    """Pins, several best-effort threads and a CPU that fails and
    recovers: dispatch logs and misses still match on 4 CPUs."""
    log, misses = _run_real_kernel(ReservationScheduler(), seed, 4, True)
    ref_log, ref_misses = _run_real_kernel(
        ReferenceReservationScheduler(), seed, 4, True
    )
    assert log == ref_log
    assert misses == ref_misses
    assert misses[-1] > 0
    assert {entry[1] for entry in log} == {0, 1, 2, 3}
