"""Scheduler interface and the shared incremental run-queue layer.

A scheduler is a pure policy object: the kernel tells it about thread
lifecycle events (ready, block, yield, preempt, exit) and asks it two
questions at every dispatch point: *which runnable thread should run
next* (:meth:`Scheduler.pick_next`) and *for at most how long*
(:meth:`Scheduler.time_slice`).  CPU consumption is reported back via
:meth:`Scheduler.charge` so proportion/period accounting can be kept.

On a multiprocessor kernel the dispatch question is asked once per CPU:
the kernel first calls :meth:`Scheduler.place_threads`, which builds the
round's heaviest-first order of runnable threads
(:meth:`Scheduler.placement_order`: one pass over the ready hints and
one sort here; the reservation scheduler filters a standing sorted
roster instead) and lets the scheduler's
:class:`~repro.sched.placement.PlacementPolicy` map that order to CPUs;
then it calls :meth:`Scheduler.pick_next_cpu` for each online CPU in
index order, claiming each pick before the next CPU asks.  The default
per-CPU answer is the uniprocessor ordering logic restricted to the
threads placed on that CPU (:meth:`Scheduler.dispatch_candidates`);
the reservation scheduler instead plans every CPU's pick in one
rate-monotonic walk at the round's first call (see
:mod:`repro.sched.rbs`).  With ``cpu=None`` (the single-CPU kernel's
call) every code path reduces bit-for-bit to the original uniprocessor
behaviour.

The run-queue layer
-------------------
Dispatch happens once per simulated millisecond, so anything O(n) in
the dispatcher caps how large a scenario can be simulated.  The
:class:`RunQueue` and :class:`LazyMinHeap` structures below let
policies go incremental without changing any observable ordering:

* **tid-indexed membership** — :meth:`Scheduler.add_thread` /
  :meth:`Scheduler.remove_thread` are O(1) dict operations instead of
  list scans, while :meth:`Scheduler.threads` still returns threads in
  exact registration order (insertion-ordered dict).
* **ready hints** — the run queue tracks which members are not known
  to be blocked (maintained from the kernel's ready/block/yield/
  preempt notifications).  Candidate lists are built from this small
  set, restored to registration order via each thread's registration
  sequence number, and every read re-checks ``thread.state`` so a
  stale hint can widen the scan but never change a pick.  Placement
  needs no registration order (its heaviest-first order is total), so
  it reads the hints as they are.
* **lazily-invalidated heaps** — :class:`LazyMinHeap` keys entries by
  tid and invalidates in O(1); stale entries are discarded when they
  surface at the top.  The reservation scheduler keeps its
  rate-monotonic ready order in one (keyed
  ``(period_us, -proportion_ppt, tid)`` — a total order, because tids
  are unique, so the heap minimum is exactly the head of the sort it
  replaces) and its replenishment schedule in another (keyed
  ``(period_end, tid)``).

Determinism-preserving invalidation scheme
------------------------------------------
The structures are *hints*; correctness never depends on their
freshness, only on the invariant that a thread eligible for dispatch
is reachable through at least one of them.  All mutations funnel
through the owning scheduler's transition points (add/remove,
ready/block, charge, reservation changes), which re-route the thread
at once but never roll its period window there: windows are only
rolled forward at the same virtual times the scan-based
implementation rolled them (pick, charge, refresh), and unmet demand
is only recorded at a pick, so deadline-miss accounting and pick order
stay bit-identical to the O(n)-scan code this replaces.  Subclasses
overriding the lifecycle hooks (:meth:`Scheduler.on_ready`,
:meth:`Scheduler.on_block`, :meth:`Scheduler.on_yield`,
:meth:`Scheduler.on_preempt`) must call ``super()`` so the shared hints
stay maintained.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections.abc import ValuesView
from typing import TYPE_CHECKING, Optional

from repro.sched.placement import (
    LeastLoadedPlacement,
    PlacementOrder,
    PlacementPolicy,
)
from repro.sim.errors import SchedulerError
from repro.sim.thread import SimThread, ThreadState

if TYPE_CHECKING:  # pragma: no cover
    from repro.ipc.mutex import Mutex
    from repro.sim.kernel import Kernel


class LazyMinHeap:
    """A min-heap of per-thread entries with O(1) invalidation.

    Entries are tuples whose *last* element is the owning thread's tid;
    the heap keeps at most one *live* entry per tid (``push`` replaces,
    ``discard`` invalidates).  Dead entries stay in the backing list
    and are skipped when they reach the top, so every operation is
    O(log n) amortised.

    ``heap`` (the backing list, a :mod:`heapq` heap) and ``live`` (tid
    -> live entry) are read attributes for hot paths that inline the
    methods below.  The one rule such a reader keeps: an entry is live
    iff ``live.get(entry[-1]) is entry``.  ``heap`` stays the same list
    object for the heap's lifetime (``rebuild`` works in place), so a
    reader may hold it across pushes.  An inline path may change the
    heap only as the methods do: ``heappop`` a dead top, or a live top
    together with ``del live[tid]``; ``live.pop(tid, None)`` to
    discard; ``live[tid] = entry`` with a ``heappush`` of ``entry``,
    followed by one :meth:`compact` after its pushes.  A batch of
    re-keys may also *stage* entries, ``live[tid] = entry`` with no
    push, and then :meth:`rebuild` once; nothing may read the heap in
    between, since the backing list lacks the staged entries.
    """

    __slots__ = ("heap", "live")

    def __init__(self) -> None:
        self.heap: list[tuple] = []
        self.live: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self.live)

    def __contains__(self, tid: int) -> bool:
        return tid in self.live

    #: Compact when the backing list holds this many times more
    #: entries than are live (and is past the size floor below) —
    #: bounds memory under sustained push-replacement, e.g. a
    #: controller re-keying every thread every tick.
    _COMPACT_RATIO = 2
    _COMPACT_FLOOR = 64

    def push(self, tid: int, entry: tuple) -> None:
        """Insert ``entry`` for ``tid``, replacing any live entry."""
        self.live[tid] = entry
        heapq.heappush(self.heap, entry)
        self.compact()

    def compact(self) -> None:
        """Rebuild if the backing list has outgrown the live entries
        (the rule above); every push ends with this check."""
        size = len(self.heap)
        if size > self._COMPACT_FLOOR and size > self._COMPACT_RATIO * len(self.live):
            self.rebuild()

    def rebuild(self) -> None:
        """Rebuild the backing heap, in place, from the live entries only.

        Drain order is a total order over the entry tuples (tids are
        unique), so the internal arrangement cannot affect any pick
        sequence.
        """
        heap = self.heap
        heap[:] = self.live.values()
        heapq.heapify(heap)

    def discard(self, tid: int) -> None:
        """Invalidate ``tid``'s live entry (no-op if absent)."""
        self.live.pop(tid, None)

    def peek(self) -> Optional[tuple]:
        """The smallest live entry, or ``None``; drops stale tops."""
        heap = self.heap
        live = self.live
        while heap:
            entry = heap[0]
            if live.get(entry[-1]) is entry:
                return entry
            heapq.heappop(heap)
        return None

    def live_sorted(self) -> list[tuple]:
        """All live entries in ascending order (a non-mutating walk).

        Entry tuples form a total order (the trailing tid is unique),
        so this is exactly the order in which repeated peeks and
        discards would drain the heap — without disturbing it.  Used
        by pick paths that need to *scan past* ineligible entries:
        sorting the small live set beats a pop/push-back churn through
        the backing heap.
        """
        entries = list(self.live.values())
        entries.sort()
        return entries


class RunQueue:
    """Tid-indexed thread membership with ready hints.

    Threads are kept in registration order (each gets a monotonically
    increasing sequence number); the *ready hint* is the subset not
    known to be blocked.  Hints are advisory: readers re-check
    ``thread.state``, so a stale hint costs a skipped iteration, never
    a wrong candidate set.
    """

    __slots__ = ("_members", "_seq_of", "_next_seq", "_ready")

    def __init__(self) -> None:
        #: tid -> thread, in registration order.
        self._members: dict[int, SimThread] = {}
        #: tid -> registration sequence number.
        self._seq_of: dict[int, int] = {}
        self._next_seq = 0
        #: seq -> thread for members not known to be blocked.
        self._ready: dict[int, SimThread] = {}

    # -- membership ----------------------------------------------------
    def __contains__(self, tid: int) -> bool:
        return tid in self._members

    def __len__(self) -> int:
        return len(self._members)

    def get(self, tid: int) -> Optional[SimThread]:
        return self._members.get(tid)

    def add(self, thread: SimThread) -> None:
        tid = thread.tid
        self._members[tid] = thread
        seq = self._next_seq
        self._next_seq += 1
        self._seq_of[tid] = seq
        # New threads start in the ready hint; a NEW/blocked state is
        # filtered out at read time.
        self._ready[seq] = thread

    def remove(self, tid: int) -> Optional[SimThread]:
        thread = self._members.pop(tid, None)
        seq = self._seq_of.pop(tid, None)
        if seq is not None:
            self._ready.pop(seq, None)
        return thread

    def threads(self) -> list[SimThread]:
        """All members in registration order."""
        return list(self._members.values())

    # -- ready hints ---------------------------------------------------
    def note_ready(self, thread: SimThread) -> None:
        seq = self._seq_of.get(thread.tid)
        if seq is not None:
            self._ready[seq] = thread

    def note_blocked(self, tid: int) -> None:
        seq = self._seq_of.get(tid)
        if seq is not None:
            self._ready.pop(seq, None)

    def ready_hint(self) -> ValuesView[SimThread]:
        """Hinted-ready members, in no particular order."""
        return self._ready.values()

    def ready_in_order(self) -> list[SimThread]:
        """Hinted-ready members, restored to registration order."""
        ready = self._ready
        if len(ready) == len(self._members):
            # Nothing blocked: membership order is already correct.
            return list(self._members.values())
        return [ready[seq] for seq in sorted(ready)]


class Scheduler(ABC):
    """Base class for all dispatch policies."""

    #: Key under which the scheduler stores per-thread data in
    #: ``SimThread.sched_data``; subclasses override.
    SCHED_KEY = "base"

    def __init__(self, *, placement: Optional[PlacementPolicy] = None) -> None:
        self.kernel: Optional["Kernel"] = None
        self._run_queue = RunQueue()
        #: Thread-to-CPU mapping strategy used on multiprocessor kernels.
        self.placement: PlacementPolicy = (
            placement if placement is not None else LeastLoadedPlacement()
        )
        #: tid -> CPU assignment computed by the latest placement round.
        self._placement_map: dict[int, int] = {}
        #: CPU (``None`` on the uniprocessor path) -> its rotation
        #: cursor (see :meth:`rotate`).
        self._cursors: dict[Optional[int], int] = {}
        #: The attached kernel's dispatch interval and CPU count, read
        #: once in :meth:`attach` (the kernel fixes both at
        #: construction), and its online CPUs: ``None`` while every CPU
        #: is online, else the ascending index tuple, re-read at every
        #: :meth:`note_capacity_change`.  The per-round paths read these
        #: instead of going through the kernel's properties.
        self._interval_us = 1_000
        self._n_cpus = 1
        self._online: Optional[tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, kernel: "Kernel") -> None:
        """Called by the kernel when the scheduler is installed."""
        self.kernel = kernel
        self._interval_us = kernel.dispatch_interval_us
        self._n_cpus = kernel.n_cpus
        self._read_online()

    def _read_online(self) -> None:
        """Copy the attached kernel's online CPUs (see ``_online``)."""
        kernel = self.kernel
        self._online = (
            kernel.online_cpu_indices()
            if kernel is not None and kernel.offline_cpu_count
            else None
        )

    @property
    def dispatch_interval_us(self) -> int:
        """The kernel's dispatch interval (1 ms unless reconfigured)."""
        return self._interval_us

    @property
    def n_cpus(self) -> int:
        """Number of CPUs of the attached kernel (1 when detached)."""
        return self._n_cpus

    @property
    def online_cpu_count(self) -> int:
        """Online CPUs of the attached kernel (1 when detached).

        Equals :attr:`n_cpus` unless :meth:`Kernel.fail_cpu` took CPUs
        down.  Capacity-derived quantities (reservation capacity,
        admission and overload thresholds) scale with this, so losing a
        CPU immediately shrinks what the controller may hand out.
        """
        if self.kernel is None:
            return 1
        return self.kernel.online_cpu_count

    # ------------------------------------------------------------------
    # thread membership
    # ------------------------------------------------------------------
    def add_thread(self, thread: SimThread) -> None:
        """Register a new thread with the policy (O(1))."""
        if thread.tid in self._run_queue:
            raise SchedulerError(f"thread {thread.name!r} already registered")
        self._run_queue.add(thread)
        self.on_add(thread)

    def remove_thread(self, thread: SimThread) -> None:
        """Remove a thread (normally on exit; O(1))."""
        self._run_queue.remove(thread.tid)
        self.on_remove(thread)

    def threads(self) -> list[SimThread]:
        """All threads currently registered with this scheduler."""
        return self._run_queue.threads()

    def has_thread(self, thread: SimThread) -> bool:
        """Whether ``thread`` is registered (O(1))."""
        return thread.tid in self._run_queue

    def runnable_threads(self) -> list[SimThread]:
        """Registered threads whose state allows dispatch.

        Registration order, exactly as the full-membership scan this
        replaces; built from the ready hints and re-checked against
        ``thread.state`` (identity checks — the ``is_runnable``
        property costs an enum-tuple membership test per thread per
        placement round).
        """
        ready = ThreadState.READY
        running = ThreadState.RUNNING
        return [
            t
            for t in self._run_queue.ready_in_order()
            if t.state is ready or t.state is running
        ]

    # ------------------------------------------------------------------
    # multiprocessor placement
    # ------------------------------------------------------------------
    def placement_weight(self, thread: SimThread) -> float:
        """Load contribution of ``thread`` for balancing placements.

        The base policy weighs every thread equally; the reservation
        scheduler overrides this with the reserved proportion so that
        per-CPU reserved capacity stays balanced.
        """
        return 1.0

    def placement_order(self) -> PlacementOrder:
        """The round's runnable threads heaviest first.

        ``(-placement_weight(t), t.tid, t)`` for every runnable thread,
        ascending: one pass over the ready hints, one sort.  The order
        is total (tids are unique), so it does not depend on the order
        the hints are held in.  Overrides may build it another way (the
        reservation scheduler filters a standing sorted roster) but
        must return exactly this list.
        """
        weight = self.placement_weight
        ready = ThreadState.READY
        running = ThreadState.RUNNING
        order = [
            (-weight(t), t.tid, t)
            for t in self._run_queue.ready_hint()
            if t.state is ready or t.state is running
        ]
        order.sort()
        return order

    def place_threads(self, now: int) -> dict[int, int]:
        """(Re)assign runnable threads to CPUs for the coming round.

        Called by the multiprocessor kernel at the start of every
        dispatch round.  Returns (and caches) the tid -> CPU mapping.
        """
        self._placement_map = self.placement.assign(
            self.placement_order(), self._n_cpus, self._online
        )
        return self._placement_map

    def eligible_on(self, thread: SimThread, cpu: int) -> bool:
        """Whether ``thread`` may run on ``cpu`` in the current round.

        A hard affinity is always honoured (the kernel and ``pin_to``
        guarantee it names an existing CPU).  Otherwise a thread the
        latest placement round assigned may run only on its assigned
        CPU, and a thread it did not assign (one that became runnable
        after placement, or a pick made without a placement round) may
        run on any CPU.  In the kernel's rounds placement runs right
        before the picks, so every runnable thread is assigned.
        """
        if thread.affinity is not None:
            return thread.affinity == cpu
        assigned = self._placement_map.get(thread.tid)
        return assigned is None or assigned == cpu

    def dispatch_candidates(self, cpu: Optional[int] = None) -> list[SimThread]:
        """Runnable threads a pick for ``cpu`` may choose from.

        With ``cpu=None`` (uniprocessor dispatch) this is exactly
        :meth:`runnable_threads`.  With a CPU index it is the READY
        threads placed on that CPU — threads currently RUNNING on
        another CPU of the same round are excluded.
        """
        if cpu is None:
            return self.runnable_threads()
        ready = ThreadState.READY
        return [
            t
            for t in self._run_queue.ready_in_order()
            if t.state is ready and self.eligible_on(t, cpu)
        ]

    def rotate(self, candidates: list[SimThread], cpu: Optional[int]) -> SimThread:
        """The next of ``candidates`` in ``cpu``'s own round-robin.

        Each CPU keeps its own cursor.  A cursor shared by all CPUs
        would move ``n_cpus`` steps a round, so a CPU whose candidate
        count divides ``n_cpus`` would pick the same index every round
        and starve the rest.
        """
        cursor = self._cursors.get(cpu, 0) + 1
        self._cursors[cpu] = cursor
        return candidates[cursor % len(candidates)]

    # ------------------------------------------------------------------
    # policy hooks (subclasses override what they need)
    # ------------------------------------------------------------------
    def on_add(self, thread: SimThread) -> None:
        """Hook: a thread was registered."""

    def on_remove(self, thread: SimThread) -> None:
        """Hook: a thread was removed."""

    def on_ready(self, thread: SimThread, now: int) -> None:
        """Hook: a thread became runnable (overrides must call super)."""
        self._run_queue.note_ready(thread)

    def on_block(self, thread: SimThread, now: int) -> None:
        """Hook: a thread blocked or slept (overrides must call super)."""
        self._run_queue.note_blocked(thread.tid)

    def on_yield(self, thread: SimThread, now: int) -> None:
        """Hook: a thread gave up the CPU (overrides must call super)."""
        self._run_queue.note_ready(thread)

    def on_preempt(self, thread: SimThread, now: int) -> None:
        """Hook: a thread's slice ended (overrides must call super)."""
        self._run_queue.note_ready(thread)

    def note_affinity_change(self, thread: SimThread) -> None:
        """Hook: ``thread``'s CPU affinity changed (a live re-pin).

        Called by :meth:`SimThread.pin_to` for threads already bound to
        a kernel.
        """

    def note_capacity_change(self) -> None:
        """Hook: the kernel's online-CPU set changed (fail/recover).

        Called by :meth:`Kernel.fail_cpu` and :meth:`Kernel.recover_cpu`;
        re-reads the online CPUs placement uses (overrides must call
        super).
        """
        self._read_online()

    def on_mutex_block(self, thread: SimThread, mutex: "Mutex", now: int) -> None:
        """Hook: ``thread`` blocked acquiring ``mutex``."""

    def on_mutex_release(self, thread: SimThread, mutex: "Mutex", now: int) -> None:
        """Hook: ``thread`` released ``mutex``."""

    def on_mutex_unblock(self, thread: SimThread, mutex: "Mutex", now: int) -> None:
        """Hook: ``thread`` left ``mutex``'s wait queue *without*
        acquiring it (a forced exit via :meth:`Kernel.kill_thread`)."""

    def charge(self, thread: SimThread, consumed_us: int, now: int) -> None:
        """Hook: ``thread`` consumed ``consumed_us`` of CPU ending at ``now``."""

    def refresh(self, now: int) -> None:
        """Hook: bring time-dependent accounting up to ``now``.

        Called by the kernel after an idle period so reservations can be
        replenished before the next ``pick_next``.
        """

    def next_wakeup(self, now: int) -> Optional[int]:
        """Earliest future time at which a currently ineligible thread
        becomes eligible again (e.g. a throttled reservation
        replenishes), or ``None`` if there is no such time."""
        return None

    # The kernel never calls these two; the benchmark's traced run
    # (perfbench/spans.py) wraps them by name.
    def preemption_horizon(
        self, now: int, thread: SimThread, cpu: Optional[int] = None
    ) -> Optional[int]:
        return now

    def note_batched_picks(self, thread: SimThread, skipped: int, now: int) -> None:
        pass

    # ------------------------------------------------------------------
    # dispatch decisions
    # ------------------------------------------------------------------
    @abstractmethod
    def pick_next(self, now: int, cpu: Optional[int] = None) -> Optional[SimThread]:
        """Select the next thread to run, or ``None`` to idle.

        ``cpu`` restricts the choice to threads placed on that CPU
        (multiprocessor dispatch); ``None`` keeps the original
        uniprocessor semantics.  Implementations obtain their candidate
        set from :meth:`dispatch_candidates` so both cases share one
        ordering policy.
        """

    def pick_next_cpu(self, cpu: int, now: int) -> Optional[SimThread]:
        """CPU-aware pick: the thread CPU ``cpu`` should dispatch at ``now``.

        The kernel calls this once per online CPU per round, in CPU
        order, right after :meth:`place_threads`, and claims each pick
        (marks it RUNNING) before the next call.
        """
        return self.pick_next(now, cpu=cpu)

    def time_slice(self, thread: SimThread, now: int) -> int:
        """Maximum time (us) ``thread`` may run before re-dispatch."""
        return self._interval_us


__all__ = ["LazyMinHeap", "RunQueue", "Scheduler"]
