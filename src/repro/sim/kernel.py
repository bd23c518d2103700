"""The simulated machine.

:class:`Kernel` owns the virtual clock, the event queue, a pluggable
scheduler, all threads and the IPC channels they communicate over.  It
plays the role of the paper's modified Linux kernel: it dispatches
threads at a fixed dispatch interval (the paper's 1 ms timer), charges
CPU accounting at microsecond granularity, blocks threads on bounded
buffers / pipes / sockets / mutexes / sleeps / simulated I/O, and wakes
them when the blocking condition clears.

The scheduler decides *which* runnable thread runs next and for how
long; the kernel mechanically executes that decision.  The adaptive
controller of :mod:`repro.core` is layered on top: it is driven by a
periodic event and only talks to the scheduler (to set proportion and
period) and to the symbiotic-interface registry (to read fill levels).

Multi-CPU model
---------------
The paper's prototype is single-CPU; ``Kernel(scheduler, n_cpus=N)``
generalises it to a homogeneous SMP.  The simulation stays a
deterministic discrete-event system by executing *dispatch rounds*:

1. At round start (virtual time ``t0``) all due events fire, then
   :meth:`Scheduler.place_threads` maps the runnable threads to CPUs
   (one heaviest-first order, handed to the placement policy) and each
   online CPU picks at most one thread (:meth:`Scheduler.pick_next_cpu`,
   in CPU-index order).  The kernel claims each pick (marks it
   RUNNING) before the next CPU asks, so a thread claimed by a
   lower-numbered CPU is invisible to higher ones.  A scheduler may
   answer the whole round at its first call, as the reservation
   scheduler does, provided its answers equal these claims.
2. Every picked thread runs a slice *in parallel over the same wall
   window* ``[t0, h)``, where ``h`` is capped by the slice lengths and
   one cap shared by the round: the next pending event or the end of
   the run, whichever is first.  Internally the CPUs' slices are
   simulated one CPU at a time on the *slice clock*, a per-CPU local
   clock that starts at ``t0``; ``Kernel.now`` reads the slice clock
   while a slice executes, so sleeps, I/O completions and IPC commits
   performed mid-slice are stamped with the correct intra-window time.
3. The global clock then advances to the latest local end time.  A CPU
   whose thread blocked early idles until the round ends — exactly the
   timer-quantised re-dispatch latency of the paper's prototype, now
   per CPU — and wake-ups produced mid-round become visible to the
   other CPUs at the next round boundary.

With ``n_cpus=1`` (the default) the kernel runs a uniprocessor loop:
one :meth:`Scheduler.pick_next` per dispatch and no placement.  Its
slices run exactly like one CPU of a round: the loop computes the same
cap, starts the slice clock at the current time and moves the global
clock to the slice's end afterwards.
Accounting totals (``idle_us``, ``stolen_dispatch_us``,
``dispatch_count``) aggregate the per-CPU :class:`CPUState` records and
are expressed in CPU-microseconds, so the conservation identity
``total_thread_cpu + idle + stolen + offline == n_cpus * now`` holds
for every CPU count (``offline`` is zero unless :meth:`Kernel.fail_cpu`
took a CPU down — failed CPUs accrue ``offline_us`` instead of idle
time); :meth:`Kernel.conservation_gap_us` checks it.

Dispatch loop
-------------
Both loops are quantum-sliced like the paper's dispatcher: every
dispatch (or SMP round) fires the due events — polling the calendar
only when its head is due — asks the scheduler for a pick (on SMP after
a fresh placement round) and runs the picked thread for at most one
slice through :meth:`Kernel._dispatch`, the one slice path, capped by
the next pending event.  The per-dispatch overhead (fixed when the
kernel is built) and any migration penalty are charged inline in that
step.  When nothing is runnable the clock jumps straight to the next
transition the :class:`~repro.sim.events.EventCalendar` knows about — a
timer, controller tick, workload arrival, sleep/I/O wake-up or a
scheduler wake-up such as a reservation replenishment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.clock import US_PER_SEC, SimClock
from repro.sim.cpu import CPUModel, CPUState
from repro.sim.dispatch_log import (
    FOLD_BYTES,
    OUTCOME_CODE,
    RECORD,
    DispatchLog,
    NameTable,
)
from repro.sim.errors import DeadlockError, SimulationError, ThreadStateError
from repro.sim.events import EventCalendar, PeriodicEvent
from repro.sim.requests import (
    AcquireMutex,
    Compute,
    Exit,
    Get,
    Put,
    ReleaseMutex,
    Request,
    Sleep,
    WaitIO,
    Yield,
)
from repro.sim.thread import SimThread, ThreadBody, ThreadEnv, ThreadState
from repro.sim.topology import CpuTopology
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import ValuesView

    from repro.ipc.bounded_buffer import Channel
    from repro.ipc.mutex import Mutex
    from repro.sched.base import Scheduler

#: Default dispatch interval: 1 ms, matching the paper's timer interval.
DEFAULT_DISPATCH_INTERVAL_US = 1_000

# Thread states the dispatch path writes, bound once (an enum class
# attribute lookup costs far more than a module global).
_READY = ThreadState.READY
_RUNNING = ThreadState.RUNNING
# Likewise the dispatch log's record packer.
_pack_record = RECORD.pack


class _DispatchOutcome:
    """Reasons a dispatch slice ended (internal bookkeeping constants)."""

    PREEMPTED = "preempted"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"
    YIELDED = "yielded"
    EXITED = "exited"


class Kernel:
    """A simulated system with one or more CPUs.

    The kernel owns its clock, its event calendar and one
    :class:`~repro.sim.trace.Tracer` (``kernel.tracer``) that the
    controller and the experiments record into.

    Parameters
    ----------
    scheduler:
        The dispatcher policy (see :mod:`repro.sched`).  The kernel
        attaches itself to the scheduler so the scheduler can query the
        dispatch interval and CPU count.
    n_cpus:
        Number of identical CPUs.  The default of 1 reproduces the
        paper's uniprocessor prototype exactly; larger values enable
        the dispatch-round SMP model described in the module docstring.
    topology:
        Optional :class:`~repro.sim.topology.CpuTopology` describing
        the socket/core/SMT shape of the machine and its per-domain
        migration penalties.  When given with the default ``n_cpus``,
        the kernel adopts the topology's CPU count; an explicit
        ``n_cpus`` must match it.  Every dispatch of a thread whose
        previous dispatch ran on a different CPU then charges the
        topology's migration penalty as stolen time (visible in the
        dispatch log as a sixth tuple element); a ``None`` topology —
        or one with all-zero penalties — charges nothing and leaves the
        dispatch log in its historical 5-tuple form.  Migration *counts* are tracked on
        every multiprocessor kernel regardless.
    cpu:
        CPU cost model; controls the per-dispatch overhead charged as
        stolen time (shared by all CPUs — homogeneous SMP).  The cost
        is computed once, here, from the model and the dispatch
        interval; neither can change afterwards.
    dispatch_interval_us:
        The timer interval bounding how long a thread may run before
        the dispatcher is re-entered.
    charge_dispatch_overhead:
        When ``False`` the per-dispatch CPU cost is not charged, which
        makes the controller-dynamics experiments (Figures 6 and 7)
        independent of the overhead model.
    deadlock_detection:
        When ``True`` (default) the kernel raises :class:`DeadlockError`
        if threads remain blocked with no possible future wake-up.
    syscall_cost_us:
        CPU charged to a thread for every non-compute request (put, get,
        sleep, mutex operation…).  Besides being realistic, a non-zero
        cost guarantees that a thread issuing only zero-cost requests
        still makes the clock advance.
    record_dispatches:
        When ``True`` the kernel appends one packed 27-byte record per
        dispatch to :attr:`dispatch_log` (a
        :class:`~repro.sim.dispatch_log.DispatchLog`): start time, CPU
        index, thread ``tid``, outcome code, consumed microseconds and
        the migration penalty (0 when none was charged).  Every
        :data:`~repro.sim.dispatch_log.FOLD_RECORDS` records the log
        compresses its tail into one ``zlib`` chunk.  It is the full
        scheduling order behind the dispatch fingerprints and the
        determinism tests.  Iterating the log reads each record back as
        ``(time_us, cpu, thread_name, outcome, consumed_us)``, with the
        penalty as a sixth element for a dispatch that charged one, so
        the cost is part of the log's identity.
    """

    def __init__(
        self,
        scheduler: "Scheduler",
        *,
        n_cpus: int = 1,
        topology: Optional[CpuTopology] = None,
        cpu: Optional[CPUModel] = None,
        dispatch_interval_us: int = DEFAULT_DISPATCH_INTERVAL_US,
        charge_dispatch_overhead: bool = True,
        deadlock_detection: bool = True,
        syscall_cost_us: int = 1,
        record_dispatches: bool = False,
    ) -> None:
        if dispatch_interval_us <= 0:
            raise ValueError(
                f"dispatch interval must be positive, got {dispatch_interval_us}"
            )
        if n_cpus < 1:
            raise ValueError(f"kernel needs at least one CPU, got {n_cpus}")
        if topology is not None:
            if n_cpus == 1:
                n_cpus = topology.n_cpus
            elif topology.n_cpus != n_cpus:
                raise ValueError(
                    f"topology {topology.spec()} has {topology.n_cpus} "
                    f"CPU(s) but the kernel was given n_cpus={n_cpus}"
                )
        self.clock = SimClock()
        #: The unified event calendar: one lazy min-heap for timers,
        #: controller ticks, wake-ups and workload arrivals, with the
        #: scheduler's replenishment times merged in lazily (the
        #: scheduler source is registered in ``attach`` below).
        self.events = EventCalendar()
        self.tracer = Tracer()
        self.scheduler = scheduler
        self.n_cpus = int(n_cpus)
        self.dispatch_interval_us = int(dispatch_interval_us)
        model = cpu if cpu is not None else CPUModel()
        #: Per-dispatch overhead in (fractional) microseconds; each
        #: CPU's accumulator charges its whole part as stolen time.
        self._dispatch_cost_us = (
            model.effective_dispatch_cost_us(US_PER_SEC / self.dispatch_interval_us)
            if charge_dispatch_overhead
            else 0.0
        )
        self.deadlock_detection = deadlock_detection
        if syscall_cost_us < 0:
            raise ValueError(
                f"syscall cost cannot be negative, got {syscall_cost_us}"
            )
        self.syscall_cost_us = int(syscall_cost_us)

        #: Live threads by tid, in the order they were added.  An
        #: exited thread retires: it leaves this table and its CPU time
        #: moves into ``_retired_cpu_us`` (see :meth:`_retire`).
        self._live: dict[int, SimThread] = {}
        #: CPU time charged to threads that have retired.
        self._retired_cpu_us = 0
        #: tid -> name of every thread ever added, live or retired; the
        #: dispatch log names its records through it.  A read-only
        #: mapping over packed columns (a UTF-8 name blob, tids and end
        #: offsets), so a retired thread leaves no Python object here.
        self.thread_names = NameTable()
        #: Per-CPU run state; aggregates are exposed as properties.
        self.cpu_states: list[CPUState] = [CPUState(i) for i in range(self.n_cpus)]
        #: Online/offline partitions of ``cpu_states`` (index order),
        #: rebuilt by :meth:`fail_cpu` / :meth:`recover_cpu` so the hot
        #: dispatch paths never test ``online`` per CPU per round.
        self._online_states: list[CPUState] = list(self.cpu_states)
        self._offline_states: list[CPUState] = []
        #: Running totals mirroring the per-CPU fields, maintained at
        #: every mutation site so the aggregate properties are O(1)
        #: instead of O(n_cpus) sums (read by the conservation identity,
        #: experiment metrics and tests).
        self._idle_us_total = 0
        self._stolen_dispatch_us_total = 0
        self._dispatch_count_total = 0
        self._offline_us_total = 0
        self._migrations_total = 0
        self._migration_us_total = 0
        #: Per-thread last-CPU tracking (and with it migration counting
        #: and penalty charging) only matters on SMP kernels — a
        #: uniprocessor thread can never migrate, so the paper's
        #: original loop skips the bookkeeping entirely.
        self.topology = topology
        self._track_migrations = self.n_cpus > 1
        self._migration_cost: Optional[Callable[[int, int], int]] = (
            topology.migration_penalty_us if topology is not None else None
        )
        #: Callbacks invoked as ``listener(now, online_cpu_count)``
        #: after every CPU failure or recovery (degradation policies).
        self._capacity_listeners: list[Callable[[int, int], None]] = []
        #: Threads forcibly re-pinned off a failed CPU, with the online
        #: CPU they were parked on, so recovery can restore their pins.
        self._displaced_pins: dict[int, list[tuple[SimThread, int]]] = {}
        self.stolen_controller_us = 0
        #: One 27-byte record per dispatch, in compressed chunks behind
        #: a raw tail (see ``record_dispatches``); ``None`` when not
        #: recording.  Reads back as 5-tuples, or 6-tuples for a
        #: dispatch that charged a migration penalty.
        self.dispatch_log: Optional[DispatchLog] = (
            DispatchLog(self.thread_names) if record_dispatches else None
        )
        #: The slice clock: the running CPU's local time while a slice
        #: executes (None between slices).
        self._now_override: Optional[int] = None
        self._finished = False
        #: Request type -> bound handler; replaces the isinstance chain
        #: on the hot path.
        self._request_handlers: dict[type, Callable[[SimThread, Request], str]] = {
            Put: self._handle_put,
            Get: self._handle_get,
            Sleep: self._handle_sleep,
            Yield: self._handle_yield,
            Exit: self._handle_exit,
            WaitIO: self._handle_wait_io,
            AcquireMutex: self._handle_acquire,
            ReleaseMutex: self._handle_release,
        }

        scheduler.attach(self)
        # Merge the scheduler's derived wake-up times (reservation
        # replenishments) into the calendar; ``next_transition`` then
        # answers "when can the dispatch decision next change?" for the
        # idle fast-forward.
        self.events.add_source(scheduler.next_wakeup)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current virtual time in microseconds.

        While a slice executes this reads the slice clock (the running
        CPU's local time), so everything a running thread does is
        stamped with the correct intra-window time.
        """
        if self._now_override is not None:
            return self._now_override
        return self.clock.now

    @property
    def idle_us(self) -> int:
        """Total idle time across all CPUs (CPU-microseconds; O(1))."""
        return self._idle_us_total

    @property
    def stolen_dispatch_us(self) -> int:
        """Dispatch overhead across all CPUs (CPU-microseconds; O(1))."""
        return self._stolen_dispatch_us_total

    @property
    def dispatch_count(self) -> int:
        """Total dispatches across all CPUs (O(1))."""
        return self._dispatch_count_total

    @property
    def migrations(self) -> int:
        """Cross-CPU dispatches across all CPUs (O(1)).

        A dispatch counts as a migration when the thread's previous
        dispatch ran on a different CPU.  Always zero on a
        uniprocessor; tracked on every SMP kernel, topology or not.
        """
        return self._migrations_total

    @property
    def migration_us(self) -> int:
        """Total migration penalty charged (CPU-microseconds; O(1)).

        Stolen time — charged to no thread — so it participates in the
        conservation identity through :attr:`stolen_us`.  Non-zero only
        with a topology whose per-domain penalties are non-zero.
        """
        return self._migration_us_total

    @property
    def stolen_us(self) -> int:
        """Total CPU time consumed by kernel overhead.

        Dispatch overhead + controller overhead + migration penalties;
        the ``stolen`` term of the conservation identity
        ``thread_cpu + idle + stolen + offline == n_cpus * now``.
        """
        return (
            self.stolen_dispatch_us
            + self.stolen_controller_us
            + self._migration_us_total
        )

    @property
    def offline_us(self) -> int:
        """Total time CPUs spent failed (CPU-microseconds; O(1)).

        Part of the conservation identity
        ``thread_cpu + idle + stolen + offline == n_cpus * now``;
        zero unless :meth:`fail_cpu` was used.
        """
        return self._offline_us_total

    @property
    def online_cpu_count(self) -> int:
        """Number of CPUs currently online (all of them unless failed)."""
        return len(self._online_states)

    @property
    def offline_cpu_count(self) -> int:
        """Number of CPUs currently failed."""
        return len(self._offline_states)

    def online_cpu_indices(self) -> tuple[int, ...]:
        """Indices of the online CPUs, ascending."""
        return tuple(cpu.index for cpu in self._online_states)

    def cpu_is_online(self, index: int) -> bool:
        """Whether CPU ``index`` is online (False for out-of-range too)."""
        return 0 <= index < self.n_cpus and self.cpu_states[index].online

    def capacity_us(self) -> int:
        """Total CPU-time capacity elapsed so far: ``n_cpus * now``."""
        return self.n_cpus * self.clock.now

    @property
    def threads(self) -> ValuesView[SimThread]:
        """The live threads, in the order they were added (a read-only
        view; an exited thread leaves it, see :meth:`_retire`)."""
        return self._live.values()

    def total_thread_cpu_us(self) -> int:
        """Sum of CPU time charged to all threads, retired ones included."""
        return self._retired_cpu_us + sum(
            t.accounting.total_us for t in self._live.values()
        )

    def conservation_gap_us(self) -> int:
        """Capacity not accounted for: ``n_cpus * now`` minus thread CPU,
        idle, stolen and offline time.  0 means the conservation
        identity holds."""
        return self.capacity_us() - (
            self.total_thread_cpu_us() + self.idle_us + self.stolen_us
            + self.offline_us
        )

    # ------------------------------------------------------------------
    # thread management
    # ------------------------------------------------------------------
    def add_thread(self, thread: SimThread) -> SimThread:
        """Register ``thread`` with the kernel and the scheduler."""
        if thread.state is not ThreadState.NEW:
            raise SimulationError(f"thread {thread.name!r} already added")
        if thread.affinity is not None and thread.affinity >= self.n_cpus:
            raise SimulationError(
                f"thread {thread.name!r} is pinned to CPU {thread.affinity} "
                f"but the kernel has only {self.n_cpus} CPU(s)"
            )
        if thread.affinity is not None and not self.cpu_states[thread.affinity].online:
            raise SimulationError(
                f"thread {thread.name!r} is pinned to CPU {thread.affinity}, "
                "which is offline (failed)"
            )
        try:
            self.thread_names.add(thread.tid, thread.name)
        except ValueError as exc:  # a copy's tid, or a name UTF-8 cannot encode
            raise SimulationError(f"thread {thread.name!r}: {exc}") from None
        env = ThreadEnv(kernel=self, thread=thread)
        thread.bind(env)
        self._live[thread.tid] = thread
        self.scheduler.add_thread(thread)
        self.scheduler.on_ready(thread, self.now)
        return thread

    def spawn(self, name: str, body: Optional[ThreadBody], **kwargs: Any) -> SimThread:
        """Create a :class:`SimThread` and add it in one call."""
        thread = SimThread(name, body, **kwargs)
        return self.add_thread(thread)

    def kill_thread(self, thread: SimThread, *, status: int = -9) -> bool:
        """Forcibly terminate a live thread mid-run.

        The open-system workload engine's exit path for phase-scripted
        kills: the thread is detached from whatever it is waiting on
        (its sleep/I/O wake-up event is cancelled; it is removed from
        channel and mutex waiter queues, re-servicing the queue so a
        smaller waiter behind it may proceed), marked ``EXITED`` and
        removed from the scheduler.

        Returns ``True`` if the thread was killed, ``False`` if it had
        already exited (a script killing a job that just completed is
        not an error).  Killing a thread that is currently ``RUNNING``
        (i.e. from inside its own or a sibling's dispatch slice) is
        unsupported — use an :class:`~repro.sim.requests.Exit` request
        for voluntary exit; calendar events always fire between
        slices, so phase scripts never see a running victim.  A thread
        that *owns* a mutex must release it before being killed; the
        kernel cannot see ownership from the thread side, so killing an
        owner leaves the mutex held forever.

        Like a natural exit, a kill drops the thread's body and
        generator and retires the thread (see :meth:`_retire`).
        Dropping a suspended generator closes it: Python raises
        ``GeneratorExit`` at the ``yield`` it waits on.  No thread body
        in this project has a ``finally:`` or ``with`` block, so the
        close runs no code of the body's.
        """
        env = thread._env
        if env is None or env.kernel is not self:
            raise SimulationError(
                f"thread {thread.name!r} is not part of this kernel"
            )
        if thread.state == ThreadState.EXITED:
            return False
        if thread.state == _RUNNING:
            raise ThreadStateError(
                f"cannot kill {thread.name!r} while it is running a slice"
            )
        wakeup = thread.wakeup_event
        if wakeup is not None:
            wakeup.cancel()
            thread.wakeup_event = None
        blocked_on = thread.blocked_on
        thread.blocked_on = None
        self._exit_thread(thread, status)
        self._retire(thread)
        if blocked_on is not None:
            self._detach_waiter(thread, blocked_on)
        return True

    def _detach_waiter(self, thread: SimThread, blocked_on: object) -> None:
        """Remove a killed thread from its waiter queue and re-service.

        Removing the head of a channel queue can unblock a smaller
        request queued behind it, so both waiter directions are
        re-serviced after the removal (the thread is already EXITED and
        off the queues, so servicing never touches it again).
        ``blocked_on`` may also be a plain I/O tag (WaitIO), whose only
        linkage is the wake-up event the caller already cancelled.
        """
        # Runtime imports: the kernel only names these types here, and
        # importing them at module level would cycle (ipc imports sim).
        from repro.ipc.bounded_buffer import Channel
        from repro.ipc.mutex import Mutex

        if isinstance(blocked_on, Channel):
            # The thread sits in exactly one of the two queues; try both
            # (deque.remove is O(n) on a queue short by construction).
            try:
                blocked_on.put_waiters.remove(thread)
            except ValueError:
                try:
                    blocked_on.get_waiters.remove(thread)
                except ValueError:
                    pass
            self._service_put_waiters(blocked_on)
            self._service_get_waiters(blocked_on)
        elif isinstance(blocked_on, Mutex):
            # Leave the queue (ownership hand-off only happens on
            # release, which never sees the exited thread) and let the
            # scheduler recompute any priority-inheritance boost the
            # dead waiter conferred on the owner.
            try:
                blocked_on.waiters.remove(thread)
            except ValueError:
                pass
            else:
                self.scheduler.on_mutex_unblock(thread, blocked_on, self.now)

    # ------------------------------------------------------------------
    # CPU hotplug (fault injection)
    # ------------------------------------------------------------------
    def add_capacity_listener(
        self, listener: Callable[[int, int], None]
    ) -> None:
        """Call ``listener(now, online_cpu_count)`` after every CPU
        failure or recovery — the hook degradation policies attach to."""
        self._capacity_listeners.append(listener)

    def _rebuild_cpu_partitions(self) -> None:
        self._online_states = [c for c in self.cpu_states if c.online]
        self._offline_states = [c for c in self.cpu_states if not c.online]

    def fail_cpu(self, index: int) -> list[SimThread]:
        """Take CPU ``index`` offline (simulated hotplug failure).

        Threads pinned to the failed CPU are *drained*: re-pinned to
        the lowest-numbered online CPU through
        :meth:`SimThread.pin_to`, exactly as for any live re-pin.  The
        scheduler is notified via
        :meth:`~repro.sched.base.Scheduler.note_capacity_change`, then
        every registered capacity listener fires.

        From the failure instant the CPU accrues ``offline_us`` instead
        of idle time and is skipped by dispatch rounds.  The CPU's past
        accounting (dispatches, idle, stolen) is retained.  At least
        one CPU must remain online, and — like
        :meth:`kill_thread` — failing a CPU from inside a dispatch
        slice is unsupported; fault plans deliver failures through the
        event calendar, which only fires between rounds.

        Returns the drained (re-pinned) threads.
        """
        if not 0 <= index < self.n_cpus:
            raise SimulationError(
                f"cannot fail CPU {index}: kernel has {self.n_cpus} CPU(s)"
            )
        if self._now_override is not None:
            raise SimulationError(
                f"cannot fail CPU {index} from inside a dispatch round"
            )
        cpu = self.cpu_states[index]
        if not cpu.online:
            raise SimulationError(f"CPU {index} is already offline")
        if len(self._online_states) == 1:
            raise SimulationError(
                f"cannot fail CPU {index}: it is the last online CPU"
            )
        cpu.online = False
        self._rebuild_cpu_partitions()
        target = self._online_states[0].index
        drained: list[SimThread] = []
        displaced: list[tuple[SimThread, int]] = []
        for thread in self._live.values():
            if thread.affinity == index:
                thread.pin_to(target)
                displaced.append((thread, target))
                drained.append(thread)
        self._displaced_pins[index] = displaced
        self.scheduler.note_capacity_change()
        now = self.now
        online = len(self._online_states)
        for listener in self._capacity_listeners:
            listener(now, online)
        return drained

    def recover_cpu(self, index: int) -> list[SimThread]:
        """Bring a failed CPU back online.

        Threads that :meth:`fail_cpu` drained off the CPU are re-pinned
        back to it, provided they are still live and still parked where
        the drain left them (a workload that re-pinned a drained thread
        in the meantime keeps its newer placement).  The scheduler's
        capacity note and the capacity listeners fire as for a failure.

        Returns the threads whose pins were restored.
        """
        if not 0 <= index < self.n_cpus:
            raise SimulationError(
                f"cannot recover CPU {index}: kernel has {self.n_cpus} CPU(s)"
            )
        if self._now_override is not None:
            raise SimulationError(
                f"cannot recover CPU {index} from inside a dispatch round"
            )
        cpu = self.cpu_states[index]
        if cpu.online:
            raise SimulationError(f"CPU {index} is already online")
        cpu.online = True
        self._rebuild_cpu_partitions()
        restored: list[SimThread] = []
        for thread, parked_on in self._displaced_pins.pop(index, []):
            if thread.state.is_live and thread.affinity == parked_on:
                thread.pin_to(index)
                restored.append(thread)
        self.scheduler.note_capacity_change()
        now = self.now
        online = len(self._online_states)
        for listener in self._capacity_listeners:
            listener(now, online)
        return restored

    # ------------------------------------------------------------------
    # periodic helpers / controller overhead hook
    # ------------------------------------------------------------------
    def add_periodic(
        self, period_us: int, callback: Callable[[int], None], start_us: int = 0,
        label: str = "",
    ) -> PeriodicEvent:
        """Run ``callback(now)`` every ``period_us`` microseconds."""
        return PeriodicEvent(self.events, period_us, callback, start=start_us,
                             label=label)

    def steal_cpu(self, us: int) -> None:
        """Consume ``us`` of CPU time that is charged to no thread.

        Used by the controller driver to model the controller's own CPU
        consumption (Figure 5) without representing the controller as a
        full thread.  On a multiprocessor the controller runs on CPU 0
        and — because stealing advances the shared clock — stalls the
        other CPUs for the same interval; their share is accounted as
        idle time so the conservation identity keeps holding.

        Stealing happens between slices (its callers are calendar
        events); a call from inside a slice raises
        :class:`SimulationError`.
        """
        if us < 0:
            raise ValueError(f"cannot steal negative CPU time {us}")
        if self._now_override is not None:
            raise SimulationError("cannot steal CPU time from inside a slice")
        if us == 0:
            return
        self.clock.advance_by(us)
        self.stolen_controller_us += us
        if self.n_cpus > 1:
            online = self._online_states
            for cpu in online[1:]:
                cpu.idle_us += us
            self._idle_us_total += us * (len(online) - 1)
            offline = self._offline_states
            if offline:
                for cpu in offline:
                    cpu.offline_us += us
                self._offline_us_total += us * len(offline)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run_for(self, duration_us: int) -> None:
        """Run the simulation for ``duration_us`` microseconds."""
        self.run_until(self.now + int(duration_us))

    def run_until(self, t_end: int) -> None:
        """Run the simulation until virtual time ``t_end``."""
        if t_end < self.now:
            raise ValueError(
                f"cannot run until {t_end}us, already at {self.now}us"
            )
        # Due events fire only when the calendar head is due: every
        # live event sits at or after the head, so skipping the poll
        # while the head is in the future fires nothing less (a
        # cancelled head is dropped by ``pop_due`` or ``next_time``).
        clock = self.clock
        heap = self.events._heap
        if self.n_cpus == 1:
            # Uniprocessor fast path: one pick per dispatch and no
            # placement.  The slice runs on the slice clock, capped at
            # the next pending event, exactly like one CPU of an SMP
            # round.  Between slices ``self.now`` is exactly
            # ``clock._now``; reading the clock directly skips the
            # property dispatch per iteration.
            cpu0 = self.cpu_states[0]
            scheduler = self.scheduler
            dispatch = self._dispatch
            next_time = self.events.next_time
            while clock._now < t_end:
                now = clock._now
                if heap and heap[0].time <= now:
                    self._fire_due_events()
                    now = clock._now
                    if now >= t_end:
                        break
                thread = scheduler.pick_next(now)
                if thread is None:
                    if not self._advance_idle(t_end):
                        break
                    continue
                cap = next_time()
                if cap is None or cap > t_end:
                    cap = t_end
                self._now_override = now
                dispatch(cpu0, thread, cap)
                clock._now = self._now_override
                self._now_override = None
        else:
            while clock._now < t_end:
                if heap and heap[0].time <= clock._now:
                    self._fire_due_events()
                    if clock._now >= t_end:
                        break
                if not self._dispatch_round(t_end):
                    if not self._advance_idle(t_end):
                        break
        if self.now < t_end:
            self.clock.advance_to(t_end)

    def _fire_due_events(self) -> None:
        while True:
            event = self.events.pop_due(self.now)
            if event is None:
                return
            if not event.cancelled:
                event.callback()

    def _advance_idle(self, t_end: int) -> bool:
        """Advance the clock to the next calendar transition.

        Returns ``False`` when the simulation cannot make further
        progress before ``t_end`` (clock is advanced to ``t_end``).
        All CPUs are idle for the skipped interval.
        """
        transition = self.events.next_transition(self.now)
        if transition is None:
            blocked = [
                t for t in self._live.values() if t.state == ThreadState.BLOCKED
            ]
            if blocked and self.deadlock_detection:
                names = ", ".join(t.name for t in blocked)
                raise DeadlockError(
                    f"no runnable threads, no pending events, and threads "
                    f"[{names}] are blocked with no possible wake-up"
                )
            self._charge_idle(t_end - self.now)
            self.clock.advance_to(t_end)
            return False
        target = min(transition, t_end)
        if target <= self.now:
            # A wake-up is due immediately (e.g. a throttled reservation
            # replenishes right now); let the caller re-run pick_next.
            self.scheduler.refresh(self.now)
            return True
        self._charge_idle(target - self.now)
        self.clock.advance_to(target)
        self.scheduler.refresh(self.now)
        return True

    def _charge_idle(self, us: int) -> None:
        online = self._online_states
        for cpu in online:
            cpu.idle_us += us
        self._idle_us_total += us * len(online)
        offline = self._offline_states
        if offline:
            for cpu in offline:
                cpu.offline_us += us
            self._offline_us_total += us * len(offline)

    # ------------------------------------------------------------------
    # SMP dispatch rounds
    # ------------------------------------------------------------------
    def _dispatch_round(self, t_end: int) -> bool:
        """Run one parallel dispatch window; ``False`` if nothing ran."""
        t0 = self.clock.now
        scheduler = self.scheduler
        scheduler.place_threads(t0)
        picks: list[tuple[CPUState, SimThread]] = []
        idle_cpus: list[CPUState] = []
        for cpu in self._online_states:
            thread = scheduler.pick_next_cpu(cpu.index, t0)
            if thread is None:
                idle_cpus.append(cpu)
                continue
            # Claim immediately so higher-numbered CPUs cannot pick the
            # same thread within this round.
            thread.state = _RUNNING
            picks.append((cpu, thread))
        if not picks:
            return False
        # All CPUs share one window cap, computed before any slice runs,
        # so the round is symmetric across CPUs: events scheduled by one
        # CPU's slice become visible at the next round boundary.
        next_event = self.events.next_time()
        window_cap = t_end if next_event is None else min(next_event, t_end)
        ends: list[int] = []
        window_end = t0
        for cpu, thread in picks:
            self._now_override = t0
            self._dispatch(cpu, thread, window_cap)
            end = self._now_override
            ends.append(end)
            if end > window_end:
                window_end = end
            self._now_override = None
        if window_end > self.clock.now:
            self.clock.advance_to(window_end)
        # CPUs whose thread finished early idle out the rest of the
        # window (timer-quantised re-dispatch, as on the real hardware);
        # CPUs that picked nothing idle the whole window.
        idle_total = self._idle_us_total
        for (cpu, _), end in zip(picks, ends):
            if end < window_end:
                cpu.idle_us += window_end - end
                idle_total += window_end - end
        if idle_cpus:
            span = window_end - t0
            for cpu in idle_cpus:
                cpu.idle_us += span
            idle_total += span * len(idle_cpus)
        self._idle_us_total = idle_total
        offline = self._offline_states
        if offline:
            span = window_end - t0
            for cpu in offline:
                cpu.offline_us += span
            self._offline_us_total += span * len(offline)
        return True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, cpu: CPUState, thread: SimThread, cap: int) -> str:
        """Run one slice of ``thread`` on ``cpu``; returns the outcome.

        The caller starts the slice clock (``_now_override``) at the
        slice's start and reads the slice's end back from it.  The
        slice ends by ``cap`` (the next pending event, or the end of
        the run), or earlier when the scheduler's time slice runs out.

        ``now`` mirrors the slice clock locally: only time charges
        advance it inside a slice (request handlers set states and
        schedule events but never tick), so the mirror stays exact.
        It is written back before every request handler (handlers
        timestamp IPC commits and wake-ups with ``self.now``) and
        naturally at every charge.
        """
        now = self._now_override
        assert now is not None, "a slice runs only on the slice clock"
        dispatch_start = now
        cpu.dispatches += 1
        self._dispatch_count_total += 1

        # Per-dispatch overhead, stolen time (charged to no thread).
        cost = self._dispatch_cost_us
        if cost:
            accumulator = cpu.overhead_accumulator + cost
            whole = int(accumulator)
            if whole > 0:
                accumulator -= whole
                now += whole
                cpu.stolen_dispatch_us += whole
                self._stolen_dispatch_us_total += whole
            cpu.overhead_accumulator = accumulator

        # Migration accounting: charged after the dispatch overhead and
        # before the thread's slice, like the cache refill it models.
        # The penalty is stolen time (charged to no thread).
        migration_us = 0
        if self._track_migrations:
            last = thread.last_cpu
            index = cpu.index
            if last is not None and last != index:
                cpu.migrations += 1
                self._migrations_total += 1
                cost_fn = self._migration_cost
                if cost_fn is not None:
                    migration_us = cost_fn(last, index)
                    if migration_us > 0:
                        now += migration_us
                        cpu.migration_us += migration_us
                        self._migration_us_total += migration_us
            thread.last_cpu = index
        if now != dispatch_start:
            self._now_override = now

        scheduler = self.scheduler
        accounting = thread.accounting
        thread.state = _RUNNING
        accounting.dispatches += 1
        accounting.last_run_started = now

        slice_us = scheduler.time_slice(thread, now)
        if slice_us <= 0:
            slice_us = self.dispatch_interval_us
        horizon = now + slice_us
        if cap < horizon:
            horizon = cap

        consumed = 0
        syscall_cost = self.syscall_cost_us
        outcome = _DispatchOutcome.PREEMPTED
        while now < horizon:
            request = thread._current_request
            if request is None:
                request = self._next_request(thread)
                if request is None:
                    outcome = _DispatchOutcome.EXITED
                    break
            if isinstance(request, Compute):
                remaining = thread._remaining_compute_us
                if remaining > 0:
                    step = horizon - now
                    if remaining < step:
                        step = remaining
                    thread._remaining_compute_us = remaining - step
                    now += step
                    consumed += step
                    self._now_override = now
                if thread._remaining_compute_us == 0:
                    thread._current_request = None
                continue
            # Non-compute requests carry a small syscall cost; charging
            # it before handling also guarantees forward progress for
            # threads that never yield a Compute request.
            if syscall_cost > 0:
                step = horizon - now
                if syscall_cost < step:
                    step = syscall_cost
                now += step
                consumed += step
                self._now_override = now
                if step < syscall_cost:
                    # Not enough slice left to pay for the syscall; the
                    # request stays pending for the next dispatch.
                    break
            outcome = self._handle_request(thread, request)
            if outcome != "continue":
                break
            outcome = _DispatchOutcome.PREEMPTED

        accounting.total_us += consumed
        accounting.run_since_last_block_us += consumed
        scheduler.charge(thread, consumed, now)
        if outcome == "preempted":
            # _finish_dispatch's preempted arm, inlined (the common
            # outcome: ran out of slice or an event is due).
            accounting.preemptions += 1
            thread.state = _READY
            scheduler.on_preempt(thread, now)
        else:
            self._finish_dispatch(thread, outcome)
        log = self.dispatch_log
        if log is not None:
            # The penalty shifted this (and every later) timestamp, so
            # it is part of the record; 0 reads back as a 5-tuple.
            records = log.records
            records += _pack_record(
                dispatch_start, cpu.index, thread.tid,
                OUTCOME_CODE[outcome], consumed, migration_us,
            )
            if len(records) >= FOLD_BYTES:
                log.fold()
        return outcome

    def _finish_dispatch(self, thread: SimThread, outcome: str) -> None:
        """The non-preempted outcomes (``_dispatch`` inlines that one)."""
        acct = thread.accounting
        if outcome == _DispatchOutcome.EXITED:
            # Retired only now: the slice's CPU was charged just before.
            self._retire(thread)
            return
        if outcome == _DispatchOutcome.YIELDED:
            acct.voluntary_switches += 1
            thread.state = _READY
            self.scheduler.on_yield(thread, self.now)
            return
        # blocked or sleeping
        if outcome == _DispatchOutcome.SLEEPING:
            acct.sleeps += 1
        acct.note_block()
        self.scheduler.on_block(thread, self.now)

    def _next_request(self, thread: SimThread) -> Optional[Request]:
        send_value = thread._pending_send
        thread._pending_send = None
        request = thread.advance(send_value)
        if request is None:
            self._exit_thread(thread, status=0)
            return None
        return request

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _handle_request(self, thread: SimThread, request: Request) -> str:
        handler = self._request_handlers.get(type(request))
        if handler is None:
            raise ThreadStateError(
                f"{thread.name}: unsupported request type {type(request).__name__}"
            )
        return handler(thread, request)

    def _handle_yield(self, thread: SimThread, request: Yield) -> str:
        thread.finish_request()
        return _DispatchOutcome.YIELDED

    def _handle_exit(self, thread: SimThread, request: Exit) -> str:
        self._exit_thread(thread, status=request.status)
        return _DispatchOutcome.EXITED

    def _handle_put(self, thread: SimThread, request: Put) -> str:
        channel = request.channel
        if channel.space_free() >= request.nbytes and not channel.put_waiters:
            channel.commit_put(request.nbytes, now=self.now, thread=thread)
            thread.finish_request()
            self._service_get_waiters(channel)
            return "continue"
        channel.put_waiters.append(thread)
        thread.blocked_on = channel
        thread.state = ThreadState.BLOCKED
        return _DispatchOutcome.BLOCKED

    def _handle_get(self, thread: SimThread, request: Get) -> str:
        channel = request.channel
        if channel.bytes_available() >= request.nbytes and not channel.get_waiters:
            channel.commit_get(request.nbytes, now=self.now, thread=thread)
            thread.finish_request()
            thread._pending_send = request.nbytes
            self._service_put_waiters(channel)
            return "continue"
        channel.get_waiters.append(thread)
        thread.blocked_on = channel
        thread.state = ThreadState.BLOCKED
        return _DispatchOutcome.BLOCKED

    def _service_put_waiters(self, channel: "Channel") -> None:
        while channel.put_waiters:
            waiter = channel.put_waiters[0]
            request = waiter.current_request()
            if not isinstance(request, Put):
                raise ThreadStateError(
                    f"{waiter.name}: waiting on a put but current request is "
                    f"{type(request).__name__}"
                )
            if channel.space_free() < request.nbytes:
                return
            channel.put_waiters.popleft()
            channel.commit_put(request.nbytes, now=self.now, thread=waiter)
            waiter.finish_request()
            self._wake(waiter)
            self._service_get_waiters(channel)

    def _service_get_waiters(self, channel: "Channel") -> None:
        while channel.get_waiters:
            waiter = channel.get_waiters[0]
            request = waiter.current_request()
            if not isinstance(request, Get):
                raise ThreadStateError(
                    f"{waiter.name}: waiting on a get but current request is "
                    f"{type(request).__name__}"
                )
            if channel.bytes_available() < request.nbytes:
                return
            channel.get_waiters.popleft()
            channel.commit_get(request.nbytes, now=self.now, thread=waiter)
            waiter.finish_request()
            waiter._pending_send = request.nbytes
            self._wake(waiter)
            self._service_put_waiters(channel)

    def _handle_sleep(self, thread: SimThread, request: Sleep) -> str:
        if request.us == 0:
            thread.finish_request()
            return _DispatchOutcome.YIELDED
        thread.finish_request()
        thread.state = ThreadState.SLEEPING
        wake_at = self.now + request.us

        def _wake_sleeper() -> None:
            thread.wakeup_event = None
            if thread.state == ThreadState.SLEEPING:
                self._wake(thread)

        thread.wakeup_event = self.events.schedule(
            wake_at, _wake_sleeper, label=f"wake:{thread.name}"
        )
        return _DispatchOutcome.SLEEPING

    def _handle_wait_io(self, thread: SimThread, request: WaitIO) -> str:
        thread.finish_request()
        thread.state = ThreadState.BLOCKED
        thread.blocked_on = request.tag or "io"
        wake_at = self.now + request.latency_us

        def _io_complete() -> None:
            thread.wakeup_event = None
            if thread.state == ThreadState.BLOCKED:
                self._wake(thread)

        thread.wakeup_event = self.events.schedule(
            wake_at, _io_complete, label=f"io:{thread.name}"
        )
        return _DispatchOutcome.BLOCKED

    def _handle_acquire(self, thread: SimThread, request: AcquireMutex) -> str:
        mutex = request.mutex
        if mutex.owner is None:
            mutex.owner = thread
            mutex.acquisitions += 1
            thread.finish_request()
            return "continue"
        mutex.waiters.append(thread)
        thread.blocked_on = mutex
        thread.state = ThreadState.BLOCKED
        self.scheduler.on_mutex_block(thread, mutex, self.now)
        return _DispatchOutcome.BLOCKED

    def _handle_release(self, thread: SimThread, request: ReleaseMutex) -> str:
        mutex = request.mutex
        if mutex.owner is not thread:
            raise ThreadStateError(
                f"{thread.name}: releasing mutex {mutex.name!r} it does not hold"
            )
        thread.finish_request()
        self.scheduler.on_mutex_release(thread, mutex, self.now)
        if mutex.waiters:
            successor = mutex.waiters.popleft()
            mutex.owner = successor
            mutex.acquisitions += 1
            successor.finish_request()
            self._wake(successor)
        else:
            mutex.owner = None
        return "continue"

    # ------------------------------------------------------------------
    # wake / exit
    # ------------------------------------------------------------------
    def _wake(self, thread: SimThread) -> None:
        thread.blocked_on = None
        thread.state = _READY
        self.scheduler.on_ready(thread, self.now)

    def _exit_thread(self, thread: SimThread, status: int) -> None:
        thread.state = ThreadState.EXITED
        thread.exit_status = status
        thread.finish_request()
        self.scheduler.remove_thread(thread)
        # Only a running thread needs these; the records keep the rest.
        thread._body = None
        thread._generator = None
        thread._pending_send = None

    def _retire(self, thread: SimThread) -> None:
        """Drop an exited thread from the live table, keeping its CPU.

        Called once the thread's last slice is charged: at the end of
        the exiting dispatch, or by :meth:`kill_thread`.  Only its name
        stays, in :attr:`thread_names`.
        """
        del self._live[thread.tid]
        self._retired_cpu_us += thread.accounting.total_us


__all__ = ["DEFAULT_DISPATCH_INTERVAL_US", "Kernel"]
