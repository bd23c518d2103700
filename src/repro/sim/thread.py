"""Simulated threads.

A :class:`SimThread` couples a behaviour (a generator yielding
:mod:`repro.sim.requests` objects) with the bookkeeping a scheduler and
the feedback controller need: its run state, CPU accounting, scheduling
parameters (proportion/period/importance/priority) and run/block
statistics used by the heuristics for miscellaneous and interactive
threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.sim.errors import ThreadStateError
from repro.sim.requests import Compute, Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

#: Type of a thread body: a callable taking the environment and
#: returning a generator of requests.
ThreadBody = Callable[["ThreadEnv"], Generator[Request, Any, None]]


class ThreadState(enum.Enum):
    """Lifecycle states of a simulated thread."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"
    THROTTLED = "throttled"
    EXITED = "exited"

    @property
    def is_runnable(self) -> bool:
        """Whether the thread may be picked by the dispatcher."""
        return self in (ThreadState.READY, ThreadState.RUNNING)

    @property
    def is_live(self) -> bool:
        """Whether the thread still exists from the scheduler's view."""
        return self is not ThreadState.EXITED


class SchedulingPolicy(enum.Enum):
    """Which low-level scheduling class a thread belongs to.

    Mirrors the paper's prototype, where threads explicitly register
    with the reservation-based scheduler (RBS) and all other threads
    remain under the stock Linux policy.
    """

    RESERVATION = "reservation"
    BEST_EFFORT = "best_effort"


@dataclass
class CpuAccounting:
    """Per-thread CPU usage accounting.

    ``total_us`` is lifetime CPU consumed.  ``dispatches`` counts how
    many times the dispatcher selected this thread.  The run/block
    statistics feed the heuristic the paper uses for threads without a
    progress metric: "measuring the amount of time they typically run
    before blocking".
    """

    total_us: int = 0
    dispatches: int = 0
    preemptions: int = 0
    voluntary_switches: int = 0
    blocks: int = 0
    sleeps: int = 0
    last_run_started: Optional[int] = None
    run_before_block_ema_us: float = 0.0
    run_since_last_block_us: int = 0

    #: Exponential-moving-average weight for run-before-block samples.
    EMA_ALPHA: float = 0.25

    def charge(self, us: int) -> None:
        """Add ``us`` microseconds of consumed CPU."""
        self.total_us += us
        self.run_since_last_block_us += us

    def note_block(self) -> None:
        """Record a voluntary block and fold the run length into the EMA."""
        self.blocks += 1
        sample = float(self.run_since_last_block_us)
        if self.run_before_block_ema_us == 0.0:
            self.run_before_block_ema_us = sample
        else:
            alpha = self.EMA_ALPHA
            self.run_before_block_ema_us = (
                alpha * sample + (1.0 - alpha) * self.run_before_block_ema_us
            )
        self.run_since_last_block_us = 0


@dataclass
class ThreadEnv:
    """The view of the system a thread body receives.

    Provides read-only access to the clock and the owning thread, plus
    a handle to the kernel for non-blocking introspection (e.g. queue
    fill levels).  Blocking operations must go through ``yield``.
    """

    kernel: "Kernel"
    thread: "SimThread"

    @property
    def now(self) -> int:
        """Current virtual time in microseconds."""
        return self.kernel.now


class SimThread:
    """A simulated thread of control.

    Parameters
    ----------
    name:
        Human-readable identifier used in traces and error messages.
    body:
        Callable producing the thread's behaviour generator.  ``None``
        creates an *external* thread whose behaviour is driven by the
        test (useful for unit-testing schedulers in isolation).
    policy:
        Low-level scheduling class (reservation vs best-effort).
    priority:
        Fixed priority used by the priority-scheduler baseline (higher
        is more important).
    nice:
        Unix nice value used by the Linux-goodness baseline.
    tickets:
        Ticket count used by the lottery-scheduler baseline.
    importance:
        Weight used by the controller's weighted-fair-share squishing.
    affinity:
        Optional CPU index this thread is pinned to on a multiprocessor
        kernel.  ``None`` (the default) lets the scheduler's placement
        policy migrate the thread freely; see :meth:`pin_to`.
    """

    _next_tid = 1

    def __init__(
        self,
        name: str,
        body: Optional[ThreadBody] = None,
        *,
        policy: SchedulingPolicy = SchedulingPolicy.RESERVATION,
        priority: int = 0,
        nice: int = 0,
        tickets: int = 100,
        importance: float = 1.0,
        affinity: Optional[int] = None,
    ) -> None:
        self.tid = SimThread._next_tid
        SimThread._next_tid += 1
        self.name = name
        self.policy = policy
        self.priority = priority
        self.nice = nice
        self.tickets = tickets
        self.importance = importance
        self._env: Optional[ThreadEnv] = None
        self.affinity: Optional[int] = None
        if affinity is not None:
            self.pin_to(affinity)

        self.state = ThreadState.NEW
        self.accounting = CpuAccounting()
        self.exit_status: Optional[int] = None
        #: CPU index of this thread's most recent dispatch (``None``
        #: until first dispatched).  Maintained by the kernel on
        #: multiprocessor kernels: migration counters compare it to the
        #: dispatching CPU, and the cache-warm placement policy prefers
        #: it (then its SMT sibling, then its socket).
        self.last_cpu: Optional[int] = None

        #: Arbitrary per-scheduler state (each scheduler keys by its own name).
        self.sched_data: dict[str, Any] = {}

        self._body = body
        self._generator: Optional[Generator[Request, Any, None]] = None
        self._current_request: Optional[Request] = None
        self._remaining_compute_us = 0
        self._pending_send: Any = None
        self.blocked_on: Optional[object] = None
        self.wakeup_event: Optional[object] = None

    # ------------------------------------------------------------------
    # identity / debugging
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimThread(tid={self.tid}, name={self.name!r}, state={self.state.value})"

    def pin_to(self, cpu: Optional[int]) -> None:
        """Pin this thread to CPU ``cpu`` (``None`` removes the pin).

        Placement policies never migrate a pinned thread; on a
        single-CPU kernel a pin to CPU 0 is a no-op.  Once the thread
        is bound to a kernel the pin is validated against its CPU
        count, matching the check :meth:`Kernel.add_thread` applies to
        threads pinned before they are added.
        """
        if cpu is not None:
            if cpu < 0:
                raise ValueError(
                    f"{self.name}: CPU affinity cannot be negative, got {cpu}"
                )
            if self._env is not None and cpu >= self._env.kernel.n_cpus:
                raise ValueError(
                    f"{self.name}: cannot pin to CPU {cpu}, the kernel has "
                    f"only {self._env.kernel.n_cpus} CPU(s)"
                )
            if self._env is not None and not self._env.kernel.cpu_is_online(cpu):
                raise ValueError(
                    f"{self.name}: cannot pin to CPU {cpu}, it is offline "
                    "(failed)"
                )
        changed = cpu != self.affinity
        self.affinity = cpu
        if changed and self._env is not None:
            # A live re-pin changes placement eligibility.
            self._env.kernel.scheduler.note_affinity_change(self)

    def __hash__(self) -> int:
        return hash(self.tid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimThread) and other.tid == self.tid

    # ------------------------------------------------------------------
    # lifecycle driven by the kernel
    # ------------------------------------------------------------------
    def bind(self, env: ThreadEnv) -> None:
        """Instantiate the behaviour generator against ``env``.

        Called by the kernel when the thread is added to the system.
        External threads (``body=None``) skip this and must have their
        requests injected via :meth:`inject_request`.
        """
        self._env = env
        if self._body is not None:
            self._generator = self._body(env)
        self.state = ThreadState.READY

    def inject_request(self, request: Request) -> None:
        """Force the thread's next request (testing hook for external threads)."""
        if self._current_request is not None and self._remaining_compute_us > 0:
            raise ThreadStateError(
                f"{self.name}: cannot inject a request while one is in progress"
            )
        self._set_current(request)

    def _set_current(self, request: Request) -> None:
        self._current_request = request
        if isinstance(request, Compute):
            self._remaining_compute_us = request.us
        else:
            self._remaining_compute_us = 0

    def advance(self, send_value: Any = None) -> Optional[Request]:
        """Advance the generator to obtain the next request.

        Returns ``None`` when the generator is exhausted (the thread has
        exited).  Raises :class:`ThreadStateError` if called on a thread
        without a behaviour generator.
        """
        if self._generator is None:
            raise ThreadStateError(
                f"{self.name}: external thread has no behaviour generator"
            )
        try:
            request = self._generator.send(send_value)
        except StopIteration:
            self._current_request = None
            self._remaining_compute_us = 0
            return None
        if not isinstance(request, Request):
            raise ThreadStateError(
                f"{self.name}: thread body yielded {request!r}, "
                "expected a repro.sim.requests.Request"
            )
        self._set_current(request)
        return request

    def current_request(self) -> Optional[Request]:
        """The request the thread is currently executing, if any."""
        return self._current_request

    def finish_request(self) -> None:
        """Mark the current request complete (kernel bookkeeping)."""
        self._current_request = None
        self._remaining_compute_us = 0


__all__ = [
    "CpuAccounting",
    "SchedulingPolicy",
    "SimThread",
    "ThreadBody",
    "ThreadEnv",
    "ThreadState",
]
