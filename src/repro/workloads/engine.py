"""The open-system workload engine.

Everything the repository simulated before this module was a *closed*
system: every thread existed before ``run()`` and survived to the
horizon.  :class:`WorkloadEngine` opens the system — an
:class:`~repro.workloads.arrivals.ArrivalProcess` injects new threads
into a *running* kernel, jobs run a finite demand and exit, and a
:class:`PhaseScript` retimes or retargets live threads (service-demand
changes, arrival-rate changes, CPU re-pins, forced kills, reservation
re-sizes) at scripted virtual times.

The churn contract
------------------
Every path that mutates the dispatchable set funnels through the
scheduler hooks (``Scheduler.add_thread`` / ``remove_thread`` on
spawn/exit, ``Scheduler.note_affinity_change`` on re-pins,
``set_reservation`` on re-sizes), and arrivals and phase actions are
ordinary calendar events that fire between dispatches.  A fixed seed
therefore reproduces the dispatch log bit for bit under churn —
enforced by ``tests/test_properties_churn.py`` and the golden-trace
corpus under ``tests/golden/``.

Jobs
----
One arrival spawns one thread from a :class:`JobTemplate`: a finite
compute demand (``total_cpu_us``) consumed in ``burst_us`` chunks,
optionally sleeping (``think_us``) and/or waiting on simulated I/O
(``io_latency_us``) between chunks, then exiting.  Template fields are
read *live*, each loop iteration, so a phase script mutating a
template retimes the jobs already running, not just future arrivals.
Templates carry either a controller :class:`ThreadSpec` (real-time
specs go through admission-on-arrival via
:meth:`ProportionAllocator.would_admit`; a rejected arrival is counted
and never spawned) or a direct scheduler ``reservation`` for
controller-less kernels.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Union

from repro.sim.errors import SimulationError
from repro.sim.requests import Compute, Sleep, WaitIO
from repro.sim.thread import SchedulingPolicy, SimThread
from repro.workloads.arrivals import ArrivalProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.allocator import ProportionAllocator
    from repro.core.taxonomy import ThreadSpec
    from repro.sim.kernel import Kernel

#: Template pin: a fixed CPU, a function of the job index, or None.
PinSpec = Union[None, int, Callable[[int], int]]


class WorkloadError(SimulationError):
    """The workload engine was driven inconsistently."""


@dataclass
class JobTemplate:
    """Mutable description of the thread one arrival spawns.

    Timing fields (``total_cpu_us``, ``burst_us``, ``think_us``,
    ``io_latency_us``) are read by running job bodies on every loop
    iteration, so mutating them — directly or through
    :meth:`PhaseScript.retime` — retargets live jobs as well as future
    arrivals.

    ``spec`` registers each job with the system's controller
    (:class:`~repro.core.taxonomy.ThreadSpec`; real-time specs face
    admission-on-arrival).  ``reservation`` is the controller-less
    alternative: a ``(proportion_ppt, period_us)`` pair actuated
    directly on a reservation scheduler (ignored by the baseline
    schedulers, which have no reservations).  ``pin`` pins each job to
    a CPU: a fixed index or a callable of the job index (e.g.
    ``lambda i: i % 4``).
    """

    name: str
    total_cpu_us: int = 5_000
    burst_us: int = 1_000
    think_us: int = 0
    io_latency_us: int = 0
    spec: Optional["ThreadSpec"] = None
    reservation: Optional[tuple[int, int]] = None
    pin: PinSpec = None
    priority: int = 0
    nice: int = 0
    tickets: int = 100
    importance: float = 1.0

    #: Fields a phase script may retime.
    MUTABLE_FIELDS = ("total_cpu_us", "burst_us", "think_us", "io_latency_us")

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        if self.total_cpu_us < 1:
            raise WorkloadError(
                f"template {self.name!r}: total_cpu_us must be >= 1, "
                f"got {self.total_cpu_us}"
            )
        if self.burst_us < 1:
            raise WorkloadError(
                f"template {self.name!r}: burst_us must be >= 1, "
                f"got {self.burst_us}"
            )
        if self.think_us < 0 or self.io_latency_us < 0:
            raise WorkloadError(
                f"template {self.name!r}: think_us/io_latency_us cannot be "
                f"negative"
            )

    def retime(self, **fields: int) -> None:
        """Mutate timing fields (live jobs see the change immediately).

        All-or-nothing: a rejected retime leaves the template exactly
        as it was (live job bodies read these fields mid-flight, so a
        partially-applied invalid update must never be observable).
        """
        for key in fields:
            if key not in self.MUTABLE_FIELDS:
                raise WorkloadError(
                    f"template {self.name!r}: {key!r} is not retimable; "
                    f"allowed: {self.MUTABLE_FIELDS}"
                )
        rollback = {key: getattr(self, key) for key in fields}
        for key, value in fields.items():
            setattr(self, key, int(value))
        try:
            self._validate()
        except WorkloadError:
            for key, value in rollback.items():
                setattr(self, key, value)
            raise

    def resolve_pin(self, index: int) -> Optional[int]:
        """The CPU the ``index``-th job is pinned to (or ``None``)."""
        if callable(self.pin):
            return int(self.pin(index))
        return self.pin


#: The three ways a job leaves the bookkeeping.
JOB_OUTCOMES = ("completed", "killed", "rejected")
_OUTCOME_CODE = {name: code for code, name in enumerate(JOB_OUTCOMES)}
_COMPLETED = _OUTCOME_CODE["completed"]


@dataclass(frozen=True, slots=True)
class JobRecord:
    """One job's lifetime, recorded when it leaves the system.

    ``tag`` is the arrival tag that selected the template (or the
    template's name for untagged streams), so downstream analysis can
    group sojourn percentiles by job class.  ``outcome`` is one of
    :data:`JOB_OUTCOMES`: ``completed`` (ran its full demand),
    ``killed`` (forced out mid-run) or ``rejected`` (denied admission
    — no thread ever existed; ``end_us == spawn_us``).  Only
    ``completed`` records carry a meaningful sojourn.
    """

    stream: str
    index: int
    tag: str
    spawn_us: int
    end_us: int
    outcome: str

    @property
    def sojourn_us(self) -> int:
        """Arrival-to-exit latency (0 for rejected arrivals)."""
        return self.end_us - self.spawn_us

    def to_dict(self) -> dict:
        """JSON-safe wire form (the record schema the report reads)."""
        return {
            "stream": self.stream,
            "index": self.index,
            "tag": self.tag,
            "spawn_us": self.spawn_us,
            "end_us": self.end_us,
            "outcome": self.outcome,
            "sojourn_us": self.sojourn_us,
        }


class JobRecords:
    """One stream's job records, in departure order, as typed columns.

    An open-system run records one job per arrival, so the records are
    stored unboxed: ``array("q")`` columns for the job index, spawn and
    end times, an ``array("B")`` of :data:`JOB_OUTCOMES` codes and an
    ``array("I")`` of codes into the stream's tag table.  Readers
    (iteration, indexing) build one :class:`JobRecord` per record on
    access; appending builds none.
    """

    __slots__ = ("stream", "_index", "_tag", "_spawn", "_end", "_outcome",
                 "_tags", "_tag_code")

    def __init__(self, stream: str) -> None:
        self.stream = stream
        self._index: array[int] = array("q")
        self._tag: array[int] = array("I")
        self._spawn: array[int] = array("q")
        self._end: array[int] = array("q")
        self._outcome: array[int] = array("B")
        #: Tag by code, and code by tag.
        self._tags: list[str] = []
        self._tag_code: dict[str, int] = {}

    def append(self, index: int, tag: str, spawn_us: int, end_us: int,
               outcome: str) -> None:
        """Record one departed job."""
        code = self._tag_code.get(tag)
        if code is None:
            code = self._tag_code[tag] = len(self._tags)
            self._tags.append(tag)
        self._index.append(index)
        self._tag.append(code)
        self._spawn.append(spawn_us)
        self._end.append(end_us)
        self._outcome.append(_OUTCOME_CODE[outcome])

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, i: int) -> JobRecord:
        return JobRecord(
            self.stream, self._index[i], self._tags[self._tag[i]],
            self._spawn[i], self._end[i], JOB_OUTCOMES[self._outcome[i]],
        )

    def __iter__(self) -> Iterator[JobRecord]:
        return map(self.__getitem__, range(len(self)))

    def completed_sojourns_us(self) -> list[int]:
        """Sojourn times of completed jobs, in completion order."""
        return [
            end - spawn
            for spawn, end, outcome in zip(self._spawn, self._end, self._outcome)
            if outcome == _COMPLETED
        ]

    def latest_completed_sojourns_us(self, count: int) -> list[int]:
        """The sojourns of the last ``count`` completed jobs (fewer if
        fewer completed), newest first."""
        window: list[int] = []
        spawn, end, outcome = self._spawn, self._end, self._outcome
        for i in range(len(outcome) - 1, -1, -1):
            if outcome[i] == _COMPLETED:
                window.append(end[i] - spawn[i])
                if len(window) >= count:
                    break
        return window


@dataclass
class JobStream:
    """One arrival process feeding one (or a tag map of) template(s).

    Bookkeeping is in job counts: ``spawned`` (threads created),
    ``rejected`` (arrivals denied admission — no thread was created),
    ``completed`` (ran their full demand and exited), ``killed``
    (forced out by a phase script).  ``records`` holds one record per
    job that left the system (completed, killed or rejected), in
    departure order, as :class:`JobRecords` columns that read back as
    :class:`JobRecord` objects — the raw material for per-tag sojourn
    percentiles and response curves.
    """

    name: str
    template: JobTemplate
    arrivals: ArrivalProcess
    templates: Mapping[str, JobTemplate] = field(default_factory=dict)
    max_arrivals: Optional[int] = None
    stop_us: Optional[int] = None

    spawned: int = 0
    rejected: int = 0
    completed: int = 0
    killed: int = 0
    records: JobRecords = field(init=False)
    #: Job index -> live thread, in spawn order.
    live: dict[int, SimThread] = field(default_factory=dict)
    #: Job index -> (tag, spawn time) for live jobs, finalized into a
    #: record when the job leaves.
    inflight: dict[int, tuple[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.records = JobRecords(self.name)

    def arrivals_seen(self) -> int:
        """Arrivals processed so far (spawned + rejected)."""
        return self.spawned + self.rejected

    def template_for(self, tag: Optional[str]) -> JobTemplate:
        """The template a tagged arrival spawns from."""
        if tag is None:
            return self.template
        template = self.templates.get(tag)
        if template is None:
            raise WorkloadError(
                f"stream {self.name!r}: arrival tag {tag!r} has no template; "
                f"known tags: {sorted(self.templates)}"
            )
        return template

    def completed_sojourns_us(self) -> list[int]:
        """Sojourn times of completed jobs, in completion order."""
        return self.records.completed_sojourns_us()

    def mean_sojourn_us(self) -> float:
        """Mean completed-job sojourn time.

        ``nan`` when no job ever completed — a stream that never
        finished anything must not masquerade as one with zero
        latency.
        """
        sojourns = self.completed_sojourns_us()
        if not sojourns:
            return float("nan")
        return sum(sojourns) / len(sojourns)


class WorkloadEngine:
    """Injects arrival-driven thread churn into a running kernel.

    Parameters
    ----------
    kernel:
        The kernel to inject into.  Arrivals become calendar events on
        its :class:`~repro.sim.events.EventCalendar`, so an arrival
        caps the running slice exactly like any other event.
    allocator:
        Optional controller.  When given, jobs whose template carries a
        ``spec`` are registered with it (real-time specs go through
        admission-on-arrival and may be *rejected*: counted, never
        spawned).  Reclaim is the system's normal path — an exiting
        job's reservation is released by the scheduler immediately and
        the controller drops its state on the next tick.
    """

    def __init__(
        self,
        kernel: "Kernel",
        *,
        allocator: Optional["ProportionAllocator"] = None,
    ) -> None:
        self.kernel = kernel
        self.allocator = allocator
        self.streams: list[JobStream] = []
        self._started = False

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def add_stream(
        self,
        name: str,
        arrivals: ArrivalProcess,
        template: JobTemplate,
        *,
        templates: Optional[Mapping[str, JobTemplate]] = None,
        max_arrivals: Optional[int] = None,
        stop_us: Optional[int] = None,
    ) -> JobStream:
        """Register an arrival stream (before or after :meth:`start`).

        ``max_arrivals`` bounds how many arrivals are processed;
        ``stop_us`` discards arrivals scheduled after that virtual
        time.  Streams added after :meth:`start` begin immediately.
        """
        if any(s.name == name for s in self.streams):
            raise WorkloadError(f"stream {name!r} already exists")
        all_templates = dict(templates or {})
        for tmpl in [template, *all_templates.values()]:
            if tmpl.spec is not None and self.allocator is None:
                raise WorkloadError(
                    f"stream {name!r}: template {tmpl.name!r} carries a "
                    f"controller spec but the engine has no allocator"
                )
        stream = JobStream(
            name=name,
            template=template,
            arrivals=arrivals,
            templates=all_templates,
            max_arrivals=max_arrivals,
            stop_us=stop_us,
        )
        self.streams.append(stream)
        if self._started:
            self._launch(stream)
        return stream

    def stream(self, name: str) -> JobStream:
        """Look up a stream by name."""
        for stream in self.streams:
            if stream.name == name:
                return stream
        raise WorkloadError(
            f"no stream named {name!r}; known: {[s.name for s in self.streams]}"
        )

    def start(self, script: Optional["PhaseScript"] = None) -> None:
        """Begin injecting arrivals (and install ``script`` if given)."""
        if self._started:
            raise WorkloadError("workload engine already started")
        self._started = True
        for stream in self.streams:
            self._launch(stream)
        if script is not None:
            script.install(self)

    # ------------------------------------------------------------------
    # arrival plumbing
    # ------------------------------------------------------------------
    def _launch(self, stream: JobStream) -> None:
        schedule = stream.arrivals.schedule(self.kernel.now)
        self._arm_next(stream, schedule)

    def _arm_next(self, stream: JobStream, schedule) -> None:
        if (
            stream.max_arrivals is not None
            and stream.arrivals_seen() >= stream.max_arrivals
        ):
            return
        try:
            at_us, tag = next(schedule)
        except StopIteration:
            return
        if stream.stop_us is not None and at_us > stream.stop_us:
            return

        def _arrive() -> None:
            self._spawn(stream, tag, self.kernel.now)
            self._arm_next(stream, schedule)

        self.kernel.events.schedule(at_us, _arrive, label=f"arrival:{stream.name}")

    def _spawn(
        self, stream: JobStream, tag: Optional[str], now: int
    ) -> Optional[SimThread]:
        template = stream.template_for(tag)
        index = stream.arrivals_seen()
        name = f"{stream.name}.{index}"
        pin = template.resolve_pin(index)
        if (
            pin is not None
            and 0 <= pin < self.kernel.n_cpus
            and not self.kernel.cpu_is_online(pin)
        ):
            # The pinned CPU is offline (failed): park the arrival on
            # the lowest online CPU, mirroring the kernel's drain
            # semantics for threads displaced by ``fail_cpu``.  An
            # out-of-range pin still raises — that is a configuration
            # error, not a degraded machine.
            pin = self.kernel.online_cpu_indices()[0]
        spec = template.spec
        record_tag = tag if tag is not None else template.name
        if (
            spec is not None
            and spec.specifies_proportion
            and self.allocator is not None
            and not self.allocator.would_admit(
                spec.proportion_ppt, affinity=pin, name=name
            )
        ):
            # Admission-on-arrival: a denied real-time job never enters
            # the system (no thread is created, no tid is consumed by
            # the scheduler).
            stream.rejected += 1
            stream.records.append(index, record_tag, now, now, "rejected")
            return None
        # Jobs with neither a controller spec nor a direct reservation
        # are best-effort: under a bare reservation scheduler the
        # default RESERVATION policy would park them on a permanent
        # zero-proportion reservation (it is the controller that raises
        # those), so they would never run.
        policy = (
            SchedulingPolicy.RESERVATION
            if spec is not None or template.reservation is not None
            else SchedulingPolicy.BEST_EFFORT
        )
        thread = SimThread(
            name,
            self._make_body(stream, template, index, now),
            policy=policy,
            priority=template.priority,
            nice=template.nice,
            tickets=template.tickets,
            importance=template.importance,
            affinity=pin,
        )
        self.kernel.add_thread(thread)
        if spec is not None and self.allocator is not None:
            self.allocator.register(thread, spec)
        elif template.reservation is not None:
            set_reservation = getattr(self.kernel.scheduler, "set_reservation", None)
            if set_reservation is not None:
                set_reservation(thread, *template.reservation)
        stream.spawned += 1
        stream.live[index] = thread
        stream.inflight[index] = (record_tag, now)
        return thread

    def _make_body(
        self, stream: JobStream, template: JobTemplate, index: int, spawned_at: int
    ):
        def body(env):
            consumed = 0
            while True:
                # Template fields are read live so a phase script's
                # retime reshapes jobs already in flight.
                target = template.total_cpu_us
                if consumed >= target:
                    break
                step = target - consumed
                burst = template.burst_us
                if burst < step:
                    step = burst
                yield Compute(step)
                consumed += step
                if consumed >= template.total_cpu_us:
                    break
                think = template.think_us
                if think > 0:
                    yield Sleep(think)
                latency = template.io_latency_us
                if latency > 0:
                    yield WaitIO(latency, tag=stream.name)
            # Natural completion (runs as the generator finishes, at
            # the exiting dispatch's exact virtual time).
            stream.completed += 1
            stream.live.pop(index, None)
            tag, spawn_us = stream.inflight.pop(index)
            stream.records.append(index, tag, spawn_us, env.now, "completed")

        return body

    # ------------------------------------------------------------------
    # live-job actions (used directly and by PhaseScript)
    # ------------------------------------------------------------------
    def _victims(
        self, stream: JobStream, count: Optional[int]
    ) -> list[tuple[int, SimThread]]:
        victims = list(stream.live.items())
        if count is not None:
            victims = victims[:count]
        return victims

    def kill(self, stream: JobStream, count: Optional[int] = None) -> int:
        """Force-exit up to ``count`` live jobs (oldest first; all by
        default).  Returns how many were actually killed.

        A job only leaves ``live`` tracking *counted*: on a successful
        :meth:`Kernel.kill_thread` it is counted (and recorded) as
        killed.  ``kill_thread`` returning ``False`` means the thread
        had already exited — natural completion removes its own
        ``live`` entry at the exiting dispatch, and the engine never
        runs between taking the victim snapshot and killing, so a
        ``False`` victim can only be a thread force-killed *outside*
        the engine (``kernel.kill_thread`` called directly).  Such a
        job did not complete; it is accounted as killed rather than
        silently dropped.
        """
        killed = 0
        now = self.kernel.now
        for index, thread in self._victims(stream, count):
            if self.kernel.kill_thread(thread):
                killed += 1
            # else: the victim is EXITED yet still live-tracked.
            # Natural completion pops its own ``live`` entry at the
            # exiting dispatch, and no simulation runs between the
            # victim snapshot above and this call, so a ``False`` here
            # can only be a thread force-killed outside the engine
            # (``kernel.kill_thread`` called directly).  It did not
            # complete — account it as killed either way, so
            # spawned == completed + killed + live stays true.
            stream.killed += 1
            stream.live.pop(index, None)
            tag, spawn_us = stream.inflight.pop(index)
            stream.records.append(index, tag, spawn_us, now, "killed")
        return killed

    def repin(self, stream: JobStream, cpu: Optional[int],
              count: Optional[int] = None) -> int:
        """Re-pin up to ``count`` live jobs to ``cpu`` (``None`` unpins)."""
        moved = 0
        for _, thread in self._victims(stream, count):
            thread.pin_to(cpu)
            moved += 1
        return moved

    def set_reservation(
        self,
        stream: JobStream,
        proportion_ppt: int,
        period_us: int,
        count: Optional[int] = None,
    ) -> int:
        """Re-size live jobs' reservations (reservation schedulers only)."""
        set_reservation = getattr(self.kernel.scheduler, "set_reservation", None)
        if set_reservation is None:
            raise WorkloadError(
                f"scheduler {type(self.kernel.scheduler).__name__} has no "
                f"reservations to re-size"
            )
        changed = 0
        for _, thread in self._victims(stream, count):
            set_reservation(thread, proportion_ppt, period_us)
            changed += 1
        return changed

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def spawned_total(self) -> int:
        return sum(s.spawned for s in self.streams)

    def rejected_total(self) -> int:
        return sum(s.rejected for s in self.streams)

    def completed_total(self) -> int:
        return sum(s.completed for s in self.streams)

    def killed_total(self) -> int:
        return sum(s.killed for s in self.streams)

    def live_total(self) -> int:
        return sum(len(s.live) for s in self.streams)

    def records(self) -> list[JobRecord]:
        """Every stream's job records, in stream order.

        Departure order within a stream is preserved; for a global
        departure order sort by ``end_us`` (ties by stream then index).
        """
        out: list[JobRecord] = []
        for stream in self.streams:
            out.extend(stream.records)
        return out

    def mean_sojourn_us(self) -> float:
        """Mean sojourn across all completed jobs of all streams.

        ``nan`` when no job of any stream ever completed (see
        :meth:`JobStream.mean_sojourn_us`).
        """
        total = 0
        count = 0
        for stream in self.streams:
            for sojourn in stream.completed_sojourns_us():
                total += sojourn
                count += 1
        if count == 0:
            return float("nan")
        return total / count


class PhaseScript:
    """Scripted retiming/retargeting of a running workload.

    Actions are scheduled as one-shot calendar events at absolute
    virtual times when the script is installed (``engine.start(script)``
    or :meth:`install`), so they are ordinary kernel transitions.
    Equal-time actions fire in the order they were added (the
    calendar's sequence numbers guarantee it).
    """

    def __init__(self) -> None:
        self._actions: list[tuple[int, str, Callable[["WorkloadEngine", int], None]]] = []
        self._installed = False

    def at(
        self,
        at_us: int,
        action: Callable[["WorkloadEngine", int], None],
        label: str = "phase",
    ) -> "PhaseScript":
        """Run ``action(engine, now)`` at virtual time ``at_us``."""
        if at_us < 0:
            raise WorkloadError(f"phase action time cannot be negative: {at_us}")
        if self._installed:
            raise WorkloadError("phase script already installed")
        self._actions.append((int(at_us), label, action))
        return self

    # -- declarative helpers (all return self for chaining) ------------
    def retime(self, at_us: int, template: JobTemplate, **fields: int) -> "PhaseScript":
        """Mutate a template's timing fields at ``at_us`` (live jobs too)."""
        return self.at(
            at_us,
            lambda engine, now: template.retime(**fields),
            label=f"retime:{template.name}",
        )

    def set_rate(
        self, at_us: int, arrivals: ArrivalProcess, rate_per_s: float
    ) -> "PhaseScript":
        """Change an arrival process's rate at ``at_us``."""
        return self.at(
            at_us,
            lambda engine, now: arrivals.set_rate(rate_per_s),
            label="set_rate",
        )

    def kill(
        self, at_us: int, stream: JobStream, count: Optional[int] = None
    ) -> "PhaseScript":
        """Force-exit live jobs of ``stream`` at ``at_us``."""
        return self.at(
            at_us,
            lambda engine, now: engine.kill(stream, count),
            label=f"kill:{stream.name}",
        )

    def repin(
        self,
        at_us: int,
        stream: JobStream,
        cpu: Optional[int],
        count: Optional[int] = None,
    ) -> "PhaseScript":
        """Re-pin live jobs of ``stream`` to ``cpu`` at ``at_us``."""
        return self.at(
            at_us,
            lambda engine, now: engine.repin(stream, cpu, count),
            label=f"repin:{stream.name}",
        )

    def set_reservation(
        self,
        at_us: int,
        stream: JobStream,
        proportion_ppt: int,
        period_us: int,
        count: Optional[int] = None,
    ) -> "PhaseScript":
        """Re-size live jobs' reservations at ``at_us``."""
        return self.at(
            at_us,
            lambda engine, now: engine.set_reservation(
                stream, proportion_ppt, period_us, count
            ),
            label=f"reserve:{stream.name}",
        )

    # ------------------------------------------------------------------
    def install(self, engine: "WorkloadEngine") -> None:
        """Schedule every action on the engine's kernel calendar."""
        if self._installed:
            raise WorkloadError("phase script already installed")
        self._installed = True
        kernel = engine.kernel
        now = kernel.now
        stale = [at_us for at_us, _, _ in self._actions if at_us < now]
        if stale:
            # A mid-run install must not silently shift the scripted
            # timeline: an already-past action would fire "now" instead
            # of at its scripted time.
            raise WorkloadError(
                f"phase actions at {stale} are already in the past "
                f"(virtual time is {now})"
            )
        for at_us, label, action in self._actions:

            def _fire(action=action) -> None:
                action(engine, kernel.now)

            kernel.events.schedule(at_us, _fire, label=label)


def dispatch_fingerprint(kernel: "Kernel") -> str:
    """SHA-256 digest of the kernel's full dispatch log.

    Requires ``Kernel(record_dispatches=True)``.  Two runs have equal
    fingerprints iff their `(time, cpu, thread, outcome, consumed)`
    dispatch sequences are identical — the conformance check behind the
    golden-trace corpus and the engine-differential scenario tests.
    See :meth:`repro.sim.dispatch_log.DispatchLog.fingerprint` for the
    hashed bytes.
    """
    log = kernel.dispatch_log
    if log is None:
        raise WorkloadError(
            "dispatch fingerprint needs Kernel(record_dispatches=True)"
        )
    return log.fingerprint()


__all__ = [
    "JOB_OUTCOMES",
    "JobRecord",
    "JobRecords",
    "JobStream",
    "JobTemplate",
    "PhaseScript",
    "WorkloadEngine",
    "WorkloadError",
    "dispatch_fingerprint",
]
