"""Turns a :class:`~repro.faults.plan.FaultPlan` into calendar events.

Every fault actuates through the :class:`~repro.sim.events.EventCalendar`
— the same mechanism the workload engine uses for arrivals and phase
scripts — because calendar events fire between dispatches at exact
virtual times: a CPU failing at t=50ms always lands between the same
two dispatches.

Three fault families:

* **CPU hotplug** — :data:`~repro.faults.plan.CPU_FAIL` /
  :data:`~repro.faults.plan.CPU_RECOVER` delegate to
  :meth:`Kernel.fail_cpu` / :meth:`Kernel.recover_cpu`.
* **Thread misbehaviour** — runaway (a compute loop that stops
  honouring think time) and stall (a hang) are implemented by swapping
  the victim's behaviour generator for a :class:`_HijackedBody` that
  fabricates requests.  IPC payloads delivered during the fault window
  are stashed and re-delivered when the real body is restored, so a
  *recovered* thread resumes exactly where it left off.
* **Controller sensor faults** — dropout and corruption windows wrap
  the victim's :class:`~repro.monitor.progress.ProgressSampler` in a
  :class:`FaultySensor` via the allocator's sampler accessors.

The injector never acts synchronously: :meth:`FaultInjector.install`
only schedules.  That means a victim is never RUNNING when hijacked
(events fire between dispatches), which is what makes the generator
swap safe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Generator, Optional, cast

from repro.core.errors import ControllerError
from repro.faults.errors import FaultInjectionError
from repro.faults.plan import (
    CPU_FAIL,
    CPU_RECOVER,
    RUNAWAY_START,
    RUNAWAY_STOP,
    SENSOR_CORRUPT,
    SENSOR_DROPOUT,
    STALL_START,
    STALL_STOP,
    FaultEvent,
    FaultPlan,
)
from repro.monitor.progress import PressureSample, ProgressSampler
from repro.sim.requests import Compute, Request, Sleep

if TYPE_CHECKING:  # pragma: no cover
    from repro.ipc.registry import Linkage
    from repro.sim.kernel import Kernel
    from repro.sim.thread import SimThread

    from repro.core.allocator import ProportionAllocator

#: Compute-burst length a runaway thread issues per advance.  Short
#: enough that preemption/accounting stay fine-grained, long enough not
#: to swamp the calendar.
RUNAWAY_BURST_US = 1_000

#: Sleep length a stalled thread issues per advance (it must keep
#: yielding *something* or the kernel would consider it exited).
STALL_PROBE_US = 5_000


class _FaultBox:
    """Shared state between a hijack and its eventual restore.

    ``pending_send`` stashes an IPC payload the kernel delivered while
    the fault was active (at most one can be outstanding: the real
    generator is parked at a single ``yield``), so the restore can hand
    it to the real body instead of losing it.
    """

    __slots__ = ("has_pending", "original", "pending_send")

    def __init__(self, original: Generator[Request, Any, None]) -> None:
        self.original = original
        self.pending_send: Any = None
        self.has_pending = False


class _HijackedBody:
    """Stand-in generator driving a runaway or stalled thread.

    Quacks like the slice of the generator protocol
    :meth:`SimThread.advance` uses (``send``/``throw``/``close``).  It
    never raises ``StopIteration``: a faulted thread cannot exit, which
    keeps restore-on-live-thread a total operation.
    """

    __slots__ = ("box", "chunk_us", "mode")

    def __init__(self, box: _FaultBox, mode: str, chunk_us: int) -> None:
        self.box = box
        self.mode = mode
        self.chunk_us = chunk_us

    def send(self, value: Any) -> Request:
        if value is not None:
            # An IPC payload arrived mid-fault; park it for the real
            # body, which is still waiting at its yield point.
            self.box.pending_send = value
            self.box.has_pending = True
        if self.mode == "runaway":
            return Compute(self.chunk_us)
        return Sleep(self.chunk_us)

    def throw(self, *exc_info: Any) -> Request:  # pragma: no cover - protocol
        raise exc_info[0]

    def close(self) -> None:  # pragma: no cover - protocol
        pass


class FaultySensor(ProgressSampler):
    """A progress sampler lying on behalf of a sensor-fault window.

    Subclasses :class:`ProgressSampler` (so it slots into the
    allocator's typed sampler field) but delegates to the wrapped
    ``inner`` sampler:

    * ``dropout`` — :meth:`sample` returns ``None``, the same signal a
      metric-less thread produces; the controller falls back to zero
      pressure for the window.
    * ``corrupt`` — seeded uniform noise in ``[-magnitude, +magnitude]``
      is added to the raw pressure (the summed R·F signal the PID
      consumes); per-channel values keep their true readings so traces
      show the corruption.
    """

    def __init__(
        self,
        inner: ProgressSampler,
        mode: str,
        rng: random.Random,
        magnitude: float = 0.0,
    ) -> None:
        super().__init__(inner.thread, inner.registry, setpoint=inner.setpoint)
        if mode not in ("dropout", "corrupt"):
            raise FaultInjectionError(f"unknown sensor fault mode {mode!r}")
        self.inner = inner
        self.mode = mode
        self.magnitude = magnitude
        self._rng = rng

    def linkages(self) -> "list[Linkage]":
        return self.inner.linkages()

    def sample(self) -> Optional[PressureSample]:
        if self.mode == "dropout":
            return None
        sample = self.inner.sample()
        if sample is None:
            return None
        noise = (self._rng.random() * 2.0 - 1.0) * self.magnitude
        return replace(sample, raw=sample.raw + noise)


@dataclass(frozen=True)
class InjectionRecord:
    """One line of the injector's log: what fired and what it did."""

    at_us: int
    kind: str
    detail: str
    hit: bool = True


class FaultInjector:
    """Schedules a plan's faults and actuates them at fire time.

    Parameters
    ----------
    kernel:
        The simulation to hurt.
    plan:
        The declarative fault schedule.
    allocator:
        Required when the plan contains sensor faults (the sampler
        accessors live on the allocator); otherwise optional.
    """

    def __init__(
        self,
        kernel: "Kernel",
        plan: FaultPlan,
        *,
        allocator: "Optional[ProportionAllocator]" = None,
    ) -> None:
        self.kernel = kernel
        self.plan = plan
        self.allocator = allocator
        #: Chronological record of every fault firing (and every miss).
        self.log: list[InjectionRecord] = []
        self._rng = random.Random(plan.seed)
        self._hijacked: dict[int, _FaultBox] = {}
        self._faulty_sensors: dict[int, FaultySensor] = {}
        self._installed = False

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Schedule every plan event (plus auto-derived stop events)."""
        if self._installed:
            raise FaultInjectionError("fault plan is already installed")
        self._installed = True
        for event in self.plan.events:
            if (
                event.kind in (SENSOR_DROPOUT, SENSOR_CORRUPT)
                and self.allocator is None
            ):
                raise FaultInjectionError(
                    f"{event.kind} at t={event.at_us} needs an allocator "
                    "(sensor faults wrap the controller's samplers)"
                )
            self.kernel.events.schedule(
                event.at_us,
                lambda event=event: self._fire(event),
                label=f"fault:{event.kind}",
            )
            stop = self._derived_stop(event)
            if stop is not None:
                self.kernel.events.schedule(
                    stop.at_us,
                    lambda stop=stop: self._fire(stop),
                    label=f"fault:{stop.kind}",
                )

    @staticmethod
    def _derived_stop(event: FaultEvent) -> Optional[FaultEvent]:
        """The implicit stop/recover a windowed start event implies."""
        if event.duration_us is None:
            return None
        end = event.at_us + event.duration_us
        if event.kind == CPU_FAIL:
            return FaultEvent(at_us=end, kind=CPU_RECOVER, cpu=event.cpu)
        if event.kind == RUNAWAY_START:
            return FaultEvent(at_us=end, kind=RUNAWAY_STOP, thread=event.thread)
        if event.kind == STALL_START:
            return FaultEvent(at_us=end, kind=STALL_STOP, thread=event.thread)
        # Sensor windows restore through a dedicated closure bound to
        # the exact sensor they installed; handled in _fire.
        return None

    # ------------------------------------------------------------------
    # fire-time actuation
    # ------------------------------------------------------------------
    def _note(self, kind: str, detail: str, *, hit: bool = True) -> None:
        self.log.append(
            InjectionRecord(at_us=self.kernel.now, kind=kind, detail=detail, hit=hit)
        )

    def _resolve(self, name: Optional[str]) -> "Optional[SimThread]":
        """First live thread with ``name``, in creation order."""
        for thread in self.kernel.threads:
            if thread.name == name:
                return thread
        return None

    def _fire(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == CPU_FAIL:
            self._fire_cpu_fail(event)
        elif kind == CPU_RECOVER:
            self._fire_cpu_recover(event)
        elif kind in (RUNAWAY_START, STALL_START):
            self._fire_hijack(event)
        elif kind in (RUNAWAY_STOP, STALL_STOP):
            self._fire_restore(event)
        else:
            self._fire_sensor(event)

    def _fire_cpu_fail(self, event: FaultEvent) -> None:
        cpu = event.cpu
        assert cpu is not None
        if not self.kernel.cpu_is_online(cpu):
            self._note(event.kind, f"cpu{cpu} already offline", hit=False)
            return
        drained = self.kernel.fail_cpu(cpu)
        names = ",".join(t.name for t in drained) or "-"
        self._note(event.kind, f"cpu{cpu} failed, drained [{names}]")

    def _fire_cpu_recover(self, event: FaultEvent) -> None:
        cpu = event.cpu
        assert cpu is not None
        if self.kernel.cpu_is_online(cpu):
            self._note(event.kind, f"cpu{cpu} already online", hit=False)
            return
        restored = self.kernel.recover_cpu(cpu)
        names = ",".join(t.name for t in restored) or "-"
        self._note(event.kind, f"cpu{cpu} recovered, re-pinned [{names}]")

    def _fire_hijack(self, event: FaultEvent) -> None:
        thread = self._resolve(event.thread)
        if thread is None:
            self._note(event.kind, f"no live thread named {event.thread!r}", hit=False)
            return
        if thread.tid in self._hijacked:
            self._note(event.kind, f"{thread.name} already hijacked", hit=False)
            return
        generator = thread._generator
        if generator is None:
            self._note(
                event.kind, f"{thread.name} has no behaviour generator", hit=False
            )
            return
        if event.kind == RUNAWAY_START:
            mode, chunk = "runaway", RUNAWAY_BURST_US
        else:
            mode, chunk = "stall", STALL_PROBE_US
        box = _FaultBox(generator)
        thread._generator = cast(
            Generator[Request, Any, None], _HijackedBody(box, mode, chunk)
        )
        self._hijacked[thread.tid] = box
        self._note(event.kind, f"{thread.name} hijacked ({mode})")

    def _fire_restore(self, event: FaultEvent) -> None:
        thread = self._resolve(event.thread)
        if thread is None:
            self._note(event.kind, f"no live thread named {event.thread!r}", hit=False)
            return
        box = self._hijacked.pop(thread.tid, None)
        if box is None:
            self._note(event.kind, f"{thread.name} not hijacked", hit=False)
            return
        thread._generator = box.original
        if box.has_pending:
            # Re-deliver the payload intercepted mid-fault; the kernel
            # hands _pending_send to the next advance, which resumes
            # the real body at the yield that asked for it.
            thread._pending_send = box.pending_send
        self._note(event.kind, f"{thread.name} restored")

    def _fire_sensor(self, event: FaultEvent) -> None:
        allocator = self.allocator
        assert allocator is not None  # enforced at install time
        assert event.duration_us is not None
        thread = self._resolve(event.thread)
        if thread is None:
            self._note(event.kind, f"no live thread named {event.thread!r}", hit=False)
            return
        if thread.tid in self._faulty_sensors:
            self._note(
                event.kind, f"{thread.name} sensor already faulted", hit=False
            )
            return
        try:
            inner = allocator.sampler_for(thread)
        except ControllerError:
            self._note(event.kind, f"{thread.name} is not controlled", hit=False)
            return
        mode = "dropout" if event.kind == SENSOR_DROPOUT else "corrupt"
        faulty = FaultySensor(inner, mode, self._rng, magnitude=event.magnitude)
        allocator.set_sampler(thread, faulty)
        self._faulty_sensors[thread.tid] = faulty
        self._note(event.kind, f"{thread.name} sensor {mode} begins")
        self.kernel.events.schedule(
            self.kernel.now + event.duration_us,
            lambda: self._restore_sensor(thread, faulty, event.kind),
            label=f"fault:{event.kind}:end",
        )

    def _restore_sensor(
        self, thread: "SimThread", faulty: FaultySensor, kind: str
    ) -> None:
        allocator = self.allocator
        assert allocator is not None
        current = self._faulty_sensors.get(thread.tid)
        if current is not faulty:
            self._note(kind, f"{thread.name} sensor already restored", hit=False)
            return
        del self._faulty_sensors[thread.tid]
        if not thread.state.is_live:
            self._note(kind, f"{thread.name} exited during sensor fault", hit=False)
            return
        try:
            if allocator.sampler_for(thread) is faulty:
                allocator.set_sampler(thread, faulty.inner)
        except ControllerError:
            self._note(kind, f"{thread.name} no longer controlled", hit=False)
            return
        self._note(kind, f"{thread.name} sensor restored")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def hits(self) -> int:
        """Number of log entries that actuated (vs missed)."""
        return sum(1 for record in self.log if record.hit)


__all__ = [
    "FaultInjector",
    "FaultySensor",
    "InjectionRecord",
    "RUNAWAY_BURST_US",
    "STALL_PROBE_US",
]
