"""Reservation watchdog: detect runaway and stalled threads.

A second feedback loop alongside the paper's PID controller.  The PID
loop adjusts *how much* CPU a thread gets; the watchdog decides whether
the thread still deserves a reservation at all.  It samples coarse,
observable signals — deadline misses and CPU/block deltas — on a
periodic calendar tick and quarantines misbehaving reservations:

* **Runaway** — the thread burns its whole budget and still wants more
  (its reservation records a deadline miss every period), while never
  blocking or sleeping.  A healthy pipeline thread parks on its queues;
  a runaway's compute loop never does.
* **Stalled** — the thread holds a reservation but consumed zero CPU
  for several consecutive windows.  Its reserved capacity is pure
  waste until it wakes.

Quarantine demotes the thread to best-effort
(:meth:`~repro.sched.rbs.ReservationScheduler.clear_reservation`), so a
runaway can no longer displace well-behaved reservations — it competes
with the best-effort class only.  Each quarantine schedules a
re-promotion calendar event after a backoff that doubles per offense
(capped), restoring the original reservation if the thread still
exists.  A repeat offender is simply re-caught on the same evidence and
sits out a longer window each time.

Detection thresholds are deliberately conservative (several consecutive
windows) so bursty-but-honest threads never trip them; see the
``runaway_quarantine`` experiment for the calibrated behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sched.rbs import ReservationScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.allocator import ProportionAllocator
    from repro.core.taxonomy import ThreadSpec
    from repro.sim.kernel import Kernel
    from repro.sim.thread import SimThread

#: Default watchdog sampling period: 20 ms (two controller periods).
DEFAULT_WATCHDOG_PERIOD_US = 20_000

#: Consecutive miss windows before a runaway verdict.
DEFAULT_MISS_WINDOWS = 3

#: Consecutive zero-progress windows before a stall verdict.
DEFAULT_STALL_WINDOWS = 4

#: First quarantine length; doubles per offense.
DEFAULT_QUARANTINE_US = 50_000

#: Ceiling on the doubled quarantine length.
DEFAULT_MAX_QUARANTINE_US = 400_000


@dataclass
class _ThreadWindow:
    """Last tick's counters for one watched reservation."""

    deadline_misses: int = 0
    total_us: int = 0
    parks: int = 0  # blocks + sleeps
    miss_streak: int = 0
    stall_streak: int = 0


@dataclass
class QuarantineRecord:
    """One quarantine episode (exposed for reports and tests)."""

    tid: int
    name: str
    verdict: str  # "runaway" | "stalled"
    quarantined_at_us: int
    release_at_us: int
    offense: int
    proportion_ppt: int
    period_us: int
    released: bool = False
    repromoted: bool = False


class Watchdog:
    """Periodic misbehaviour detector with quarantine and re-promotion.

    Parameters
    ----------
    kernel, scheduler:
        The simulation and its reservation scheduler.
    allocator:
        Optional.  When given, a quarantined thread is also unregistered
        from the feedback controller (and re-registered with its
        original spec on release) so the controller cannot immediately
        re-grant the reservation the watchdog just revoked.
    period_us, miss_windows, stall_windows:
        Sampling period and consecutive-window thresholds.
    quarantine_us, max_quarantine_us:
        Backoff schedule for quarantine lengths.
    """

    def __init__(
        self,
        kernel: "Kernel",
        scheduler: ReservationScheduler,
        *,
        allocator: "Optional[ProportionAllocator]" = None,
        period_us: int = DEFAULT_WATCHDOG_PERIOD_US,
        miss_windows: int = DEFAULT_MISS_WINDOWS,
        stall_windows: int = DEFAULT_STALL_WINDOWS,
        quarantine_us: int = DEFAULT_QUARANTINE_US,
        max_quarantine_us: int = DEFAULT_MAX_QUARANTINE_US,
        start_us: Optional[int] = None,
    ) -> None:
        if period_us <= 0:
            raise ValueError(f"watchdog period must be positive, got {period_us}")
        if miss_windows <= 0 or stall_windows <= 0:
            raise ValueError("detection windows must be positive")
        if quarantine_us <= 0:
            raise ValueError(
                f"quarantine length must be positive, got {quarantine_us}"
            )
        self.kernel = kernel
        self.scheduler = scheduler
        self.allocator = allocator
        self.period_us = period_us
        self.miss_windows = miss_windows
        self.stall_windows = stall_windows
        self.quarantine_us = quarantine_us
        self.max_quarantine_us = max(max_quarantine_us, quarantine_us)
        self._windows: dict[int, _ThreadWindow] = {}
        self._offenses: dict[int, int] = {}
        self._quarantined: dict[int, QuarantineRecord] = {}
        #: Every quarantine ever issued, chronological.
        self.history: list[QuarantineRecord] = []
        first = period_us if start_us is None else start_us
        self._periodic = kernel.add_periodic(
            period_us, self._tick, start_us=first, label="watchdog"
        )

    def stop(self) -> None:
        """Cancel the periodic tick (quarantine releases still fire)."""
        self._periodic.stop()

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def _tick(self, now: int) -> None:
        seen: set[int] = set()
        for thread in self.scheduler.threads():
            if not thread.state.is_live or thread.tid in self._quarantined:
                continue
            reservation = self.scheduler.reservation(thread)
            if reservation is None or reservation.proportion_ppt <= 0:
                self._windows.pop(thread.tid, None)
                continue
            seen.add(thread.tid)
            window = self._windows.get(thread.tid)
            misses = reservation.deadline_misses
            total = thread.accounting.total_us
            parks = thread.accounting.blocks + thread.accounting.sleeps
            if window is None:
                # First observation: just baseline the counters.
                self._windows[thread.tid] = _ThreadWindow(misses, total, parks)
                continue
            missed = misses > window.deadline_misses
            parked = parks > window.parks
            ran = total > window.total_us
            if missed and not parked:
                window.miss_streak += 1
            else:
                window.miss_streak = 0
            if not ran:
                window.stall_streak += 1
            else:
                window.stall_streak = 0
            window.deadline_misses = misses
            window.total_us = total
            window.parks = parks
            if window.miss_streak >= self.miss_windows:
                self._quarantine(thread, reservation.proportion_ppt,
                                 reservation.period_us, "runaway", now)
            elif window.stall_streak >= self.stall_windows:
                self._quarantine(thread, reservation.proportion_ppt,
                                 reservation.period_us, "stalled", now)
        # Drop state for threads that exited or lost their reservation.
        for tid in [t for t in self._windows if t not in seen]:
            del self._windows[tid]

    # ------------------------------------------------------------------
    # quarantine / re-promotion
    # ------------------------------------------------------------------
    def _controlled_spec(self, thread: "SimThread") -> "Optional[ThreadSpec]":
        """The allocator spec for ``thread``, if it is under control."""
        if self.allocator is None:
            return None
        # Imported here: repro.monitor must stay importable without
        # repro.core (the allocator imports this package's progress
        # module, so a module-level import would be circular).
        from repro.core.errors import ControllerError

        try:
            return self.allocator.spec_for(thread)
        except ControllerError:
            return None

    def _quarantine(
        self, thread: "SimThread", ppt: int, period_us: int, verdict: str, now: int
    ) -> None:
        offense = self._offenses.get(thread.tid, 0) + 1
        self._offenses[thread.tid] = offense
        length = min(
            self.quarantine_us * (2 ** (offense - 1)), self.max_quarantine_us
        )
        record = QuarantineRecord(
            tid=thread.tid,
            name=thread.name,
            verdict=verdict,
            quarantined_at_us=now,
            release_at_us=now + length,
            offense=offense,
            proportion_ppt=ppt,
            period_us=period_us,
        )
        spec = self._controlled_spec(thread)
        if spec is not None and self.allocator is not None:
            # Unregistering clears the reservation *and* stops the PID
            # loop from re-granting it next tick.
            self.allocator.unregister(thread)
        else:
            self.scheduler.clear_reservation(thread)
        self._windows.pop(thread.tid, None)
        self._quarantined[thread.tid] = record
        self.history.append(record)
        self.kernel.events.schedule(
            record.release_at_us,
            lambda: self._release(thread, record, spec),
            label=f"watchdog:release:{thread.name}",
        )

    def _release(
        self,
        thread: "SimThread",
        record: QuarantineRecord,
        spec: "Optional[ThreadSpec]",
    ) -> None:
        self._quarantined.pop(record.tid, None)
        record.released = True
        if not thread.state.is_live or not self.scheduler.has_thread(thread):
            return
        if self.allocator is not None and spec is not None:
            from repro.core.errors import AdmissionError

            try:
                self.allocator.register(thread, spec)
            except AdmissionError:
                # Capacity shrank while it sat out; stay best-effort.
                return
        else:
            self.scheduler.set_reservation(
                thread,
                record.proportion_ppt,
                record.period_us,
                now=self.kernel.now,
            )
        record.repromoted = True
        # Fresh baseline next tick; a still-runaway thread re-trips
        # after the usual number of windows and serves a longer term.

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def quarantine_count(self) -> int:
        """Total quarantine episodes issued so far."""
        return len(self.history)


__all__ = [
    "DEFAULT_MAX_QUARANTINE_US",
    "DEFAULT_MISS_WINDOWS",
    "DEFAULT_QUARANTINE_US",
    "DEFAULT_STALL_WINDOWS",
    "DEFAULT_WATCHDOG_PERIOD_US",
    "QuarantineRecord",
    "Watchdog",
]
