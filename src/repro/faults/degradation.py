"""Graceful degradation under lost CPU capacity.

When :meth:`Kernel.fail_cpu` shrinks the machine, the reservations that
were admitted against the old capacity may no longer fit.  The
:class:`DegradationManager` is the policy layer that reconciles them,
escalating in value order — cheapest remedies first:

1. **Squish first.**  All live reservations are scaled proportionally
   (fair-share, floored at the configured minimum) so their total fits
   the post-failure budget.  Nobody loses their reservation; everybody
   runs slower — the multi-CPU analogue of the paper's overload
   squishing.
2. **Shed best-effort.**  If the floors alone still exceed the budget,
   best-effort threads are killed (newest first — they have the least
   sunk work) to stop them competing for the scarce remainder.
3. **Revoke lowest-value reservations.**  As a last resort, the
   smallest reservations are revoked (the thread is demoted to
   best-effort, not killed) until the floors fit.

On recovery the manager re-admits with backoff: a calendar event fires
after ``readmit_backoff_us`` and restores, in descending value order,
whatever fits the recovered budget — first revoked reservations, then
squished originals.  Anything still not fitting reschedules itself with
a doubled (capped) backoff, so capacity flapping cannot thrash the
admission state.

All actuation happens from capacity listeners and calendar events —
never mid-dispatch — so every run sees the identical sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.sched.rbs import ReservationScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel
    from repro.sim.thread import SimThread

#: Default delay before the first re-admission attempt after recovery.
DEFAULT_READMIT_BACKOFF_US = 20_000

#: Ceiling on the doubled re-admission backoff.
DEFAULT_MAX_BACKOFF_US = 160_000

#: Default floor for squished reservations (matches the controller's
#: ``min_proportion_ppt`` default).
DEFAULT_MIN_PPT = 5


@dataclass
class DegradationAction:
    """One remedial step the manager took (for reports and tests)."""

    at_us: int
    action: str  # "squish" | "shed" | "revoke" | "readmit" | "restore"
    thread: str
    before_ppt: int = 0
    after_ppt: int = 0


class DegradationManager:
    """Squish-first / shed / revoke policy bound to a kernel's capacity.

    Registers itself as a capacity listener on construction; CPU
    fail/recover notifications drive everything else.  The manager is
    deliberately independent of the feedback controller: it actuates
    the scheduler directly, the same way the paper's admission control
    sits below the PID loop.
    """

    def __init__(
        self,
        kernel: "Kernel",
        scheduler: ReservationScheduler,
        *,
        min_proportion_ppt: int = DEFAULT_MIN_PPT,
        readmit_backoff_us: int = DEFAULT_READMIT_BACKOFF_US,
        max_backoff_us: int = DEFAULT_MAX_BACKOFF_US,
        on_shed: "Optional[Callable[[SimThread], None]]" = None,
    ) -> None:
        if min_proportion_ppt < 0:
            raise ValueError(
                f"min_proportion_ppt cannot be negative, got {min_proportion_ppt}"
            )
        if readmit_backoff_us <= 0:
            raise ValueError(
                f"readmit_backoff_us must be positive, got {readmit_backoff_us}"
            )
        self.kernel = kernel
        self.scheduler = scheduler
        self.min_proportion_ppt = min_proportion_ppt
        self.readmit_backoff_us = readmit_backoff_us
        self.max_backoff_us = max(max_backoff_us, readmit_backoff_us)
        self._on_shed = on_shed
        #: tid -> original proportion before squishing.
        self._squished: dict[int, int] = {}
        #: tid -> (thread, original ppt, original period) for revocations.
        self._revoked: "dict[int, tuple[SimThread, int, int]]" = {}
        self._backoff_us = readmit_backoff_us
        self._readmit_pending = False
        self._last_online = kernel.online_cpu_count
        #: Everything the manager did, in order.
        self.actions: list[DegradationAction] = []
        kernel.add_capacity_listener(self._on_capacity_change)

    # ------------------------------------------------------------------
    # capacity transitions
    # ------------------------------------------------------------------
    def budget_ppt(self) -> int:
        """Reservation budget at current capacity (full online capacity)."""
        return self.scheduler.capacity_ppt()

    def _on_capacity_change(self, now: int, online_cpus: int) -> None:
        previous = self._last_online
        self._last_online = online_cpus
        if online_cpus < previous:
            self._degrade(now)
        elif online_cpus > previous and (self._squished or self._revoked):
            self._schedule_readmit(now)

    # -- degradation ----------------------------------------------------
    def _live_reservations(self) -> "list[tuple[SimThread, int, int]]":
        """(thread, proportion, period) for every live reservation,
        in registration (tid) order for determinism."""
        entries = []
        for thread in self.scheduler.threads():
            if not thread.state.is_live:
                continue
            reservation = self.scheduler.reservation(thread)
            if reservation is not None and reservation.proportion_ppt > 0:
                entries.append(
                    (thread, reservation.proportion_ppt, reservation.period_us)
                )
        entries.sort(key=lambda entry: entry[0].tid)
        return entries

    def _degrade(self, now: int) -> None:
        budget = self.budget_ppt()
        entries = self._live_reservations()
        total = sum(ppt for _, ppt, _ in entries)
        if total <= budget:
            return

        # 1. Squish: proportional scale, floored.
        floor = self.min_proportion_ppt
        squished_total = 0
        for thread, ppt, period in entries:
            target = max(min(floor, ppt), ppt * budget // total)
            if target != ppt:
                self._squished.setdefault(thread.tid, ppt)
                self.scheduler.set_reservation(thread, target, period, now=now)
                self.actions.append(
                    DegradationAction(now, "squish", thread.name, ppt, target)
                )
            squished_total += target
        if squished_total <= budget:
            return

        # 2. Shed best-effort threads (newest first).  The floors alone
        # oversubscribe the surviving CPUs; best-effort work would only
        # deepen the deficit the reservations are already running at.
        # "Best-effort" includes zero-proportion reservations: under a
        # bare reservation scheduler a RESERVATION-policy thread with no
        # explicit grant parks on a permanent 0-ppt reservation, which
        # is the same slack-only service class.
        def is_best_effort(thread: "SimThread") -> bool:
            reservation = self.scheduler.reservation(thread)
            return reservation is None or reservation.proportion_ppt <= 0

        best_effort = sorted(
            (
                thread
                for thread in self.kernel.threads
                if is_best_effort(thread)
            ),
            key=lambda thread: -thread.tid,
        )
        for thread in best_effort:
            self.actions.append(DegradationAction(now, "shed", thread.name))
            if self._on_shed is not None:
                self._on_shed(thread)
            self.kernel.kill_thread(thread)

        # 3. Revoke lowest-value reservations until the rest fit.
        survivors = self._live_reservations()
        remaining = sum(ppt for _, ppt, _ in survivors)
        for thread, ppt, period in sorted(
            survivors, key=lambda entry: (entry[1], entry[0].tid)
        ):
            if remaining <= budget:
                break
            original_ppt = self._squished.pop(thread.tid, ppt)
            self._revoked[thread.tid] = (thread, original_ppt, period)
            self.scheduler.clear_reservation(thread)
            self.actions.append(
                DegradationAction(now, "revoke", thread.name, ppt, 0)
            )
            remaining -= ppt

    # -- recovery / re-admission ----------------------------------------
    def _schedule_readmit(self, now: int) -> None:
        if self._readmit_pending:
            return
        self._readmit_pending = True
        self.kernel.events.schedule(
            now + self._backoff_us, self._readmit, label="degradation:readmit"
        )

    def _readmit(self) -> None:
        self._readmit_pending = False
        now = self.kernel.now
        budget = self.budget_ppt()
        reserved = self.scheduler.total_reserved_ppt()

        # Revoked reservations first, most valuable first: they lost
        # everything, squished threads still run with a reservation.
        for tid, (thread, ppt, period) in sorted(
            self._revoked.items(), key=lambda item: (-item[1][1], item[0])
        ):
            if not thread.state.is_live or not self.scheduler.has_thread(thread):
                del self._revoked[tid]
                continue
            if reserved + ppt > budget:
                continue
            self.scheduler.set_reservation(thread, ppt, period, now=now)
            reserved += ppt
            del self._revoked[tid]
            self.actions.append(
                DegradationAction(now, "readmit", thread.name, 0, ppt)
            )

        # Then un-squish, most valuable first, as far as the budget goes.
        for tid, original in sorted(
            self._squished.items(), key=lambda item: (-item[1], item[0])
        ):
            thread = next(
                (t for t in self.scheduler.threads() if t.tid == tid), None
            )
            if thread is None or not thread.state.is_live:
                del self._squished[tid]
                continue
            reservation = self.scheduler.reservation(thread)
            if reservation is None:
                # Lost its reservation some other way; nothing to restore.
                del self._squished[tid]
                continue
            headroom = budget - reserved
            target = min(original, reservation.proportion_ppt + headroom)
            if target > reservation.proportion_ppt:
                before = reservation.proportion_ppt
                self.scheduler.set_reservation(
                    thread, target, reservation.period_us, now=now
                )
                reserved += target - before
                self.actions.append(
                    DegradationAction(now, "restore", thread.name, before, target)
                )
            if target >= original:
                del self._squished[tid]

        if self._squished or self._revoked:
            # Not everything fit: back off (doubling, capped) and retry.
            self._backoff_us = min(self._backoff_us * 2, self.max_backoff_us)
            self._schedule_readmit(now)
        else:
            self._backoff_us = self.readmit_backoff_us

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_restorations(self) -> int:
        """Reservations still awaiting full restoration."""
        return len(self._squished) + len(self._revoked)


__all__ = [
    "DEFAULT_MAX_BACKOFF_US",
    "DEFAULT_MIN_PPT",
    "DEFAULT_READMIT_BACKOFF_US",
    "DegradationAction",
    "DegradationManager",
]
