"""Kernel error- and edge-path tests.

Covers the less-travelled paths of :mod:`repro.sim.kernel` and
:mod:`repro.sim.events`: deadlock detection with mutual blocking (on
one CPU and on several), releasing a mutex the thread does not hold,
event cancellation interleaved with re-scheduling under ``pop_due``,
the zero-length sleep that must behave as a yield, and how the
dispatch loop treats the calendar head (cancelled heads, same-time
events, events scheduled at ``now`` from a callback).
"""

import pytest

from repro.ipc.bounded_buffer import BoundedBuffer
from repro.ipc.mutex import Mutex
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.errors import DeadlockError, ThreadStateError
from repro.sim.events import EventQueue
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Get, Put, ReleaseMutex, Sleep


def make_kernel(n_cpus=1, **kwargs):
    kwargs.setdefault("charge_dispatch_overhead", False)
    kwargs.setdefault("syscall_cost_us", 0)
    return Kernel(RoundRobinScheduler(), n_cpus=n_cpus, **kwargs)


class TestDeadlockEdges:
    def _mutually_blocked(self, kernel):
        # Two producers into full buffers that nobody ever drains.
        q1 = BoundedBuffer("q1", 100)
        q2 = BoundedBuffer("q2", 100)

        def blocked_producer(queue):
            def body(env):
                yield Put(queue, 100)   # fills the buffer
                yield Put(queue, 100)   # blocks forever
            return body

        kernel.spawn("p1", blocked_producer(q1))
        kernel.spawn("p2", blocked_producer(q2))

    def test_mutual_block_raises_with_all_names(self):
        kernel = make_kernel()
        self._mutually_blocked(kernel)
        with pytest.raises(DeadlockError) as exc:
            kernel.run_for(10_000)
        assert "p1" in str(exc.value) and "p2" in str(exc.value)

    def test_mutual_block_raises_on_smp_too(self):
        kernel = make_kernel(n_cpus=2)
        self._mutually_blocked(kernel)
        with pytest.raises(DeadlockError):
            kernel.run_for(10_000)

    def test_sleeper_prevents_deadlock_verdict(self):
        # A sleeping thread means a future wake-up exists: no deadlock.
        kernel = make_kernel()
        queue = BoundedBuffer("q", 100)

        def consumer(env):
            yield Get(queue, 100)

        def sleeper(env):
            yield Sleep(50_000)

        kernel.spawn("consumer", consumer)
        kernel.spawn("sleeper", sleeper)
        kernel.run_for(20_000)  # < wake-up: idles, must not raise
        assert kernel.now == 20_000


class TestMutexMisuse:
    def test_release_unheld_mutex_raises(self):
        kernel = make_kernel()
        mutex = Mutex("m")

        def rogue(env):
            yield Compute(100)
            yield ReleaseMutex(mutex)

        kernel.spawn("rogue", rogue)
        with pytest.raises(ThreadStateError, match="does not hold"):
            kernel.run_for(10_000)

    def test_release_mutex_held_by_other_thread_raises(self):
        kernel = make_kernel()
        mutex = Mutex("m")
        # Mark the mutex as held by another (idle) thread.
        holder = kernel.spawn("holder", lambda env: iter(()))
        mutex.owner = holder

        def thief(env):
            yield ReleaseMutex(mutex)

        kernel.spawn("thief", thief)
        with pytest.raises(ThreadStateError, match="does not hold"):
            kernel.run_for(10_000)


class TestEventQueueCancellationUnderPopDue:
    def test_cancel_then_reschedule_fires_once_at_new_time(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule(100, lambda: fired.append("old"))
        event.cancel()
        queue.schedule(200, lambda: fired.append("new"))

        # Nothing due at the cancelled event's time.
        assert queue.pop_due(150) is None
        popped = queue.pop_due(250)
        assert popped is not None
        popped.callback()
        assert fired == ["new"]
        assert queue.pop_due(1_000) is None

    def test_cancel_mid_drain_skips_only_cancelled(self):
        queue = EventQueue()
        fired = []
        a = queue.schedule(10, lambda: fired.append("a"))
        b = queue.schedule(20, lambda: fired.append("b"))
        c = queue.schedule(30, lambda: fired.append("c"))

        first = queue.pop_due(100)
        first.callback()
        b.cancel()  # cancel while the queue is being drained
        while (event := queue.pop_due(100)) is not None:
            if not event.cancelled:
                event.callback()
        assert fired == ["a", "c"]

    def test_reschedule_same_time_preserves_fifo_with_cancellation(self):
        queue = EventQueue()
        fired = []
        a = queue.schedule(50, lambda: fired.append("a"))
        queue.schedule(50, lambda: fired.append("b"))
        a.cancel()
        queue.schedule(50, lambda: fired.append("a2"))
        while (event := queue.pop_due(50)) is not None:
            if not event.cancelled:
                event.callback()
        assert fired == ["b", "a2"]

    def test_len_and_next_time_after_cancel_reschedule_cycles(self):
        queue = EventQueue()
        for _ in range(3):
            event = queue.schedule(10, lambda: None)
            event.cancel()
            assert queue.next_time() is None
            assert len(queue) == 0
        queue.schedule(5, lambda: None)
        assert queue.next_time() == 5
        assert len(queue) == 1


class TestZeroLengthSleep:
    def test_sleep_zero_yields_instead_of_sleeping(self):
        kernel = Kernel(
            RoundRobinScheduler(),
            charge_dispatch_overhead=False,
            syscall_cost_us=1,
        )
        progress = []

        def yielder(env):
            for _ in range(3):
                yield Sleep(0)
                progress.append(env.now)

        def spinner(env):
            while True:
                yield Compute(500)

        t = kernel.spawn("yielder", yielder)
        kernel.spawn("spinner", spinner)
        kernel.run_for(20_000)
        # The zero-sleeps completed (the thread was not parked forever)…
        assert len(progress) == 3
        assert t.state.value == "exited"
        # …and were accounted as voluntary yields, not sleeps.
        assert t.accounting.sleeps == 0
        assert t.accounting.voluntary_switches >= 3
        # No wake-up event was ever scheduled for a zero sleep.
        assert t.wakeup_event is None


@pytest.mark.parametrize("n_cpus", [1, 4])
class TestCalendarHead:
    """What the dispatch loop does with the event calendar's head.

    One hog under a 10 ms round-robin slice, so a slice ends early only
    where a live calendar event cuts it.
    """

    def _kernel(self, n_cpus):
        return Kernel(
            RoundRobinScheduler(slice_us=10_000), n_cpus=n_cpus,
            charge_dispatch_overhead=False, syscall_cost_us=0,
            record_dispatches=True,
        )

    def test_cancelled_head_not_yet_due_does_not_cut_the_slice(self, n_cpus):
        kernel = self._kernel(n_cpus)
        kernel.spawn("hog", lambda env: (yield Compute(1_000_000)))
        fired = []
        kernel.events.schedule(3_000, lambda: fired.append("cancelled")).cancel()
        kernel.events.schedule(5_000, lambda: fired.append(("live", kernel.now)))
        kernel.run_for(12_000)
        assert fired == [("live", 5_000)]
        assert kernel.dispatch_log == [
            (0, 0, "hog", "preempted", 5_000),
            (5_000, 0, "hog", "preempted", 7_000),
        ]

    def test_cancelled_due_head_with_live_twin_fires_the_twin_once(self, n_cpus):
        kernel = self._kernel(n_cpus)
        fired = []
        doomed = kernel.events.schedule(5_000, lambda: fired.append("cancelled"))
        kernel.events.schedule(5_000, lambda: fired.append(("live", kernel.now)))

        def body(env):
            yield Compute(2_000)
            # Cancelled after the slice was cut at 5 ms, so the dead
            # event is still the calendar head when 5 ms is due.
            doomed.cancel()
            yield Compute(1_000_000)

        kernel.spawn("hog", body)
        kernel.run_for(12_000)
        assert fired == [("live", 5_000)]
        assert kernel.dispatch_log == [
            (0, 0, "hog", "preempted", 5_000),
            (5_000, 0, "hog", "preempted", 7_000),
        ]

    def test_event_scheduled_at_now_fires_before_the_next_pick(self, n_cpus):
        kernel = self._kernel(n_cpus)
        victim = kernel.spawn("victim", lambda env: (yield Compute(1_000_000)))
        fired = []

        def kill() -> None:
            fired.append(("kill", kernel.now))
            kernel.kill_thread(victim)

        def arm() -> None:
            fired.append(("arm", kernel.now))
            kernel.events.schedule(kernel.now, kill)

        kernel.events.schedule(5_000, arm)
        kernel.run_for(12_000)
        assert fired == [("arm", 5_000), ("kill", 5_000)]
        # Had the kill waited for the next iteration, the victim would
        # have been picked again at 5 ms.
        assert kernel.dispatch_log == [(0, 0, "victim", "preempted", 5_000)]
