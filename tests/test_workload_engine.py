"""Unit tests for the open-system workload engine.

Covers the arrival processes (determinism, live rate changes, trace
parsing), the engine's spawn/complete/reject/kill bookkeeping, the
phase-script actions, and the kernel/scheduler churn contract they
depend on (``Kernel.kill_thread``, the affinity-change hook,
``ProportionAllocator.would_admit``).
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.taxonomy import ThreadSpec
from repro.ipc.bounded_buffer import BoundedBuffer
from repro.sched.rbs import ReservationScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.errors import SimulationError
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Get, Put, Sleep
from repro.sim.thread import ThreadState
from repro.system import build_real_rate_system
from repro.workloads.arrivals import (
    ArrivalError,
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.workloads.engine import (
    JobRecord,
    JobRecords,
    JobTemplate,
    PhaseScript,
    WorkloadEngine,
    WorkloadError,
    dispatch_fingerprint,
)


def take_times(process, n, start_us=0):
    return [t for t, _ in itertools.islice(process.schedule(start_us), n)]


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
class TestArrivalProcesses:
    def test_deterministic_interval_and_rate(self):
        arrivals = DeterministicArrivals(2_500)
        assert take_times(arrivals, 4, start_us=100) == [2_600, 5_100, 7_600, 10_100]
        arrivals.set_rate(200.0)
        assert arrivals.interval_us == 5_000
        arrivals.set_rate(1000.0)
        assert arrivals.interval_us == 1_000

    def test_deterministic_rate_change_applies_to_later_gaps(self):
        arrivals = DeterministicArrivals(1_000)
        schedule = arrivals.schedule(0)
        assert next(schedule)[0] == 1_000
        arrivals.set_rate(100.0)  # 10 ms gaps from here on
        assert next(schedule)[0] == 11_000

    def test_poisson_is_seed_deterministic(self):
        a = take_times(PoissonArrivals(500.0, seed=9), 50)
        b = take_times(PoissonArrivals(500.0, seed=9), 50)
        c = take_times(PoissonArrivals(500.0, seed=10), 50)
        assert a == b
        assert a != c
        assert all(t2 > t1 for t1, t2 in zip(a, a[1:]))

    def test_rate_validation(self):
        with pytest.raises(ArrivalError):
            PoissonArrivals(0.0, seed=1)
        with pytest.raises(ArrivalError):
            DeterministicArrivals(0)
        with pytest.raises(ArrivalError, match="no adjustable rate"):
            TraceArrivals.from_times([0]).set_rate(1.0)

    def test_trace_parse(self):
        trace = TraceArrivals.parse(
            """
            # comment
            0 web
            0 web          # herd: same timestamp twice
            1500
            2000 batch
            """
        )
        assert trace.entries == [(0, "web"), (0, "web"), (1500, None), (2000, "batch")]
        assert list(trace.schedule(100)) == [
            (100, "web"), (100, "web"), (1600, None), (2100, "batch")
        ]

    def test_trace_validation(self):
        with pytest.raises(ArrivalError, match="no arrivals"):
            TraceArrivals.parse("# nothing\n")
        with pytest.raises(ArrivalError, match="non-decreasing"):
            TraceArrivals.from_times([100, 50])
        with pytest.raises(ArrivalError, match="not an integer"):
            TraceArrivals.parse("abc web")
        with pytest.raises(ArrivalError, match="offset_us"):
            TraceArrivals.parse("1 two three")
        with pytest.raises(ArrivalError, match="negative"):
            TraceArrivals.from_times([-1])

    def test_trace_accepts_zero_padded_offsets(self):
        trace = TraceArrivals.parse("000500 web\n001000\n")
        assert trace.entries == [(500, "web"), (1000, None)]

    def test_trace_from_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("10 web\n20\n")
        trace = TraceArrivals.from_file(str(path))
        assert trace.entries == [(10, "web"), (20, None)]
        with pytest.raises(ArrivalError, match="cannot read"):
            TraceArrivals.from_file(str(tmp_path / "missing.txt"))


# ----------------------------------------------------------------------
# job templates
# ----------------------------------------------------------------------
class TestJobTemplate:
    def test_validation(self):
        with pytest.raises(WorkloadError, match="total_cpu_us"):
            JobTemplate("t", total_cpu_us=0)
        with pytest.raises(WorkloadError, match="burst_us"):
            JobTemplate("t", burst_us=0)
        with pytest.raises(WorkloadError, match="negative"):
            JobTemplate("t", think_us=-1)

    def test_retime_whitelist(self):
        template = JobTemplate("t", total_cpu_us=5_000)
        template.retime(total_cpu_us=2_000, burst_us=500)
        assert template.total_cpu_us == 2_000
        with pytest.raises(WorkloadError, match="not retimable"):
            template.retime(priority=3)
        with pytest.raises(WorkloadError, match="total_cpu_us"):
            template.retime(total_cpu_us=0)
        # A rejected retime rolls back completely: live job bodies must
        # never observe a half-applied invalid update.
        with pytest.raises(WorkloadError, match="burst_us"):
            template.retime(total_cpu_us=9_000, burst_us=0)
        assert template.total_cpu_us == 2_000
        assert template.burst_us == 500

    def test_resolve_pin(self):
        assert JobTemplate("t").resolve_pin(5) is None
        assert JobTemplate("t", pin=2).resolve_pin(5) == 2
        assert JobTemplate("t", pin=lambda i: i % 3).resolve_pin(5) == 2


class TestJobRecords:
    ROWS = [
        (0, "a", 100, 400, "completed"),
        (2, "b", 150, 150, "rejected"),
        (1, "a", 120, 900, "killed"),
        (3, "b", 200, 260, "completed"),
        (4, "a", 300, 1_000, "completed"),
    ]

    def _records(self):
        records = JobRecords("s")
        for row in self.ROWS:
            records.append(*row)
        return records

    def test_reads_back_the_records_appended(self):
        records = self._records()
        expected = [JobRecord("s", *row) for row in self.ROWS]
        assert len(records) == 5
        assert list(records) == expected
        assert records[-1] == expected[-1]
        assert records[1].to_dict()["sojourn_us"] == 0

    def test_completed_sojourns(self):
        records = self._records()
        assert records.completed_sojourns_us() == [300, 60, 700]
        assert records.latest_completed_sojourns_us(2) == [700, 60]
        assert records.latest_completed_sojourns_us(9) == [700, 60, 300]
        assert JobRecords("s").latest_completed_sojourns_us(3) == []


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class TestWorkloadEngine:
    def _bare(self, n_cpus=1):
        kernel = Kernel(
            ReservationScheduler(), n_cpus=n_cpus, record_dispatches=True
        )
        return kernel, WorkloadEngine(kernel)

    def test_spawn_complete_bookkeeping(self):
        kernel, engine = self._bare()
        stream = engine.add_stream(
            "jobs",
            DeterministicArrivals(10_000),
            JobTemplate("j", total_cpu_us=2_000, burst_us=1_000),
        )
        engine.start()
        kernel.run_for(65_000)
        assert stream.spawned == 6
        assert stream.completed >= 5
        assert stream.rejected == 0
        assert len(stream.live) == stream.spawned - stream.completed
        done = [r for r in stream.records if r.outcome == "completed"]
        assert len(done) == stream.completed
        assert len(stream.inflight) == len(stream.live)
        assert stream.mean_sojourn_us() > 0
        # Every record carries the tag and a consistent timeline.
        for record in done:
            assert record.tag == "j"
            assert record.end_us >= record.spawn_us
            assert record.sojourn_us == record.end_us - record.spawn_us
        # Completed jobs really exited and their names are unique.
        names = list(kernel.thread_names.values())
        assert len(names) == len(set(names))

    def test_kill_records_every_victim(self):
        kernel, engine = self._bare()
        stream = engine.add_stream(
            "jobs",
            DeterministicArrivals(5_000),
            JobTemplate("j", total_cpu_us=500_000, burst_us=1_000),
        )
        engine.start()
        kernel.run_for(20_000)
        assert len(stream.live) >= 3
        live_before = len(stream.live)
        assert engine.kill(stream) == live_before
        assert stream.killed == live_before
        assert not stream.live and not stream.inflight
        killed_records = [r for r in stream.records if r.outcome == "killed"]
        assert len(killed_records) == live_before
        for record in killed_records:
            assert record.end_us == kernel.now
            assert record.sojourn_us >= 0

    def test_out_of_band_kill_does_not_corrupt_accounting(self):
        """Regression: a thread force-killed behind the engine's back
        (``kernel.kill_thread`` called directly) used to be popped from
        ``live`` without being counted, breaking the
        spawned == completed + killed + live invariant."""
        kernel, engine = self._bare()
        stream = engine.add_stream(
            "jobs",
            DeterministicArrivals(5_000),
            JobTemplate("j", total_cpu_us=500_000, burst_us=1_000),
        )
        engine.start()
        kernel.run_for(20_000)
        live_before = len(stream.live)
        assert live_before >= 2
        # Kill one live thread out of band; the engine does not see it.
        first_index = next(iter(stream.live))
        assert kernel.kill_thread(stream.live[first_index])
        # The engine's own kill now hits an already-EXITED victim.
        assert engine.kill(stream) == live_before - 1
        # …but the victim is still accounted (it did not complete).
        assert stream.killed == live_before
        assert not stream.live and not stream.inflight
        assert stream.spawned == (
            stream.completed + stream.killed + len(stream.live)
        )
        assert len(stream.records) == stream.completed + stream.killed

    def test_mean_sojourn_is_nan_without_completions(self):
        """Regression: a stream that never finished anything used to
        report a 0.0 mean sojourn — indistinguishable from an
        infinitely fast one."""
        import math

        kernel, engine = self._bare()
        stream = engine.add_stream(
            "jobs",
            DeterministicArrivals(5_000),
            JobTemplate("j", total_cpu_us=500_000, burst_us=1_000),
        )
        engine.start()
        kernel.run_for(20_000)
        assert stream.completed == 0 and stream.spawned > 0
        assert math.isnan(stream.mean_sojourn_us())
        assert math.isnan(engine.mean_sojourn_us())
        assert stream.completed_sojourns_us() == []

    def test_max_arrivals_and_stop_us(self):
        kernel, engine = self._bare()
        capped = engine.add_stream(
            "capped", DeterministicArrivals(5_000),
            JobTemplate("c", total_cpu_us=500), max_arrivals=3,
        )
        stopped = engine.add_stream(
            "stopped", DeterministicArrivals(5_000),
            JobTemplate("s", total_cpu_us=500), stop_us=12_000,
        )
        engine.start()
        kernel.run_for(100_000)
        assert capped.arrivals_seen() == 3
        assert stopped.arrivals_seen() == 2  # arrivals at 5ms and 10ms

    def test_stream_added_after_start_launches(self):
        kernel, engine = self._bare()
        engine.start()
        kernel.run_for(10_000)
        late = engine.add_stream(
            "late", DeterministicArrivals(5_000),
            JobTemplate("l", total_cpu_us=500),
        )
        kernel.run_for(20_000)
        assert late.spawned >= 3

    def test_duplicate_stream_and_double_start(self):
        kernel, engine = self._bare()
        engine.add_stream("a", DeterministicArrivals(1_000), JobTemplate("a"))
        with pytest.raises(WorkloadError, match="already exists"):
            engine.add_stream("a", DeterministicArrivals(1_000), JobTemplate("a"))
        engine.start()
        with pytest.raises(WorkloadError, match="already started"):
            engine.start()
        assert engine.stream("a").name == "a"
        with pytest.raises(WorkloadError, match="no stream named"):
            engine.stream("zzz")

    def test_spec_without_allocator_rejected_at_add(self):
        kernel, engine = self._bare()
        with pytest.raises(WorkloadError, match="no allocator"):
            engine.add_stream(
                "rt", DeterministicArrivals(1_000),
                JobTemplate("rt", spec=ThreadSpec()),
            )

    def test_bare_reservation_jobs_run_and_best_effort_jobs_run(self):
        kernel, engine = self._bare()
        reserved = engine.add_stream(
            "res", DeterministicArrivals(10_000),
            JobTemplate("r", total_cpu_us=1_000, reservation=(100, 10_000)),
        )
        best_effort = engine.add_stream(
            "be", DeterministicArrivals(10_000),
            JobTemplate("b", total_cpu_us=1_000),
        )
        engine.start()
        kernel.run_for(60_000)
        assert reserved.completed > 0
        assert best_effort.completed > 0

    def test_tagged_trace_selects_templates(self):
        kernel, engine = self._bare()
        trace = TraceArrivals.parse("0 a\n1000 b\n2000\n")
        stream = engine.add_stream(
            "mix",
            trace,
            JobTemplate("default", total_cpu_us=400),
            templates={
                "a": JobTemplate("small", total_cpu_us=200),
                "b": JobTemplate("big", total_cpu_us=5_000),
            },
        )
        engine.start()
        kernel.run_for(30_000)
        assert stream.spawned == 3
        names = set(kernel.thread_names.values())
        assert names == {"mix.0", "mix.1", "mix.2"}

    def test_unknown_trace_tag_raises(self):
        kernel, engine = self._bare()
        engine.add_stream(
            "mix", TraceArrivals.parse("0 nope\n"), JobTemplate("d")
        )
        engine.start()
        with pytest.raises(WorkloadError, match="no template"):
            kernel.run_for(1_000)

    def test_admission_on_arrival_rejects_and_reclaims(self):
        system = build_real_rate_system(record_dispatches=True)
        engine = WorkloadEngine(system.kernel, allocator=system.allocator)
        # Each job wants 400 ppt; the admission threshold (90%) fits two
        # at a time.  Arrivals outrun completions at first, so some are
        # rejected; once jobs finish, freed capacity readmits.
        stream = engine.add_stream(
            "rt",
            DeterministicArrivals(3_000),
            JobTemplate(
                "rt", total_cpu_us=20_000, burst_us=1_000,
                spec=ThreadSpec(proportion_ppt=400, period_us=10_000),
            ),
            max_arrivals=20,
        )
        engine.start()
        system.run_for(400_000)
        assert stream.rejected > 0
        assert stream.spawned >= 2
        assert stream.completed > 2, "freed capacity must readmit arrivals"

    def test_would_admit_matches_register(self):
        system = build_real_rate_system()
        allocator = system.allocator
        assert allocator.would_admit(400)
        t1 = system.spawn_controlled(
            "rt1", None, spec=ThreadSpec(proportion_ppt=400, period_us=10_000)
        )
        assert allocator.would_admit(400)
        system.spawn_controlled(
            "rt2", None, spec=ThreadSpec(proportion_ppt=400, period_us=10_000)
        )
        assert not allocator.would_admit(400)
        assert allocator.would_admit(80)
        # Reclaim on exit: capacity frees the instant the thread dies.
        system.kernel.kill_thread(t1)
        assert allocator.would_admit(400)


# ----------------------------------------------------------------------
# Kernel.kill_thread (the forced-exit path)
# ----------------------------------------------------------------------
class TestKillThread:
    @staticmethod
    def _compute_body(us):
        def body(env):
            yield Compute(us)

        return body

    def test_kill_ready_thread(self, rr_kernel):
        thread = rr_kernel.spawn("victim", self._compute_body(10_000))
        rr_kernel.run_for(1_000)
        assert rr_kernel.kill_thread(thread) is True
        assert thread.state == ThreadState.EXITED
        assert thread.exit_status == -9
        assert not rr_kernel.scheduler.has_thread(thread)
        # Idempotent on the already-dead.
        assert rr_kernel.kill_thread(thread) is False
        rr_kernel.run_for(5_000)  # the kernel keeps running fine

    def test_kill_sleeping_thread_cancels_wakeup(self, rr_kernel):
        def sleeper(env):
            yield Compute(100)
            yield Sleep(50_000)
            yield Compute(100)

        thread = rr_kernel.spawn("sleeper", sleeper)
        rr_kernel.run_for(2_000)
        assert thread.state == ThreadState.SLEEPING
        assert rr_kernel.kill_thread(thread)
        assert thread.wakeup_event is None
        rr_kernel.run_for(100_000)
        assert thread.accounting.total_us <= 200

    def test_kill_foreign_thread_raises(self, rr_kernel):
        from repro.sim.thread import SimThread

        foreign = SimThread("foreign", None)
        with pytest.raises(SimulationError, match="not part of this kernel"):
            rr_kernel.kill_thread(foreign)

    def test_kill_blocked_getter_unblocks_queue(self):
        kernel = Kernel(
            RoundRobinScheduler(),
            charge_dispatch_overhead=False,
            syscall_cost_us=0,
            deadlock_detection=False,
        )
        channel = BoundedBuffer("q", 1_024)

        def getter(env):
            yield Get(channel, 600)

        def small_getter(env):
            yield Get(channel, 100)
            yield Compute(100)

        def putter(env):
            yield Put(channel, 100)

        # Sequenced spawns pin the waiter-queue order: big blocks at
        # the head, small behind it, then 100 bytes arrive — not enough
        # for the head, so small is stuck behind big.
        big = kernel.spawn("big", getter)
        kernel.run_for(2_000)
        small = kernel.spawn("small", small_getter)
        kernel.run_for(2_000)
        kernel.spawn("putter", putter)
        kernel.run_for(2_000)
        assert big.state == ThreadState.BLOCKED
        assert small.state == ThreadState.BLOCKED
        assert kernel.kill_thread(big)
        # Killing the head re-services the queue: small gets its bytes.
        kernel.run_for(5_000)
        assert small.state == ThreadState.EXITED
        assert small.exit_status == 0

    def test_kill_waiter_undoes_priority_inheritance(self):
        from repro.ipc.mutex import Mutex
        from repro.sched.priority import FixedPriorityScheduler
        from repro.sim.requests import AcquireMutex, ReleaseMutex

        kernel = Kernel(
            FixedPriorityScheduler(priority_inheritance=True),
            charge_dispatch_overhead=False,
            syscall_cost_us=0,
        )
        mutex = Mutex("m")

        def holder(env):
            yield AcquireMutex(mutex)
            yield Compute(60_000)
            yield ReleaseMutex(mutex)

        def waiter(delay_us):
            def body(env):
                yield Sleep(delay_us)
                yield AcquireMutex(mutex)
                yield ReleaseMutex(mutex)

            return body

        owner = kernel.spawn("owner", holder, priority=1)
        # mid must reach the mutex before the boost to 10 starves it.
        mid = kernel.spawn("mid", waiter(1_000), priority=5)
        high = kernel.spawn("high", waiter(2_500), priority=10)
        kernel.run_for(5_000)
        assert owner.priority == 10  # boosted by the high waiter
        # Killing the high-priority waiter recomputes the boost from
        # the waiters still queued (mid, priority 5)...
        assert kernel.kill_thread(high)
        assert owner.priority == 5
        # ...and killing the last waiter restores the base priority.
        assert kernel.kill_thread(mid)
        assert owner.priority == 1
        kernel.run_for(100_000)
        assert mutex.owner is None

    def test_kill_waiter_leaves_mutex_consistent(self, rr_kernel):
        from repro.ipc.mutex import Mutex
        from repro.sim.requests import AcquireMutex, ReleaseMutex

        mutex = Mutex("m")

        def holder(env):
            yield AcquireMutex(mutex)
            yield Compute(10_000)
            yield ReleaseMutex(mutex)

        def waiter(env):
            # Sleep past the holder's acquisition so the contention
            # order is fixed regardless of dispatch order.
            yield Sleep(2_000)
            yield AcquireMutex(mutex)
            yield ReleaseMutex(mutex)

        rr_kernel.spawn("holder", holder)
        blocked = rr_kernel.spawn("waiter", waiter)
        rr_kernel.run_for(4_000)
        assert blocked.state == ThreadState.BLOCKED
        assert rr_kernel.kill_thread(blocked)
        assert blocked not in mutex.waiters
        rr_kernel.run_for(20_000)
        assert mutex.owner is None  # released cleanly, no dead successor


# ----------------------------------------------------------------------
# affinity-change hook
# ----------------------------------------------------------------------
class TestAffinityChange:
    def test_live_repin_notifies_scheduler(self):
        kernel = Kernel(RoundRobinScheduler(), n_cpus=2)
        def body(env):
            yield Compute(50_000)

        thread = kernel.spawn("t", body)
        kernel.run_for(1_000)
        notified = []
        kernel.scheduler.note_affinity_change = notified.append
        thread.pin_to(1)
        assert notified == [thread]
        # A no-op re-pin to the same CPU does not notify.
        thread.pin_to(1)
        assert notified == [thread]
        thread.pin_to(None)
        assert notified == [thread, thread]

    def test_unbound_pin_does_not_need_a_kernel(self):
        from repro.sim.thread import SimThread

        thread = SimThread("loose", None)
        thread.pin_to(3)  # no kernel: validated later at add_thread
        assert thread.affinity == 3


# ----------------------------------------------------------------------
# phase scripts
# ----------------------------------------------------------------------
class TestPhaseScript:
    def test_actions_fire_in_time_order(self):
        kernel = Kernel(ReservationScheduler())
        engine = WorkloadEngine(kernel)
        fired = []
        script = PhaseScript()
        script.at(20_000, lambda eng, now: fired.append(("b", now)))
        script.at(10_000, lambda eng, now: fired.append(("a", now)))
        engine.start(script)
        kernel.run_for(30_000)
        assert fired == [("a", 10_000), ("b", 20_000)]

    def test_mid_run_install_rejects_past_actions(self):
        kernel = Kernel(ReservationScheduler())
        engine = WorkloadEngine(kernel)
        kernel.run_for(50_000)
        script = PhaseScript()
        script.at(20_000, lambda eng, now: None)
        with pytest.raises(WorkloadError, match="already in the past"):
            engine.start(script)

    def test_script_install_once_and_validation(self):
        script = PhaseScript()
        with pytest.raises(WorkloadError, match="negative"):
            script.at(-1, lambda eng, now: None)
        kernel = Kernel(ReservationScheduler())
        engine = WorkloadEngine(kernel)
        engine.start(script)
        with pytest.raises(WorkloadError, match="already installed"):
            script.install(engine)
        with pytest.raises(WorkloadError, match="already installed"):
            script.at(1_000, lambda eng, now: None)

    def test_kill_repin_retime_actions(self):
        kernel = Kernel(
            ReservationScheduler(), n_cpus=2, record_dispatches=True
        )
        engine = WorkloadEngine(kernel)
        template = JobTemplate("j", total_cpu_us=50_000, burst_us=1_000)
        stream = engine.add_stream(
            "jobs", DeterministicArrivals(5_000), template, max_arrivals=4
        )
        script = PhaseScript()
        script.retime(25_000, template, total_cpu_us=2_000)
        script.repin(30_000, stream, 1)
        script.kill(40_000, stream, count=1)
        engine.start(script)
        kernel.run_for(35_000)
        assert all(t.affinity == 1 for t in stream.live.values())
        kernel.run_for(65_000)
        assert stream.killed + stream.completed == stream.spawned == 4
        # The retime shrank demand: everything drains quickly.
        assert len(stream.live) == 0

    def test_set_reservation_action(self):
        kernel = Kernel(ReservationScheduler())
        scheduler = kernel.scheduler
        engine = WorkloadEngine(kernel)
        stream = engine.add_stream(
            "rt", DeterministicArrivals(5_000),
            JobTemplate(
                "rt", total_cpu_us=200_000, burst_us=1_000,
                reservation=(50, 10_000),
            ),
            max_arrivals=2,
        )
        script = PhaseScript()
        script.set_reservation(20_000, stream, 200, 5_000)
        engine.start(script)
        kernel.run_for(30_000)
        for thread in stream.live.values():
            reservation = scheduler.reservation(thread)
            assert reservation.proportion_ppt == 200
            assert reservation.period_us == 5_000

    def test_set_reservation_requires_reservation_scheduler(self):
        kernel = Kernel(RoundRobinScheduler())
        engine = WorkloadEngine(kernel)
        stream = engine.add_stream(
            "jobs", DeterministicArrivals(5_000), JobTemplate("j")
        )
        with pytest.raises(WorkloadError, match="no\\s+reservations"):
            engine.set_reservation(stream, 100, 10_000)


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestDispatchFingerprint:
    def test_requires_recording(self):
        kernel = Kernel(RoundRobinScheduler())
        with pytest.raises(WorkloadError, match="record_dispatches"):
            dispatch_fingerprint(kernel)

    def test_identical_runs_identical_fingerprints(self):
        def build():
            kernel = Kernel(RoundRobinScheduler(), record_dispatches=True)
            engine = WorkloadEngine(kernel)
            engine.add_stream(
                "jobs", PoissonArrivals(300.0, seed=2),
                JobTemplate("j", total_cpu_us=1_500, think_us=400),
            )
            engine.start()
            kernel.run_for(50_000)
            return kernel

        assert dispatch_fingerprint(build()) == dispatch_fingerprint(build())
