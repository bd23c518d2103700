"""Unit and integration tests for the simulation kernel."""

import pytest

from repro.ipc.bounded_buffer import BoundedBuffer
from repro.ipc.mutex import Mutex
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.cpu import CPUModel
from repro.sim.errors import DeadlockError
from repro.sim.kernel import Kernel
from repro.sim.requests import (
    AcquireMutex,
    Compute,
    Exit,
    Get,
    Put,
    ReleaseMutex,
    Sleep,
    WaitIO,
    Yield,
)
from repro.sim.thread import ThreadState

from tests.conftest import consumer_body, finite_body, producer_body, spin_body


def make_kernel(**kwargs) -> Kernel:
    defaults = dict(charge_dispatch_overhead=False, syscall_cost_us=0)
    defaults.update(kwargs)
    return Kernel(RoundRobinScheduler(), **defaults)


class TestBasicExecution:
    def test_single_thread_consumes_cpu(self):
        kernel = make_kernel()
        thread = kernel.spawn("worker", finite_body(5_000))
        kernel.run_for(10_000)
        assert thread.accounting.total_us == 5_000
        assert thread.state is ThreadState.EXITED

    def test_clock_reaches_end_time(self):
        kernel = make_kernel()
        kernel.spawn("worker", spin_body())
        kernel.run_for(25_000)
        assert kernel.now == 25_000

    def test_cpu_bound_thread_gets_all_cpu(self):
        kernel = make_kernel()
        thread = kernel.spawn("hog", spin_body())
        kernel.run_for(100_000)
        assert thread.accounting.total_us == 100_000

    def test_two_cpu_bound_threads_share_cpu(self):
        kernel = make_kernel()
        a = kernel.spawn("a", spin_body())
        b = kernel.spawn("b", spin_body())
        kernel.run_for(100_000)
        total = a.accounting.total_us + b.accounting.total_us
        assert total == 100_000
        # Round robin: each gets roughly half.
        assert abs(a.accounting.total_us - b.accounting.total_us) <= 2_000

    def test_run_until_rejects_past_time(self):
        kernel = make_kernel()
        kernel.run_for(1_000)
        with pytest.raises(ValueError):
            kernel.run_until(500)

    def test_idle_system_advances_to_end(self):
        kernel = make_kernel()
        kernel.run_for(50_000)
        assert kernel.now == 50_000
        assert kernel.idle_us == 50_000

    def test_exit_request_terminates_thread(self):
        def body(env):
            yield Compute(100)
            yield Exit(3)
            yield Compute(100)  # never reached

        kernel = make_kernel()
        thread = kernel.spawn("quitter", body)
        kernel.run_for(10_000)
        assert thread.state is ThreadState.EXITED
        assert thread.exit_status == 3
        assert thread.accounting.total_us == 100

    def test_yield_keeps_thread_runnable(self):
        def body(env):
            while True:
                yield Compute(10)
                yield Yield()

        kernel = make_kernel()
        thread = kernel.spawn("yielder", body)
        kernel.run_for(1_000)
        assert thread.state in (ThreadState.READY, ThreadState.RUNNING)
        assert thread.accounting.voluntary_switches > 0


class TestSleepAndIO:
    def test_sleep_consumes_no_cpu(self):
        def body(env):
            yield Compute(1_000)
            yield Sleep(20_000)
            yield Compute(1_000)

        kernel = make_kernel()
        thread = kernel.spawn("sleeper", body)
        kernel.run_for(50_000)
        assert thread.accounting.total_us == 2_000
        assert thread.state is ThreadState.EXITED

    def test_sleep_duration_respected(self):
        wake_times = []

        def body(env):
            yield Sleep(10_000)
            wake_times.append(env.now)

        kernel = make_kernel()
        kernel.spawn("sleeper", body)
        kernel.run_for(50_000)
        assert wake_times == [10_000]

    def test_wait_io_blocks_for_latency(self):
        completion = []

        def body(env):
            yield Compute(100)
            yield WaitIO(5_000, tag="disk")
            completion.append(env.now)

        kernel = make_kernel()
        thread = kernel.spawn("io", body)
        kernel.run_for(20_000)
        assert completion == [5_100]
        assert thread.accounting.blocks >= 1

    def test_other_threads_run_while_one_sleeps(self):
        def sleeper(env):
            yield Sleep(50_000)

        kernel = make_kernel()
        kernel.spawn("sleeper", sleeper)
        hog = kernel.spawn("hog", spin_body())
        kernel.run_for(50_000)
        assert hog.accounting.total_us == 50_000


class TestChannelBlocking:
    def test_producer_consumer_flow(self):
        queue = BoundedBuffer("q", 1_000)
        kernel = make_kernel()
        kernel.spawn("producer", producer_body(queue, 100, 500))
        kernel.spawn("consumer", consumer_body(queue, 100, 500))
        kernel.run_for(100_000)
        assert queue.total_put_bytes > 0
        assert queue.total_get_bytes > 0
        assert queue.total_get_bytes <= queue.total_put_bytes

    def test_consumer_blocks_on_empty_queue(self):
        queue = BoundedBuffer("q", 1_000)
        kernel = make_kernel()
        consumer = kernel.spawn("consumer", consumer_body(queue, 100, 10))
        kernel.spawn("idle", spin_body())
        kernel.run_for(10_000)
        assert consumer.state is ThreadState.BLOCKED
        assert consumer in queue.get_waiters

    def test_producer_blocks_on_full_queue(self):
        queue = BoundedBuffer("q", 200)
        kernel = make_kernel()
        producer = kernel.spawn("producer", producer_body(queue, 100, 10))
        kernel.spawn("idle", spin_body())
        kernel.run_for(10_000)
        assert producer.state is ThreadState.BLOCKED
        assert queue.fill_bytes() == 200

    def test_fill_level_bounded_by_capacity(self):
        queue = BoundedBuffer("q", 500)
        kernel = make_kernel()
        kernel.spawn("producer", producer_body(queue, 100, 10))
        kernel.spawn("consumer", consumer_body(queue, 100, 1_000))
        kernel.run_for(100_000)
        assert 0 <= queue.fill_bytes() <= 500

    def test_byte_conservation(self):
        queue = BoundedBuffer("q", 1_000)
        kernel = make_kernel()
        kernel.spawn("producer", producer_body(queue, 50, 100))
        kernel.spawn("consumer", consumer_body(queue, 50, 100))
        kernel.run_for(200_000)
        assert queue.total_put_bytes - queue.total_get_bytes == queue.fill_bytes()

    def test_blocked_consumer_wakes_when_data_arrives(self):
        queue = BoundedBuffer("q", 1_000)
        consumed_at = []

        def consumer(env):
            yield Get(queue, 100)
            consumed_at.append(env.now)

        def producer(env):
            yield Sleep(10_000)
            yield Compute(10)
            yield Put(queue, 100)

        kernel = make_kernel()
        kernel.spawn("consumer", consumer)
        kernel.spawn("producer", producer)
        kernel.run_for(50_000)
        assert len(consumed_at) == 1
        assert consumed_at[0] >= 10_000


class TestDeadlockDetection:
    def test_deadlock_raises(self):
        queue = BoundedBuffer("q", 1_000)

        def lone_consumer(env):
            yield Get(queue, 100)

        kernel = make_kernel(deadlock_detection=True)
        kernel.spawn("consumer", lone_consumer)
        with pytest.raises(DeadlockError):
            kernel.run_for(10_000)

    def test_deadlock_detection_can_be_disabled(self):
        queue = BoundedBuffer("q", 1_000)

        def lone_consumer(env):
            yield Get(queue, 100)

        kernel = make_kernel(deadlock_detection=False)
        kernel.spawn("consumer", lone_consumer)
        kernel.run_for(10_000)
        assert kernel.now == 10_000


class TestMutexes:
    def test_uncontended_acquire_release(self):
        mutex = Mutex("m")

        def body(env):
            yield AcquireMutex(mutex)
            yield Compute(100)
            yield ReleaseMutex(mutex)

        kernel = make_kernel()
        kernel.spawn("locker", body)
        kernel.run_for(10_000)
        assert mutex.owner is None
        assert mutex.acquisitions == 1

    def test_contended_mutex_serialises_critical_sections(self):
        mutex = Mutex("m")
        order = []

        def body_factory(name):
            def body(env):
                yield AcquireMutex(mutex)
                order.append((name, "enter", env.now))
                yield Compute(5_000)
                order.append((name, "leave", env.now))
                yield ReleaseMutex(mutex)

            return body

        kernel = make_kernel()
        kernel.spawn("a", body_factory("a"))
        kernel.spawn("b", body_factory("b"))
        kernel.run_for(100_000)
        # Critical sections must not interleave: enter/leave pairs nest.
        events = [(name, kind) for name, kind, _ in order]
        assert events in (
            [("a", "enter"), ("a", "leave"), ("b", "enter"), ("b", "leave")],
            [("b", "enter"), ("b", "leave"), ("a", "enter"), ("a", "leave")],
        )

    def test_release_by_non_owner_rejected(self):
        mutex = Mutex("m")

        def bad_body(env):
            yield ReleaseMutex(mutex)

        kernel = make_kernel()
        kernel.spawn("bad", bad_body)
        with pytest.raises(Exception):
            kernel.run_for(10_000)


class TestOverheadAccounting:
    def test_dispatch_overhead_steals_cpu(self):
        kernel = Kernel(
            RoundRobinScheduler(), charge_dispatch_overhead=True, syscall_cost_us=0
        )
        thread = kernel.spawn("hog", spin_body())
        kernel.run_for(1_000_000)
        assert kernel.stolen_dispatch_us > 0
        assert thread.accounting.total_us + kernel.stolen_us + kernel.idle_us == kernel.now

    def test_steal_cpu_advances_clock(self):
        kernel = make_kernel()
        kernel.steal_cpu(500)
        assert kernel.now == 500
        assert kernel.stolen_controller_us == 500

    def test_syscall_cost_charged(self):
        queue = BoundedBuffer("q", 10_000)

        def body(env):
            yield Put(queue, 10)
            yield Exit()

        kernel = Kernel(
            RoundRobinScheduler(), charge_dispatch_overhead=False, syscall_cost_us=3
        )
        thread = kernel.spawn("putter", body)
        kernel.run_for(1_000)
        assert thread.accounting.total_us == 3 * 2  # put + exit

    @staticmethod
    def replay_overhead(kernel: Kernel, cost_at) -> tuple:
        # Replay each CPU's fractional accumulator over the dispatch
        # log, charging ``cost_at(start)`` per dispatch; returns the
        # stolen microseconds and the accumulators left over.
        accumulators = [0.0] * kernel.n_cpus
        stolen = 0
        for entry in kernel.dispatch_log:
            start, cpu = entry[0], entry[1]
            accumulators[cpu] += cost_at(start)
            whole = int(accumulators[cpu])
            if whole > 0:
                accumulators[cpu] -= whole
                stolen += whole
        return stolen, accumulators

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize(
        "interval, cost, quadratic",
        [(1_000, 6.75, 0.0), (1_000, 20.25, 0.0), (400, 3.3, 0.7)],
        ids=["default", "constant", "quadratic-400us"],
    )
    def test_overhead_replays_fixed_cost_model(
        self, n_cpus, interval, cost, quadratic
    ):
        # The per-dispatch cost is fixed at construction; replaying
        # each CPU's fractional accumulator over the dispatch log must
        # give exactly the stolen time and the accumulators left over.
        kernel = Kernel(
            RoundRobinScheduler(), n_cpus=n_cpus, charge_dispatch_overhead=True,
            cpu=CPUModel(dispatch_cost_us=cost, dispatch_cost_quadratic_us=quadratic),
            dispatch_interval_us=interval, syscall_cost_us=0,
            record_dispatches=True,
        )
        for i in range(n_cpus + 1):
            kernel.spawn(f"hog{i}", spin_body(700))
        kernel.run_for(40_000)

        f_khz = (1_000_000 / interval) / 1_000.0
        per_dispatch = cost + quadratic * f_khz * f_khz
        stolen, accumulators = self.replay_overhead(kernel, lambda _: per_dispatch)
        assert stolen > 0
        assert kernel.stolen_dispatch_us == stolen
        assert [c.overhead_accumulator for c in kernel.cpu_states] == accumulators
        assert kernel.conservation_gap_us() == 0

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_overhead_follows_cost_changes_mid_run(self, n_cpus):
        # Each dispatch charges the per-dispatch cost current when it
        # starts, carrying every CPU's fraction across the change: a
        # cost replaced mid-run takes effect at the next dispatch.
        kernel = Kernel(
            RoundRobinScheduler(), n_cpus=n_cpus, charge_dispatch_overhead=True,
            syscall_cost_us=0, record_dispatches=True,
        )
        for i in range(n_cpus + 1):
            kernel.spawn(f"hog{i}", spin_body(700))

        quadratic = CPUModel(dispatch_cost_us=3.3, dispatch_cost_quadratic_us=0.7)
        # (segment start, per-dispatch cost from then on)
        segments = [
            (0, CPUModel().effective_dispatch_cost_us(1_000)),
            (10_000, CPUModel(dispatch_cost_us=20.25).effective_dispatch_cost_us(1_000)),
            (20_000, quadratic.effective_dispatch_cost_us(1_000)),
            (30_000, quadratic.effective_dispatch_cost_us(2_500)),
        ]
        for start, cost in segments[1:]:
            kernel.events.schedule(
                start, lambda cost=cost: setattr(kernel, "_dispatch_cost_us", cost)
            )
        kernel.run_for(40_000)

        seen = set()

        def cost_at(start: int) -> float:
            index = max(i for i, seg in enumerate(segments) if seg[0] <= start)
            seen.add(index)
            return segments[index][1]

        stolen, accumulators = self.replay_overhead(kernel, cost_at)
        assert seen == {0, 1, 2, 3}
        assert kernel.stolen_dispatch_us == stolen
        assert [c.overhead_accumulator for c in kernel.cpu_states] == accumulators
        assert kernel.conservation_gap_us() == 0

    def test_total_time_conservation_without_overhead(self):
        kernel = make_kernel()
        a = kernel.spawn("a", spin_body())
        b = kernel.spawn("b", finite_body(10_000))
        kernel.run_for(200_000)
        busy = a.accounting.total_us + b.accounting.total_us
        assert busy + kernel.idle_us + kernel.stolen_us == kernel.now


class TestPeriodicCallbacks:
    def test_add_periodic_runs_callback(self):
        kernel = make_kernel()
        calls = []
        kernel.add_periodic(10_000, lambda now: calls.append(now))
        kernel.run_for(55_000)
        assert calls == [0, 10_000, 20_000, 30_000, 40_000, 50_000]
