"""Unit tests for the baseline schedulers (goodness, priority, lottery, RR)."""

import pytest

from repro.experiments.smoke import GOLDEN_SCHEDULERS
from repro.sched.goodness import LinuxGoodnessScheduler
from repro.sched.lottery import LotteryScheduler
from repro.sched.priority import FixedPriorityScheduler
from repro.sched.rbs import ReservationScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.kernel import Kernel
from repro.sim.requests import AcquireMutex, Compute, ReleaseMutex, Sleep
from repro.ipc.mutex import Mutex

from tests.conftest import spin_body


def make_kernel(scheduler, **kwargs) -> Kernel:
    defaults = dict(charge_dispatch_overhead=False, syscall_cost_us=0)
    defaults.update(kwargs)
    return Kernel(scheduler, **defaults)


@pytest.mark.parametrize("spinners", [3, 6, 8])
@pytest.mark.parametrize("n_cpus", [2, 4])
@pytest.mark.parametrize("scheduler", list(GOLDEN_SCHEDULERS))
def test_every_spinner_gets_cpu_on_smp(scheduler, n_cpus, spinners):
    """Every spinner gets at least half its fair share on an SMP kernel.

    Each CPU rotates through its own candidates (``Scheduler.rotate``).
    A cursor shared by all CPUs moved ``n_cpus`` steps a round, so a CPU
    holding a cohort whose size divides ``n_cpus`` picked the same
    thread every round: with 6 spinners on 4 CPUs, two got 0 us.
    """
    sched = GOLDEN_SCHEDULERS[scheduler]()
    kernel = Kernel(sched, n_cpus=n_cpus)
    threads = [kernel.spawn(f"t{i}", spin_body()) for i in range(spinners)]
    if isinstance(sched, ReservationScheduler):
        # Spawned threads hold a 0 ppt reservation; the rotation under
        # test is the best-effort one.
        for thread in threads:
            sched.clear_reservation(thread)
    duration_us = 300_000
    kernel.run_for(duration_us)
    fair_us = min(1.0, n_cpus / spinners) * duration_us
    shares = [t.accounting.total_us for t in threads]
    assert min(shares) >= 0.5 * fair_us, shares


class TestRoundRobin:
    def test_equal_sharing(self):
        kernel = make_kernel(RoundRobinScheduler())
        threads = [kernel.spawn(f"t{i}", spin_body()) for i in range(4)]
        kernel.run_for(400_000)
        shares = [t.accounting.total_us / kernel.now for t in threads]
        for share in shares:
            assert share == pytest.approx(0.25, abs=0.02)

    def test_idle_with_no_threads(self):
        kernel = make_kernel(RoundRobinScheduler())
        kernel.run_for(10_000)
        assert kernel.idle_us == 10_000

    def test_custom_slice(self):
        scheduler = RoundRobinScheduler(slice_us=5_000)
        kernel = make_kernel(scheduler)
        thread = kernel.spawn("t", spin_body())
        assert scheduler.time_slice(thread, 0) == 5_000


class TestFixedPriority:
    def test_highest_priority_monopolises_cpu(self):
        kernel = make_kernel(FixedPriorityScheduler())
        low = kernel.spawn("low", spin_body(), priority=1)
        high = kernel.spawn("high", spin_body(), priority=10)
        kernel.run_for(100_000)
        assert high.accounting.total_us == 100_000
        assert low.accounting.total_us == 0

    def test_equal_priorities_share(self):
        kernel = make_kernel(FixedPriorityScheduler())
        a = kernel.spawn("a", spin_body(), priority=5)
        b = kernel.spawn("b", spin_body(), priority=5)
        kernel.run_for(100_000)
        assert abs(a.accounting.total_us - b.accounting.total_us) <= 2_000

    def test_lower_priority_runs_when_high_sleeps(self):
        def sleepy(env):
            while True:
                yield Compute(1_000)
                yield Sleep(9_000)

        kernel = make_kernel(FixedPriorityScheduler())
        high = kernel.spawn("high", sleepy, priority=10)
        low = kernel.spawn("low", spin_body(), priority=1)
        kernel.run_for(100_000)
        assert high.accounting.total_us == pytest.approx(10_000, abs=2_000)
        assert low.accounting.total_us == pytest.approx(90_000, abs=2_000)

    def test_priority_inheritance_boosts_mutex_owner(self):
        mutex = Mutex("m")
        scheduler = FixedPriorityScheduler(priority_inheritance=True)
        kernel = make_kernel(scheduler)

        def low_body(env):
            yield AcquireMutex(mutex)
            yield Compute(20_000)
            yield ReleaseMutex(mutex)
            while True:
                yield Compute(1_000)

        def high_body(env):
            yield Sleep(1_000)
            yield AcquireMutex(mutex)
            yield Compute(100)
            yield ReleaseMutex(mutex)

        low = kernel.spawn("low", low_body, priority=1)
        kernel.spawn("medium", spin_body(), priority=5)
        high = kernel.spawn("high", high_body, priority=10)
        kernel.run_for(100_000)
        # With inheritance the low thread is boosted while the high
        # thread waits, so the high thread completes its critical
        # section well before the end of the run.
        assert high.accounting.total_us >= 100
        assert low.priority == 1  # priority restored after release

    def test_without_inheritance_high_thread_starves(self):
        mutex = Mutex("m")
        kernel = make_kernel(FixedPriorityScheduler(priority_inheritance=False))

        def low_body(env):
            yield AcquireMutex(mutex)
            yield Compute(20_000)
            yield ReleaseMutex(mutex)

        def high_body(env):
            yield Sleep(1_000)
            yield AcquireMutex(mutex)
            yield Compute(100)
            yield ReleaseMutex(mutex)

        kernel.spawn("low", low_body, priority=1)
        kernel.spawn("medium", spin_body(), priority=5)
        high = kernel.spawn("high", high_body, priority=10)
        kernel.run_for(100_000)
        # The medium hog starves the low thread, which never releases
        # the mutex, so the high thread never finishes its critical work.
        assert high.accounting.total_us < 100 + 1_000


class TestGoodnessScheduler:
    def test_equal_nice_threads_share(self):
        kernel = make_kernel(LinuxGoodnessScheduler())
        a = kernel.spawn("a", spin_body(), nice=0)
        b = kernel.spawn("b", spin_body(), nice=0)
        kernel.run_for(1_000_000)
        share_a = a.accounting.total_us / kernel.now
        assert share_a == pytest.approx(0.5, abs=0.05)

    def test_nicer_thread_gets_less_cpu(self):
        kernel = make_kernel(LinuxGoodnessScheduler())
        greedy = kernel.spawn("greedy", spin_body(), nice=-10)
        nice = kernel.spawn("nice", spin_body(), nice=10)
        kernel.run_for(2_000_000)
        assert greedy.accounting.total_us > nice.accounting.total_us

    def test_recharge_happens_when_counters_exhaust(self):
        scheduler = LinuxGoodnessScheduler(base_quantum_us=10_000)
        kernel = make_kernel(scheduler)
        kernel.spawn("a", spin_body())
        kernel.spawn("b", spin_body())
        kernel.run_for(200_000)
        assert scheduler.recharges >= 1

    def test_goodness_zero_when_counter_exhausted(self):
        scheduler = LinuxGoodnessScheduler(base_quantum_us=5_000)
        kernel = make_kernel(scheduler)
        thread = kernel.spawn("t", spin_body())
        scheduler.charge(thread, 5_000, 5_000)
        assert scheduler.goodness(thread) == 0

    def test_invalid_quantum_rejected(self):
        with pytest.raises(ValueError):
            LinuxGoodnessScheduler(base_quantum_us=0)


class TestLotteryScheduler:
    def test_shares_proportional_to_tickets(self):
        kernel = make_kernel(LotteryScheduler(seed=7))
        rich = kernel.spawn("rich", spin_body(), tickets=300)
        poor = kernel.spawn("poor", spin_body(), tickets=100)
        kernel.run_for(2_000_000)
        total = rich.accounting.total_us + poor.accounting.total_us
        assert rich.accounting.total_us / total == pytest.approx(0.75, abs=0.08)

    def test_deterministic_given_seed(self):
        def run(seed):
            kernel = make_kernel(LotteryScheduler(seed=seed))
            a = kernel.spawn("a", spin_body(), tickets=100)
            b = kernel.spawn("b", spin_body(), tickets=100)
            kernel.run_for(100_000)
            return a.accounting.total_us, b.accounting.total_us

        assert run(3) == run(3)

    def test_no_runnable_threads_returns_none(self):
        scheduler = LotteryScheduler()
        make_kernel(scheduler)
        assert scheduler.pick_next(0) is None
