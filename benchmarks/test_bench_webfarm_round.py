"""Micro-benchmarks of the SMP dispatch-round path.

``webfarm`` is the slowest macro scenario because every simulated
millisecond of a 4-CPU farm re-runs the full round machinery: a
placement assignment over the runnable set, one pick per CPU against
the rate-monotonic heap, and up to four dispatch slices sharing one
window.  These benchmarks isolate that path — a placement-heavy round
loop with no controller, and the pure placement assignment — so a
future change that silently reintroduces an O(n) scan (or a per-thread
lambda) into rounds shows up as a step in this group rather than as an
unexplained drift in the macro number.
"""

import pytest

from repro.sched.placement import LeastLoadedPlacement
from repro.sched.rbs import ReservationScheduler
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Sleep
from repro.sim.thread import SimThread


def _server(burst_us, sleep_us):
    def body(env):
        while True:
            yield Compute(burst_us)
            yield Sleep(sleep_us)

    return body


def _build_farm_kernel(n_cpus=4, n_threads=16):
    """A controller-free stand-in for the webfarm's round pattern:
    reservation threads that compute and sleep, so rounds constantly
    re-place and re-pick, exactly as in the macro scenario."""
    scheduler = ReservationScheduler()
    kernel = Kernel(scheduler, n_cpus=n_cpus)
    for index in range(n_threads):
        thread = kernel.spawn(
            f"srv{index}", _server(1_500 + 100 * (index % 4), 2_000)
        )
        scheduler.set_reservation(thread, 150, 10_000 + 5_000 * (index % 3))
    return kernel


@pytest.mark.benchmark(group="smp-round")
def test_dispatch_round_throughput(benchmark):
    """Wall cost of 200 ms of pure SMP round machinery (4 CPUs)."""

    def run():
        kernel = _build_farm_kernel()
        kernel.run_for(200_000)
        return kernel

    kernel = benchmark(run)
    # The scenario must actually exercise rounds on every CPU.
    assert kernel.dispatch_count > 400
    assert all(c.dispatches > 0 for c in kernel.cpu_states)
    assert kernel.conservation_gap_us() == 0


@pytest.mark.benchmark(group="smp-round")
def test_placement_assignment_16_threads(benchmark):
    """Pure placement cost: one least-loaded assignment of 16 weighted
    threads onto 4 CPUs (runs once per dispatch round in the macro
    scenario, so regressions here multiply by ~2000/sim-second).  The
    heaviest-first order is the scheduler's input, built outside."""
    threads = [SimThread(f"t{i}") for i in range(16)]
    threads[3].pin_to(1)
    threads[11].pin_to(3)
    order = sorted(
        (-float(50 + 100 * (i % 5)), t.tid, t) for i, t in enumerate(threads)
    )
    policy = LeastLoadedPlacement()

    def assign():
        return policy.assign(order, 4)

    mapping = benchmark(assign)
    assert set(mapping) == {t.tid for t in threads}
    assert mapping[threads[3].tid] == 1
    assert mapping[threads[11].tid] == 3
    assert set(mapping.values()) == {0, 1, 2, 3}
