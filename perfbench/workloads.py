"""Seeded workload builders for the benchmark.

Each builder takes the workload seed and returns a :class:`Built`
handle around a fully assembled, not yet run simulation.  The seed is
the only source of variation: the same seed always yields the same
dispatch log, and different seeds yield different ones (the seed
orders reservations or importances, or times arrivals — never only a
value that cannot reach the dispatch order).

Every kernel is built with ``record_dispatches=True``, as every
registered experiment is, so each run's dispatch fingerprint can be
checked.  Simulated arrivals are open-loop in virtual time; on the host
each run is a fixed-length batch of simulated microseconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Reservation periods the dispatcher-only workload draws from (us):
#: a spread of rate-monotonic priorities around the 10 ms default.
RBS_PERIODS_US = (10_000, 15_000, 20_000, 25_000, 30_000, 35_000, 40_000, 45_000)

#: Squish weights the controller workload draws its hogs' importances from.
HOG_IMPORTANCES = (0.5, 1.0, 2.0, 4.0)


@dataclass
class Built:
    """One assembled simulation, ready for ``kernel.run_for``.

    ``system`` is the :class:`~repro.system.RealRateSystem` when the
    workload runs the controller, ``engine`` the
    :class:`~repro.workloads.engine.WorkloadEngine` when it injects
    churn; the traced run wraps the allocator and counts the engine's
    completed jobs.
    """

    kernel: Any
    system: Optional[Any] = None
    engine: Optional[Any] = None


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: its builder and how long one run is."""

    name: str
    #: Simulated length of one full-length run (us); quick runs are
    #: 1/20 of it and traced runs 1/5.
    sim_us: int
    build: Callable[[int], Built]

    @property
    def quick_sim_us(self) -> int:
        return self.sim_us // 20

    @property
    def trace_sim_us(self) -> int:
        return self.sim_us // 5


def shuffled(values: list, seed: int) -> list:
    """``values`` in a seeded order.

    Workloads deal a fixed multiset of parameters to their threads in
    seeded order: the dispatch order changes with the seed while the
    total load, and with it the host work per simulated second, does
    not.
    """
    values = list(values)
    random.Random(seed).shuffle(values)
    return values


def build_rbs_overload(seed: int) -> Built:
    """64 over-committed reservations on one CPU, no controller."""
    from repro.sched.rbs import ReservationScheduler
    from repro.sim.kernel import Kernel
    from repro.sim.requests import Compute

    scheduler = ReservationScheduler()
    kernel = Kernel(scheduler, record_dispatches=True)

    def spin(env):
        while True:
            yield Compute(3_000)

    # 15-35 ppt each, ~1580 ppt in total against a 1000 ppt CPU: the
    # CPU stays permanently over-committed.
    proportions = shuffled([15 + i % 21 for i in range(64)], seed)
    periods = shuffled([RBS_PERIODS_US[i % 8] for i in range(64)], seed + 1)
    for i, (ppt, period) in enumerate(zip(proportions, periods)):
        thread = kernel.spawn(f"hog{i}", spin)
        scheduler.set_reservation(thread, ppt, period)
    return Built(kernel=kernel)


def build_controller_hogs(seed: int) -> Built:
    """64 miscellaneous CPU hogs under the adaptive controller.

    Hogs burn fixed 3 ms bursts: burst jitter would never reach the
    dispatch log, since every burst outlasts the 1 ms slice.
    """
    from repro.system import build_real_rate_system
    from repro.workloads.cpu_hog import CpuHog

    system = build_real_rate_system(record_dispatches=True)
    # The importance is the hog's squish weight, so the seeded order
    # decides which hogs get the larger proportions under overload.
    importances = shuffled([HOG_IMPORTANCES[i % 4] for i in range(64)], seed)
    for i, importance in enumerate(importances):
        CpuHog.attach(system, name=f"hog{i}", burst_us=3_000, importance=importance)
    return Built(kernel=system.kernel, system=system)


def build_smp_webfarm(seed: int) -> Built:
    """4 CPUs, 8 controller-managed socket servers and their clients."""
    from repro.system import build_real_rate_system
    from repro.workloads.webfarm import WebFarm

    system = build_real_rate_system(n_cpus=4, record_dispatches=True)
    # Server i jitters its arrivals with Random(base + i).
    WebFarm.attach(
        system,
        n_servers=8,
        requests_per_second=200.0,
        service_cpu_us=1_500,
        seed=random.Random(seed).randrange(1 << 30),
    )
    return Built(kernel=system.kernel, system=system)


def build_open_churn(seed: int) -> Built:
    """Poisson best-effort jobs plus periodic reserved jobs on bare RBS."""
    from repro.sched.rbs import ReservationScheduler
    from repro.sim.kernel import Kernel
    from repro.workloads.arrivals import DeterministicArrivals, PoissonArrivals
    from repro.workloads.engine import JobTemplate, WorkloadEngine

    kernel = Kernel(ReservationScheduler(), record_dispatches=True)
    engine = WorkloadEngine(kernel)
    engine.add_stream(
        "misc",
        PoissonArrivals(450.0, seed=seed),
        JobTemplate("misc", total_cpu_us=1_200, burst_us=600, think_us=500),
    )
    engine.add_stream(
        "rt",
        DeterministicArrivals(4_000),
        JobTemplate(
            "rt", total_cpu_us=800, burst_us=400, think_us=300,
            reservation=(50, 10_000),
        ),
    )
    engine.start()
    return Built(kernel=kernel, engine=engine)


#: Name -> workload, in the order runs interleave them.  Full lengths
#: take about 3.5 s each on the reference host; why each workload is
#: here is in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("rbs_overload", 400_000_000, build_rbs_overload),
        Workload("controller_hogs", 80_000_000, build_controller_hogs),
        Workload("smp_webfarm", 25_000_000, build_smp_webfarm),
        Workload("open_churn", 70_000_000, build_open_churn),
    )
}
