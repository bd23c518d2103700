"""Smoke matrices: one eventful recipe under every baseline scheduler.

Two registered experiments each run a small, event-dense recipe across
a matrix of dispatch policies and CPU counts, in one run, and stamp one
composite dispatch fingerprint with one component per matrix cell:

* ``churn_smoke`` — open-system churn (Poisson and deterministic
  arrivals, finite jobs, kills, a re-pin, a rate change and a demand
  retime) under each of the five :data:`GOLDEN_SCHEDULERS` on 1 and
  then 4 CPUs, followed by the same recipe under each scheduler on a
  penalised 4-CPU topology with cache-warm placement, which pins
  migration-penalty charging.
* ``fault_smoke`` — churn plus a fault plan: a runaway hijack, a stall
  window and, on 4 CPUs, a CPU failure with recovery.  Under the
  reservation scheduler the degradation chain and a watchdog are
  attached as well.

Cells run in that order, scheduler-major, 150 virtual ms each.  Per
cell, the dispatch, spawn, completion and kill counts become metrics
named ``<scheduler>/cpu<n>.<count>`` (``<scheduler>/cpu4/topology.<count>``
for the topology cells); each ``fault_smoke`` cell also reports
``faults_hit``, the fault firings that actuated.  The recipes draw only
from seeded streams, so the ``seed`` parameter is recorded and ignored.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analysis.results import ExperimentResult
from repro.experiments.params import SEED_PARAM, stamp_reproducibility
from repro.experiments.registry import experiment
from repro.faults import (
    CPU_FAIL,
    RUNAWAY_START,
    STALL_START,
    DegradationManager,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.monitor.watchdog import Watchdog
from repro.sched.base import Scheduler
from repro.sched.goodness import LinuxGoodnessScheduler
from repro.sched.lottery import LotteryScheduler
from repro.sched.placement import CacheWarmPlacement
from repro.sched.priority import FixedPriorityScheduler
from repro.sched.rbs import ReservationScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.kernel import Kernel
from repro.sim.topology import CpuTopology
from repro.workloads.arrivals import DeterministicArrivals, PoissonArrivals
from repro.workloads.engine import JobTemplate, PhaseScript, WorkloadEngine

#: The five dispatch policies of the matrix, in run order.
GOLDEN_SCHEDULERS: dict[str, Callable[[], Scheduler]] = {
    "rbs": ReservationScheduler,
    "round_robin": RoundRobinScheduler,
    "priority": FixedPriorityScheduler,
    "lottery": lambda: LotteryScheduler(seed=7),
    "goodness": LinuxGoodnessScheduler,
}

#: CPU counts of the matrix, in run order.
GOLDEN_CPU_COUNTS = (1, 4)

#: Virtual duration of one matrix cell.
SMOKE_DURATION_US = 150_000

_NOTE = (
    "smoke matrix: no paper claim; the composite fingerprint pins each "
    "cell's full dispatch log (one component per cell, in run order)."
)


def _build_churn(
    scheduler: str, n_cpus: int, *, topology: bool = False
) -> tuple[Kernel, WorkloadEngine]:
    """Assemble (but do not run) one churn cell.

    The recipe is deliberately churn-dense for its 150 ms: a Poisson
    stream of short think-y jobs, a deterministic stream of I/O-staged
    jobs with per-index pins and (under the reservation scheduler) a
    hard reservation, and a phase script that re-rates the Poisson
    stream, kills jobs mid-run, re-pins the I/O stream and retimes the
    short jobs' demand.  Thread parameters (priority, nice, tickets)
    vary so every baseline policy has something to order by.

    With ``topology`` the kernel gets a penalised ``2x1x2`` topology
    (two sockets of one two-way-SMT core) and cache-warm placement.
    """
    sched_obj = GOLDEN_SCHEDULERS[scheduler]()
    cpu_topology = None
    if topology:
        cpu_topology = CpuTopology.from_spec(
            "2x1x2", smt_migration_us=25, core_migration_us=80,
            socket_migration_us=200,
        )
        sched_obj.placement = CacheWarmPlacement(cpu_topology)
    kernel = Kernel(sched_obj, n_cpus=n_cpus, topology=cpu_topology,
                    record_dispatches=True)
    churn = WorkloadEngine(kernel)
    short = JobTemplate(
        "short", total_cpu_us=3_000, burst_us=900, think_us=1_500,
        priority=2, nice=0, tickets=150,
    )
    staged = JobTemplate(
        "staged", total_cpu_us=4_000, burst_us=700, io_latency_us=2_000,
        priority=1, nice=5, tickets=60,
        reservation=(150, 10_000),
        pin=lambda index: index % n_cpus,
    )
    hogs = JobTemplate(
        # Long-lived on every CPU count, so the scripted kill below
        # always finds a live victim (pinning the kill path in every
        # cell).
        "hog", total_cpu_us=60_000, burst_us=2_500,
        priority=1, nice=-3, tickets=40,
    )
    s_short = churn.add_stream("short", PoissonArrivals(180.0, seed=5), short)
    s_staged = churn.add_stream("staged", DeterministicArrivals(13_000), staged)
    s_hogs = churn.add_stream(
        "hog", DeterministicArrivals(27_000), hogs, max_arrivals=4
    )
    script = PhaseScript()
    script.set_rate(40_000, s_short.arrivals, 60.0)
    script.kill(60_000, s_short, count=2)
    script.repin(80_000, s_staged, n_cpus - 1)
    script.retime(100_000, short, total_cpu_us=1_500)
    script.kill(120_000, s_hogs, count=1)
    churn.start(script)
    return kernel, churn


def _build_fault(
    scheduler: str, n_cpus: int
) -> tuple[Kernel, WorkloadEngine, FaultInjector]:
    """Assemble (but do not run) one fault cell.

    Open-system churn plus a scheduled :class:`FaultPlan`: a runaway
    hijack on a long-lived reserved job at 30 ms (restored at 70 ms), a
    stall window on a second reserved job at 85 ms, and, on multi-CPU
    cells only since the last CPU cannot fail, a CPU failure at 50 ms
    with recovery at 100 ms.  Under the reservation scheduler the
    4-CPU cells oversubscribe the post-failure capacity so the
    degradation chain (squish, then restore on recovery) actuates, and
    a fast watchdog quarantines and later re-promotes the runaway.  The
    baseline schedulers run the identical fault plan without the
    reservation-side machinery.
    """
    kernel = Kernel(GOLDEN_SCHEDULERS[scheduler](), n_cpus=n_cpus,
                    record_dispatches=True)
    churn = WorkloadEngine(kernel)
    # Reservations sized so the 4-CPU cells exceed the 3-CPU budget
    # after the failure (4 x 900 + 150 = 3750 > 3000) while the 1-CPU
    # cells stay admissible (2 x 220 + 150 = 590 <= 1000).
    rt_ppt = 220 if n_cpus == 1 else 900
    rt_count = 2 if n_cpus == 1 else 4
    rt = JobTemplate(
        "rt", total_cpu_us=400_000, burst_us=800, think_us=1_200,
        priority=3, nice=-2, tickets=120,
        reservation=(rt_ppt, 10_000),
    )
    victim = JobTemplate(
        # Long-lived so the runaway hijack and the post-restore tail
        # both land on a live thread in every cell.
        "victim", total_cpu_us=400_000, burst_us=900, think_us=1_500,
        priority=2, nice=0, tickets=90,
        reservation=(150, 10_000),
    )
    filler = JobTemplate(
        # Top priority/nice so the strict-priority baselines still
        # complete fillers around the saturating long-lived jobs (the
        # fillers think between short bursts, so they never starve the
        # reserved threads either).
        "filler", total_cpu_us=2_500, burst_us=600, think_us=1_000,
        priority=4, nice=-4, tickets=50,
    )
    churn.add_stream(
        "rt", DeterministicArrivals(4_000), rt, max_arrivals=rt_count
    )
    churn.add_stream(
        "victim", DeterministicArrivals(6_000), victim, max_arrivals=1
    )
    churn.add_stream("filler", PoissonArrivals(120.0, seed=11), filler)
    churn.start()
    events = [
        FaultEvent(30_000, RUNAWAY_START, thread="victim.0",
                   duration_us=40_000),
        FaultEvent(85_000, STALL_START, thread="rt.0", duration_us=25_000),
    ]
    if n_cpus > 1:
        events.append(FaultEvent(50_000, CPU_FAIL, cpu=1, duration_us=50_000))
    injector = FaultInjector(kernel, FaultPlan(events=tuple(events), seed=97))
    injector.install()
    sched_obj = kernel.scheduler
    if isinstance(sched_obj, ReservationScheduler):
        DegradationManager(kernel, sched_obj)
        Watchdog(kernel, sched_obj, period_us=10_000, miss_windows=2,
                 stall_windows=3)
    return kernel, churn, injector


def _run_cell(
    result: ExperimentResult, key: str, kernel: Kernel, churn: WorkloadEngine
) -> None:
    """Run one built cell and fold its counts into ``result``."""
    kernel.run_for(SMOKE_DURATION_US)
    result.metrics[f"{key}.dispatches"] = float(kernel.dispatch_count)
    result.metrics[f"{key}.spawned"] = float(churn.spawned_total())
    result.metrics[f"{key}.completed"] = float(churn.completed_total())
    result.metrics[f"{key}.killed"] = float(churn.killed_total())


@experiment(
    name="churn_smoke",
    description="Churn recipe under every baseline scheduler on 1 and 4 CPUs, "
    "and on a penalised topology",
    tags=("smoke", "churn", "smp", "topology"),
    params=(SEED_PARAM,),
)
def churn_smoke_experiment(*, seed: Optional[int]) -> ExperimentResult:
    """Pin the churn recipe's dispatches under every scheduler."""
    result = ExperimentResult(
        experiment_id="churn_smoke",
        title="Churn recipe: 5 schedulers x {1, 4} CPUs, plus 4 CPUs on a topology",
    )
    kernels = []
    for scheduler in GOLDEN_SCHEDULERS:
        for n_cpus in GOLDEN_CPU_COUNTS:
            kernel, churn = _build_churn(scheduler, n_cpus)
            _run_cell(result, f"{scheduler}/cpu{n_cpus}", kernel, churn)
            kernels.append(kernel)
    for scheduler in GOLDEN_SCHEDULERS:
        kernel, churn = _build_churn(scheduler, 4, topology=True)
        _run_cell(result, f"{scheduler}/cpu4/topology", kernel, churn)
        kernels.append(kernel)
    stamp_reproducibility(result, *kernels)
    result.notes.append(_NOTE)
    return result


@experiment(
    name="fault_smoke",
    description="Fault-dense churn under every baseline scheduler on 1 and 4 CPUs",
    tags=("smoke", "faults", "smp"),
    params=(SEED_PARAM,),
)
def fault_smoke_experiment(*, seed: Optional[int]) -> ExperimentResult:
    """Pin the fault recipe's dispatches under every scheduler."""
    result = ExperimentResult(
        experiment_id="fault_smoke",
        title="Fault recipe: 5 schedulers x {1, 4} CPUs",
    )
    kernels = []
    for scheduler in GOLDEN_SCHEDULERS:
        for n_cpus in GOLDEN_CPU_COUNTS:
            key = f"{scheduler}/cpu{n_cpus}"
            kernel, churn, injector = _build_fault(scheduler, n_cpus)
            _run_cell(result, key, kernel, churn)
            result.metrics[f"{key}.faults_hit"] = float(injector.hits())
            kernels.append(kernel)
    stamp_reproducibility(result, *kernels)
    result.notes.append(_NOTE)
    return result


__all__ = [
    "GOLDEN_CPU_COUNTS",
    "GOLDEN_SCHEDULERS",
    "SMOKE_DURATION_US",
    "churn_smoke_experiment",
    "fault_smoke_experiment",
]
