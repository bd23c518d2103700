"""Topology-aware placement — an extension experiment beyond the paper.

The paper's prototype is a single 400 MHz CPU; placement does not
exist there.  The SMP extension gave the kernel a flat placement
policy (least-loaded balancing), which happily bounces a thread
between sockets every round — free in a flat model, expensive on real
hardware.  This experiment gives the kernel a
:class:`~repro.sim.topology.CpuTopology` (sockets x cores x SMT
threads with per-domain migration penalties, charged in virtual time)
and runs the *same* reserved workload, same seed, twice:

* **flat** — :class:`~repro.sched.placement.LeastLoadedPlacement`,
  blind to the topology, paying whatever migration penalties its
  round-to-round churn incurs;
* **aware** — a topology-aware policy
  (:class:`~repro.sched.placement.CacheWarmPlacement` by default, or
  :class:`~repro.sched.placement.NumaPackPlacement` via the
  ``placement`` parameter) on an identical kernel.

Both passes report deadline misses, migration counts and the virtual
microseconds charged to migrations; the reproduced claim is that
topology-aware placement cuts migrations (and the stolen time they
cost) without giving up the reservation guarantees.  Mid-run re-pin
events exercise live affinity changes, and the dispatch fingerprint is
stamped so any run can be diffed bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.analysis.results import ExperimentResult
from repro.experiments.params import stamp_reproducibility
from repro.experiments.registry import Param, experiment
from repro.sched.placement import (
    CacheWarmPlacement,
    LeastLoadedPlacement,
    NumaPackPlacement,
    PlacementPolicy,
)
from repro.sched.rbs import ReservationScheduler
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Sleep
from repro.sim.thread import ThreadEnv
from repro.sim.topology import CpuTopology

#: Placement choices selectable via the ``placement`` parameter.
AWARE_POLICIES = ("cache_warm", "numa_pack")


def _jittered_worker(compute_us: int, sleep_us: int, jitter: tuple[int, ...]):
    """A periodic thread whose think time cycles a pre-seeded jitter.

    The jitter tuple is drawn once, outside the kernel, from the
    experiment seed — both passes replay the exact same sequence, so
    every behavioural difference is the placement policy's.
    """

    def body(env: ThreadEnv):
        index = 0
        while True:
            yield Compute(compute_us)
            yield Sleep(sleep_us + jitter[index % len(jitter)])
            index += 1

    return body


def _run_pass(
    *,
    topology: CpuTopology,
    placement: PlacementPolicy,
    n_groups: int,
    group_size: int,
    rt_ppt: int,
    n_best_effort: int,
    duration_us: int,
    seed: int,
) -> tuple[Kernel, ReservationScheduler]:
    scheduler = ReservationScheduler()
    scheduler.placement = placement
    kernel = Kernel(
        scheduler,
        n_cpus=topology.n_cpus,
        topology=topology,
        record_dispatches=True,
    )
    rng = random.Random(seed)
    pinned = []
    for group in range(n_groups):
        for index in range(group_size):
            jitter = tuple(rng.randrange(0, 1_500) for _ in range(16))
            thread = kernel.spawn(
                f"pool{group}.{index}",
                _jittered_worker(
                    compute_us=1_800 + 400 * group, sleep_us=2_500,
                    jitter=jitter,
                ),
            )
            scheduler.set_reservation(thread, rt_ppt, 10_000)
            pinned.append(thread)
    for index in range(n_best_effort):
        jitter = tuple(rng.randrange(0, 900) for _ in range(16))
        kernel.spawn(
            f"be.{index}",
            _jittered_worker(compute_us=1_200, sleep_us=600, jitter=jitter),
        )
    # Mid-run re-pins force at least one migration per pass, so the
    # counters are exercised even by the aware policy.
    victim = pinned[0]
    last_cpu = topology.n_cpus - 1
    kernel.events.schedule(
        duration_us * 2 // 5, lambda: victim.pin_to(last_cpu),
        label="topology.pin",
    )
    kernel.events.schedule(
        duration_us * 3 // 5, lambda: victim.pin_to(None),
        label="topology.unpin",
    )
    kernel.run_until(duration_us)
    return kernel, scheduler


@experiment(
    name="topology_placement",
    description="Flat vs topology-aware placement: migrations, migration cost, deadline misses",
    tags=("extension", "smp", "topology", "placement"),
    params=(
        Param("topology", kind="str", default="2x2x2",
              help="sockets x cores x SMT spec, e.g. 2x4x2"),
        Param("smt_migration_us", kind="int", default=25, minimum=0,
              help="penalty for moving between SMT siblings"),
        Param("core_migration_us", kind="int", default=80, minimum=0,
              help="penalty for moving across cores of one socket"),
        Param("socket_migration_us", kind="int", default=200, minimum=0,
              help="penalty for moving across sockets"),
        Param("placement", kind="str", default="cache_warm",
              choices=AWARE_POLICIES,
              help="topology-aware policy run against the flat baseline"),
        Param("n_groups", kind="int", default=2, minimum=1,
              help="reservation groups (dotted name prefixes)"),
        Param("group_size", kind="int", default=3, minimum=1,
              help="reserved threads per group"),
        Param("rt_ppt", kind="int", default=180, minimum=1, maximum=1000),
        Param("n_best_effort", kind="int", default=2, minimum=0),
        Param("duration_s", kind="float", default=1.0, minimum=0.05),
        Param("seed", kind="int", default=41),
    ),
    quick={"duration_s": 0.4},
)
def topology_placement_experiment(
    *,
    topology: str,
    smt_migration_us: int,
    core_migration_us: int,
    socket_migration_us: int,
    placement: str,
    n_groups: int,
    group_size: int,
    rt_ppt: int,
    n_best_effort: int,
    duration_s: float,
    seed: Optional[int],
) -> ExperimentResult:
    """Does topology awareness cut migration cost without hurting deadlines?

    With the default 2x2x2 topology (8 CPUs: 2 sockets x 2 cores x 2
    SMT threads) the flat policy's load-balancing churn crosses sockets
    freely; the cache-warm policy keeps each thread on (or near) its
    last CPU, so its ``migration_us`` collapses while the reservation
    deadline misses stay essentially unchanged.
    """
    topo = CpuTopology.from_spec(
        topology,
        smt_migration_us=smt_migration_us,
        core_migration_us=core_migration_us,
        socket_migration_us=socket_migration_us,
    )
    aware_policy: PlacementPolicy
    if placement == "cache_warm":
        aware_policy = CacheWarmPlacement(topo)
    elif placement == "numa_pack":
        aware_policy = NumaPackPlacement(topo)
    else:  # registry validates choices; defensive for direct callers
        raise ValueError(
            f"placement must be one of {AWARE_POLICIES}, got {placement!r}"
        )
    kwargs = dict(
        topology=topo,
        n_groups=n_groups,
        group_size=group_size,
        rt_ppt=rt_ppt,
        n_best_effort=n_best_effort,
        duration_us=int(duration_s * 1_000_000),
        seed=seed or 0,
    )
    flat_kernel, flat_sched = _run_pass(
        placement=LeastLoadedPlacement(), **kwargs
    )
    aware_kernel, aware_sched = _run_pass(placement=aware_policy, **kwargs)

    result = ExperimentResult(
        experiment_id="topology_placement",
        title="Flat vs topology-aware placement on a sockets/SMT kernel",
    )
    for label, kernel, scheduler in (
        ("flat", flat_kernel, flat_sched),
        ("aware", aware_kernel, aware_sched),
    ):
        result.metrics[f"misses_{label}"] = float(scheduler.deadline_misses())
        result.metrics[f"migrations_{label}"] = float(kernel.migrations)
        result.metrics[f"migration_ms_{label}"] = kernel.migration_us / 1_000.0
        result.metrics[f"idle_ms_{label}"] = kernel.idle_us / 1_000.0
        result.metrics[f"conservation_ok_{label}"] = float(
            kernel.conservation_gap_us() == 0
        )
    result.metrics["migration_ms_saved"] = (
        flat_kernel.migration_us - aware_kernel.migration_us
    ) / 1_000.0
    result.metrics["migrations_saved"] = float(
        flat_kernel.migrations - aware_kernel.migrations
    )
    result.metadata["topology"] = topo.spec()
    result.metadata["aware_placement"] = placement
    result.metadata["per_cpu_migrations_flat"] = [
        state.migrations for state in flat_kernel.cpu_states
    ]
    result.metadata["per_cpu_migrations_aware"] = [
        state.migrations for state in aware_kernel.cpu_states
    ]
    stamp_reproducibility(result, flat_kernel, aware_kernel)
    result.notes.append(
        "extension beyond the paper: the single-CPU prototype has no "
        "placement; the reproduced claim is that distance-aware placement "
        "(last CPU, then SMT sibling, then socket) eliminates most "
        "migration-penalty time charged by the topology model while the "
        "reservation misses stay essentially unchanged from the flat "
        "baseline."
    )
    return result


__all__ = ["topology_placement_experiment"]
