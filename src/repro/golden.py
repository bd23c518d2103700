"""Golden-trace conformance corpus.

A *golden trace* pins the exact dispatch behaviour of a small but
eventful scenario for **every scheduler policy x 1 and 4 CPUs**.  Each committed corpus file holds one fingerprint per
combination; ``tests/test_golden.py`` re-runs each combination and
diffs the fresh fingerprint against the corpus, so any change that
moves a single dispatch-log entry anywhere in the matrix fails loudly
and reviewably.

Three scenarios are pinned (:data:`GOLDEN_SCENARIOS`):

* ``churn_smoke`` (``tests/golden/churn_smoke.json``) — the open-system
  churn scenario: arrivals, finite jobs, kills, re-pins, a rate change.
* ``topology_placement`` (``tests/golden/topology_placement.json``) —
  the same churn recipe on a kernel with a penalised CPU topology and
  cache-warm placement, pinning migration-penalty charging.
* ``fault_smoke`` (``tests/golden/fault_smoke.json``) — a fault-dense
  scenario layered on the same churn machinery: a scheduled runaway
  hijack (quarantined by the watchdog under the reservation scheduler),
  a stall window, and — on the multi-CPU cells — a mid-run CPU failure
  with recovery, exercising drain/re-place and the graceful-degradation
  chain.

Refreshing the corpora after an *intentional* behaviour change::

    python -m repro golden --regen     # rewrite every corpus
    python -m repro golden             # verify all (CI does this too)

The scenarios only use integer virtual time and seeded ``random``
streams, so fingerprints are machine-independent for a given CPython
family; if a platform's libm ever rounds an exponential draw
differently, regenerate and commit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro._version import __version__
from repro.core.artifacts import write_atomic
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
from repro.sched.placement import CacheWarmPlacement
from repro.sched.lottery import LotteryScheduler
from repro.sched.priority import FixedPriorityScheduler
from repro.sched.rbs import ReservationScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.kernel import Kernel
from repro.sim.topology import CpuTopology
from repro.workloads.arrivals import DeterministicArrivals, PoissonArrivals
from repro.workloads.engine import (
    JobTemplate,
    PhaseScript,
    WorkloadEngine,
    dispatch_fingerprint,
)

#: Version of the corpus file layout.
GOLDEN_SCHEMA_VERSION = 1

#: The default scenario identifier (the original single-scenario corpus).
GOLDEN_SCENARIO = "churn_smoke"

#: Virtual duration of one golden churn run.
GOLDEN_DURATION_US = 150_000

#: Virtual duration of one golden fault run.
GOLDEN_FAULT_DURATION_US = 150_000

#: Default corpus location (relative to the repository root).
DEFAULT_CORPUS_PATH = "tests/golden/churn_smoke.json"

#: Corpus location of the fault-dense scenario.
FAULT_CORPUS_PATH = "tests/golden/fault_smoke.json"

#: Corpus location of the topology-placement scenario.
TOPOLOGY_CORPUS_PATH = "tests/golden/topology_placement.json"

#: The five dispatch policies covered by the corpus.
GOLDEN_SCHEDULERS: dict[str, Callable[[], Scheduler]] = {
    "rbs": ReservationScheduler,
    "round_robin": RoundRobinScheduler,
    "priority": FixedPriorityScheduler,
    "lottery": lambda: LotteryScheduler(seed=7),
    "goodness": LinuxGoodnessScheduler,
}

#: CPU counts in the matrix.
GOLDEN_CPU_COUNTS = (1, 4)


def _scheduler_factory(scheduler: str) -> Callable[[], Scheduler]:
    factory = GOLDEN_SCHEDULERS.get(scheduler)
    if factory is None:
        raise ValueError(
            f"unknown golden scheduler {scheduler!r}; "
            f"known: {sorted(GOLDEN_SCHEDULERS)}"
        )
    return factory


def _attach_churn_recipe(kernel: Kernel, n_cpus: int) -> WorkloadEngine:
    """Attach the shared churn-smoke recipe to an assembled kernel.

    Used verbatim by ``churn_smoke`` and, on a topology-enabled kernel,
    by ``topology_placement`` — one recipe, so the two scenarios differ
    only in the kernel (and placement policy) under test.
    """
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
        # corpus cell).
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
    return churn


def build_golden(scheduler: str, n_cpus: int) -> tuple[Kernel, WorkloadEngine]:
    """Assemble (but do not run) one golden churn-scenario kernel.

    The scenario is deliberately churn-dense for its 150 ms: a Poisson
    stream of short think-y jobs, a deterministic stream of I/O-staged
    jobs with per-index pins and (under the reservation scheduler) a
    hard reservation, and a phase script that re-rates the Poisson
    stream, kills jobs mid-run, re-pins the I/O stream and retimes the
    short jobs' demand.  Thread parameters (priority, nice, tickets)
    are varied so every baseline policy has something to order by.
    """
    factory = _scheduler_factory(scheduler)
    kernel = Kernel(factory(), n_cpus=n_cpus, record_dispatches=True)
    return kernel, _attach_churn_recipe(kernel, n_cpus)


def build_topology_golden(
    scheduler: str, n_cpus: int
) -> tuple[Kernel, WorkloadEngine]:
    """Assemble one golden cell of the topology-placement scenario.

    The identical churn recipe as ``churn_smoke``, but on a kernel
    built with a penalised :class:`CpuTopology` (``2x1x2`` — two
    sockets of one two-way-SMT core — on the 4-CPU cells, trivial
    ``1x1x1`` on the 1-CPU cells) and the cache-warm placement policy,
    pinning migration-penalty charging and topology-aware placement
    across every scheduler x CPU-count combination.
    """
    factory = _scheduler_factory(scheduler)
    if n_cpus == 1:
        topology = CpuTopology.from_spec("1x1x1")
    else:
        topology = CpuTopology(
            sockets=2,
            cores_per_socket=n_cpus // 4 or 1,
            threads_per_core=2,
            smt_migration_us=25,
            core_migration_us=80,
            socket_migration_us=200,
        )
    sched_obj = factory()
    sched_obj.placement = CacheWarmPlacement(topology)
    kernel = Kernel(sched_obj, n_cpus=n_cpus, topology=topology,
                    record_dispatches=True)
    return kernel, _attach_churn_recipe(kernel, n_cpus)


def build_fault_golden(
    scheduler: str, n_cpus: int
) -> tuple[Kernel, WorkloadEngine]:
    """Assemble (but do not run) one golden fault-scenario kernel.

    Open-system churn plus a scheduled :class:`FaultPlan`: a runaway
    hijack on a long-lived reserved job at 30 ms (restored at 70 ms), a
    stall window on a second reserved job at 85 ms, and — multi-CPU
    cells only, since the last CPU cannot fail — a CPU failure at 50 ms
    with recovery at 100 ms.  Under the reservation scheduler the
    4-CPU cells oversubscribe the post-failure capacity so the
    degradation chain (squish, then restore on recovery) actuates, and
    a fast watchdog quarantines and later re-promotes the runaway.  The
    baseline schedulers run the identical fault plan without the
    reservation-side machinery.
    """
    factory = _scheduler_factory(scheduler)
    kernel = Kernel(factory(), n_cpus=n_cpus, record_dispatches=True)
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
    return kernel, churn


@dataclass(frozen=True)
class GoldenScenario:
    """One pinned scenario: its builder, duration and corpus home."""

    name: str
    builder: Callable[[str, int], tuple[Kernel, WorkloadEngine]]
    duration_us: int
    corpus_path: str
    description: str


#: Every pinned scenario, in corpus order.
GOLDEN_SCENARIOS: dict[str, GoldenScenario] = {
    "churn_smoke": GoldenScenario(
        name="churn_smoke",
        builder=build_golden,
        duration_us=GOLDEN_DURATION_US,
        corpus_path=DEFAULT_CORPUS_PATH,
        description="open-system churn: arrivals, kills, re-pins, re-rates",
    ),
    "fault_smoke": GoldenScenario(
        name="fault_smoke",
        builder=build_fault_golden,
        duration_us=GOLDEN_FAULT_DURATION_US,
        corpus_path=FAULT_CORPUS_PATH,
        description=(
            "fault-dense churn: runaway quarantine, stall window, "
            "mid-run CPU failure and recovery"
        ),
    ),
    "topology_placement": GoldenScenario(
        name="topology_placement",
        builder=build_topology_golden,
        duration_us=GOLDEN_DURATION_US,
        corpus_path=TOPOLOGY_CORPUS_PATH,
        description=(
            "churn on a sockets/SMT topology kernel: migration "
            "penalties charged, cache-warm placement"
        ),
    ),
}


def scenario_spec(scenario: str) -> GoldenScenario:
    """Resolve a scenario name, raising ``ValueError`` when unknown."""
    spec = GOLDEN_SCENARIOS.get(scenario)
    if spec is None:
        raise ValueError(
            f"unknown golden scenario {scenario!r}; "
            f"known: {sorted(GOLDEN_SCENARIOS)}"
        )
    return spec


def entry_key(scheduler: str, n_cpus: int) -> str:
    """Corpus key for one matrix cell."""
    return f"{scheduler}/cpu{n_cpus}"


def iter_matrix() -> Iterator[tuple[str, int]]:
    """All (scheduler, n_cpus) combinations in corpus order."""
    for scheduler in GOLDEN_SCHEDULERS:
        for n_cpus in GOLDEN_CPU_COUNTS:
            yield scheduler, n_cpus


def run_golden(
    scheduler: str, n_cpus: int, scenario: str = GOLDEN_SCENARIO,
) -> dict:
    """Run one matrix cell of ``scenario``; returns its corpus entry."""
    spec = scenario_spec(scenario)
    kernel, churn = spec.builder(scheduler, n_cpus)
    kernel.run_for(spec.duration_us)
    return {
        "dispatch_sha256": dispatch_fingerprint(kernel),
        "dispatches": kernel.dispatch_count,
        "spawned": churn.spawned_total(),
        "completed": churn.completed_total(),
        "killed": churn.killed_total(),
    }


def compute_corpus(scenario: str = GOLDEN_SCENARIO) -> dict:
    """Run the full matrix of ``scenario``; returns the corpus structure."""
    spec = scenario_spec(scenario)
    return {
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "kind": "golden_corpus",
        "scenario": spec.name,
        "duration_us": spec.duration_us,
        "repro_version": __version__,
        "entries": {
            entry_key(*cell): run_golden(*cell, scenario=spec.name)
            for cell in iter_matrix()
        },
    }


def load_corpus(path: str) -> dict:
    """Load and structurally validate a committed corpus file."""
    with open(path) as handle:
        corpus = json.load(handle)
    if corpus.get("kind") != "golden_corpus":
        raise ValueError(f"{path!r} is not a golden corpus")
    if corpus.get("schema_version") != GOLDEN_SCHEMA_VERSION:
        raise ValueError(
            f"{path!r} has schema version {corpus.get('schema_version')!r}, "
            f"expected {GOLDEN_SCHEMA_VERSION}"
        )
    return corpus


def write_corpus(path: str, scenario: str = GOLDEN_SCENARIO) -> dict:
    """Regenerate the corpus of ``scenario`` and write it to ``path``."""
    corpus = compute_corpus(scenario)
    write_atomic(path, json.dumps(corpus, indent=2, sort_keys=True) + "\n")
    return corpus


def verify_cell(corpus: dict, scheduler: str, n_cpus: int) -> Optional[str]:
    """Diff one fresh cell against the corpus; ``None`` when it conforms."""
    scenario = corpus.get("scenario", GOLDEN_SCENARIO)
    key = entry_key(scheduler, n_cpus)
    expected = corpus.get("entries", {}).get(key)
    if expected is None:
        return f"{key}: missing from corpus (run `python -m repro golden --regen`)"
    fresh = run_golden(scheduler, n_cpus, scenario)
    if fresh != expected:
        detail = ", ".join(
            f"{field}: {expected.get(field)!r} -> {fresh.get(field)!r}"
            for field in sorted(set(expected) | set(fresh))
            if expected.get(field) != fresh.get(field)
        )
        return f"{key}: diverged ({detail})"
    return None


def verify_corpus(corpus: dict) -> list[str]:
    """Re-run the whole matrix; returns mismatch messages (empty = ok)."""
    scenario = corpus.get("scenario", GOLDEN_SCENARIO)
    if scenario not in GOLDEN_SCENARIOS:
        return [
            f"{scenario}: unknown golden scenario "
            f"(known: {sorted(GOLDEN_SCENARIOS)})"
        ]
    mismatches = []
    for cell in iter_matrix():
        message = verify_cell(corpus, *cell)
        if message is not None:
            mismatches.append(message)
    known = {entry_key(*cell) for cell in iter_matrix()}
    for key in sorted(set(corpus.get("entries", {})) - known):
        mismatches.append(f"{key}: corpus entry has no matching matrix cell")
    return mismatches


__all__ = [
    "DEFAULT_CORPUS_PATH",
    "FAULT_CORPUS_PATH",
    "GOLDEN_CPU_COUNTS",
    "GOLDEN_DURATION_US",
    "GOLDEN_FAULT_DURATION_US",
    "GOLDEN_SCENARIO",
    "GOLDEN_SCENARIOS",
    "GOLDEN_SCHEDULERS",
    "GOLDEN_SCHEMA_VERSION",
    "GoldenScenario",
    "TOPOLOGY_CORPUS_PATH",
    "build_fault_golden",
    "build_golden",
    "build_topology_golden",
    "compute_corpus",
    "entry_key",
    "iter_matrix",
    "load_corpus",
    "run_golden",
    "scenario_spec",
    "verify_cell",
    "verify_corpus",
    "write_corpus",
]
