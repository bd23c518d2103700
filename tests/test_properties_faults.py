"""Property-based fault-churn invariants (the robustness contract).

Hypothesis layers random fault plans — CPU fail/recover windows, thread
runaways, stalls, and controller sensor faults — on top of random
open-system churn workloads, with the degradation manager and watchdog
armed, and asserts the invariants that must survive any such sequence:

* **conservation** — the extended identity
  ``total_thread_cpu + idle + stolen + offline == n_cpus * now`` holds
  at every checkpoint, so hotplug never leaks or double-charges time;
* **no lost, no double-dispatched threads** — stream bookkeeping adds
  up, every thread exists once, nothing runs after exiting, and no SMP
  round dispatches a thread on two CPUs — even while CPUs drain and
  hijacked bodies are swapped in and out.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ControllerConfig
from repro.faults import (
    CPU_FAIL,
    RUNAWAY_START,
    SENSOR_CORRUPT,
    SENSOR_DROPOUT,
    STALL_START,
    DegradationManager,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.monitor.watchdog import Watchdog
from repro.sched.placement import (
    CacheWarmPlacement,
    LeastLoadedPlacement,
    NumaPackPlacement,
    PlacementPolicy,
)
from repro.sched.rbs import ReservationScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Sleep
from repro.sim.thread import SimThread, ThreadState
from repro.sim.topology import CpuTopology
from repro.system import build_real_rate_system

from tests.conftest import heaviest_first
from tests.test_properties_churn import (
    DURATION_US,
    assert_no_lost_no_double,
    build_churn,
    stream_specs,
)

#: One injected fault: (time, kind knob, target knob, duration).
fault_specs = st.lists(
    st.tuples(
        st.integers(min_value=5_000, max_value=DURATION_US - 20_000),
        st.sampled_from(["cpu", "runaway", "stall"]),
        st.integers(min_value=0, max_value=5),
        st.sampled_from([8_000, 15_000, 25_000]),
    ),
    min_size=1,
    max_size=4,
)


def fault_plan(n_cpus, n_streams, faults, seed=17):
    """Translate strategy tuples into a (possibly missing-target) plan."""
    events = []
    for at_us, kind, target, duration in faults:
        if kind == "cpu":
            if n_cpus == 1:
                continue  # the last online CPU cannot fail
            events.append(
                FaultEvent(
                    at_us, CPU_FAIL, cpu=1 + target % (n_cpus - 1),
                    duration_us=duration,
                )
            )
        else:
            fault = RUNAWAY_START if kind == "runaway" else STALL_START
            # Target early job indices; a name that never spawned is a
            # logged miss.
            name = f"s{target % n_streams}.{target % 3}"
            events.append(
                FaultEvent(at_us, fault, thread=name, duration_us=duration)
            )
    return FaultPlan(events=tuple(events), seed=seed)


def build_faulty_churn(n_cpus, specs, faults):
    kernel, churn = build_churn("rbs", n_cpus, specs, [])
    injector = FaultInjector(
        kernel, fault_plan(n_cpus, len(specs), faults)
    )
    injector.install()
    DegradationManager(kernel, kernel.scheduler)
    Watchdog(
        kernel, kernel.scheduler,
        period_us=10_000, miss_windows=2, stall_windows=3,
    )
    return kernel, churn, injector


@pytest.mark.parametrize("n_cpus", [1, 4])
@settings(max_examples=12, deadline=None)
@given(specs=stream_specs, faults=fault_specs)
def test_fault_churn_invariants(n_cpus, specs, faults):
    kernel, churn, _injector = build_faulty_churn(n_cpus, specs, faults)
    # Conservation must hold at arbitrary checkpoints, including ones
    # that land inside fault windows.
    for _ in range(3):
        kernel.run_for(DURATION_US // 3)
        assert kernel.conservation_gap_us() == 0
    assert_no_lost_no_double(kernel, churn)


@settings(max_examples=10, deadline=None)
@given(
    specs=stream_specs,
    faults=fault_specs,
    checkpoints=st.lists(
        st.integers(min_value=4_000, max_value=40_000), min_size=2, max_size=4
    ),
)
def test_conservation_at_irregular_checkpoints(specs, faults, checkpoints):
    """Run lengths chosen independently of the fault times: conservation
    and liveness bookkeeping hold no matter where the run pauses."""
    kernel, churn, injector = build_faulty_churn(4, specs, faults)
    for segment in checkpoints:
        kernel.run_for(segment)
        assert kernel.conservation_gap_us() == 0
        online = sum(1 for c in kernel.cpu_states if c.online)
        assert online == kernel.online_cpu_count
        assert 1 <= online <= 4
    assert_no_lost_no_double(kernel, churn)
    # Every planned event either hit or was recorded as a miss — the
    # injector never drops an event silently.
    due = [e for e in injector.plan.events if e.at_us < kernel.now]
    assert len(injector.log) >= len(due)


#: Sensor fault windows aimed at controlled threads ``c0``/``c1``.
sensor_specs = st.lists(
    st.tuples(
        st.integers(min_value=10_000, max_value=80_000),
        st.sampled_from(["dropout", "corrupt"]),
        st.integers(min_value=0, max_value=2),   # target (c2 never exists)
        st.sampled_from([10_000, 20_000]),
    ),
    min_size=1,
    max_size=3,
)


def thinker(burst_us, think_us):
    def body(env):
        while True:
            yield Compute(burst_us)
            yield Sleep(think_us)

    return body


@settings(max_examples=10, deadline=None)
@given(sensors=sensor_specs)
def test_sensor_faults_conserve(sensors):
    """Dropout / corruption windows on controller sensors leave the
    conservation identity intact."""
    events = tuple(
        FaultEvent(
            at_us,
            SENSOR_DROPOUT if mode == "dropout" else SENSOR_CORRUPT,
            thread=f"c{target}",
            duration_us=duration,
            magnitude=0.3 if mode == "corrupt" else 0.0,
        )
        for at_us, mode, target, duration in sensors
    )
    system = build_real_rate_system(
        ControllerConfig(),
        charge_dispatch_overhead=False,
        charge_controller_overhead=False,
    )
    kernel = system.kernel
    system.spawn_controlled("c0", thinker(800, 1_200))
    system.spawn_controlled("c1", thinker(500, 2_000))
    injector = FaultInjector(
        kernel, FaultPlan(events=events, seed=23),
        allocator=system.allocator,
    )
    injector.install()
    kernel.run_for(120_000)
    assert kernel.conservation_gap_us() == 0


# ---------------------------------------------------------------------------
# Placement / topology properties
# ---------------------------------------------------------------------------
#: Every placement policy, flat and topology-aware, built for the
#: 8-CPU 2x2x2 topology used by the offline-safety property.
_PLACEMENT_TOPO = CpuTopology.from_spec("2x2x2")
_PLACEMENT_POLICIES = {
    "least_loaded": lambda: LeastLoadedPlacement(),
    "cache_warm": lambda: CacheWarmPlacement(_PLACEMENT_TOPO),
    "numa_pack": lambda: NumaPackPlacement(_PLACEMENT_TOPO),
}


@settings(max_examples=40, deadline=None)
@given(
    policy_name=st.sampled_from(sorted(_PLACEMENT_POLICIES)),
    n_threads=st.integers(min_value=1, max_value=8),
    online=st.sets(
        st.integers(min_value=0, max_value=7), min_size=1, max_size=8
    ),
    pins=st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
        min_size=8, max_size=8,
    ),
    last_cpus=st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
        min_size=8, max_size=8,
    ),
    weights=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=8, max_size=8
    ),
)
def test_no_policy_ever_places_on_an_offline_cpu(
    policy_name, n_threads, online, pins, last_cpus, weights
):
    """Whatever the pins, history and online subset, every policy maps
    every thread to an *online* CPU — honouring online pins exactly and
    sending offline pins to the lowest-numbered online CPU (the
    kernel's drain target)."""
    policy = _PLACEMENT_POLICIES[policy_name]()
    threads = []
    for i in range(n_threads):
        thread = SimThread(f"t{i}")
        thread.affinity = pins[i]  # direct set: offline pins allowed here
        thread.last_cpu = last_cpus[i]
        threads.append(thread)
    online_tuple = tuple(sorted(online))
    mapping = policy.assign(
        heaviest_first(threads, lambda t: weights[int(t.name[1:])]),
        8,
        online=online_tuple,
    )
    assert set(mapping) == {t.tid for t in threads}
    for thread in threads:
        cpu = mapping[thread.tid]
        assert cpu in online, (
            f"{policy_name} placed {thread.name} on offline CPU {cpu}"
        )
        if thread.affinity is not None:
            expected = (
                thread.affinity
                if thread.affinity in online
                else online_tuple[0]
            )
            assert cpu == expected, (
                f"{policy_name} broke the pin/fallback contract for "
                f"{thread.name}: pin {thread.affinity} -> {cpu}"
            )


class _PlacementKernel:
    """Just enough kernel for ``place_threads``: 8 CPUs, some online."""

    n_cpus = 8
    now = 0
    dispatch_interval_us = 1_000

    def __init__(self, online: tuple[int, ...]) -> None:
        self.online = online

    @property
    def offline_cpu_count(self) -> int:
        return self.n_cpus - len(self.online)

    @property
    def online_cpu_count(self) -> int:
        return len(self.online)

    def online_cpu_indices(self) -> tuple[int, ...]:
        return self.online


class _RecordingPlacement(PlacementPolicy):
    """Hands ``assign`` on to ``inner``, keeping every order it got."""

    def __init__(self, inner: PlacementPolicy) -> None:
        self.inner = inner
        self.orders: list = []

    def assign(self, order, n_cpus, online=None):
        self.orders.append(list(order))
        return self.inner.assign(order, n_cpus, online)


@pytest.mark.parametrize("policy_name", sorted(_PLACEMENT_POLICIES))
@settings(max_examples=30, deadline=None)
@given(
    scheduler_name=st.sampled_from(["rbs", "round_robin"]),
    online=st.sets(
        st.integers(min_value=0, max_value=7), min_size=1, max_size=8
    ),
    pins=st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
        min_size=8, max_size=8,
    ),
    last_cpus=st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
        min_size=8, max_size=8,
    ),
    ppts=st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=400)),
        min_size=8, max_size=8,
    ),
    states=st.lists(
        st.sampled_from(["ready", "running", "blocked", "stale"]),
        min_size=8, max_size=8,
    ),
    registration=st.permutations(range(8)),
    rewake=st.permutations(range(8)),
)
def test_placement_depends_only_on_the_runnable_set(
    policy_name, scheduler_name, online, pins, last_cpus, ppts, states,
    registration, rewake,
):
    """``place_threads`` hands the policy the heaviest-first order of
    the runnable set, and the mapping is the same whatever order the
    threads were registered and woken in.  ``stale`` threads are
    blocked but still in the ready hints; reservations weigh their
    proportion (RBS) and everything else weighs 1."""
    threads = [SimThread(f"g{i % 3}.{i}") for i in range(8)]
    for thread, pin, last in zip(threads, pins, last_cpus):
        thread.affinity = pin  # direct set: offline pins allowed here
        thread.last_cpu = last
    online_tuple = tuple(sorted(online))
    mappings = []
    for shuffled in (False, True):
        scheduler = (
            ReservationScheduler() if scheduler_name == "rbs"
            else RoundRobinScheduler()
        )
        policy = _RecordingPlacement(_PLACEMENT_POLICIES[policy_name]())
        scheduler.placement = policy
        scheduler.attach(_PlacementKernel(online_tuple))
        for index in registration if shuffled else range(8):
            thread = threads[index]
            thread.sched_data.clear()
            thread.state = ThreadState.READY
            scheduler.add_thread(thread)
        if scheduler_name == "rbs":
            for thread, ppt in zip(threads, ppts):
                if ppt is not None:
                    scheduler.set_reservation(thread, ppt, 10_000, now=0)
        if shuffled:
            # Block and wake every thread in another order: the ready
            # hints now hold them in that order.
            for index in rewake:
                scheduler.on_block(threads[index], 0)
                scheduler.on_ready(threads[index], 0)
        for thread, state in zip(threads, states):
            if state == "running":
                thread.state = ThreadState.RUNNING
            elif state == "blocked":
                thread.state = ThreadState.BLOCKED
                scheduler.on_block(thread, 0)
            elif state == "stale":
                thread.state = ThreadState.BLOCKED
        mapping = scheduler.place_threads(0)
        runnable = scheduler.runnable_threads()
        assert {t.tid for t in runnable} == {
            t.tid for t in threads if t.state.is_runnable
        }
        assert policy.orders == [
            sorted(
                (-scheduler.placement_weight(t), t.tid, t) for t in runnable
            )
        ]
        assert set(mapping) == {t.tid for t in runnable}
        mappings.append(mapping)
    assert mappings[0] == mappings[1]


@pytest.mark.parametrize("policy_name", ["cache_warm", "numa_pack"])
@settings(max_examples=8, deadline=None)
@given(
    faults=fault_specs,
    pins=st.lists(
        st.tuples(
            st.integers(min_value=5_000, max_value=DURATION_US - 10_000),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=4),   # 4 == unpin
        ),
        min_size=0, max_size=3,
    ),
)
def test_migration_penalties_conserve_under_hotplug(policy_name, faults, pins):
    """Random CPU fail/recover windows plus random re-pins on a
    penalised topology kernel: the extended conservation identity
    (migration time charged as stolen) holds at every checkpoint and
    the migration totals match the per-CPU counters."""
    topo = CpuTopology(
        sockets=2, cores_per_socket=1, threads_per_core=2,
        smt_migration_us=25, core_migration_us=80, socket_migration_us=200,
    )
    scheduler = ReservationScheduler()
    scheduler.placement = (
        CacheWarmPlacement(topo) if policy_name == "cache_warm"
        else NumaPackPlacement(topo)
    )
    kernel = Kernel(scheduler, n_cpus=4, topology=topo)
    threads = []
    for i in range(6):
        thread = kernel.spawn(f"grp{i % 2}.{i}", thinker(1_500, 2_000))
        threads.append(thread)
    scheduler.set_reservation(threads[0], 200, 10_000)
    injector = FaultInjector(kernel, fault_plan(4, 2, faults))
    injector.install()
    for at_us, victim, target in pins:
        def repin(victim=victim, target=target):
            thread = threads[victim % len(threads)]
            if target == 4:
                thread.pin_to(None)
            elif kernel.cpu_is_online(target):
                # An offline target would raise; the online set at
                # a given virtual time is fixed, so skipping is
                # deterministic too.
                thread.pin_to(target)
        kernel.events.schedule(at_us, repin, label="prop.repin")
    for _ in range(3):
        kernel.run_for(DURATION_US // 3)
        assert kernel.conservation_gap_us() == 0
    assert kernel.migration_us == sum(
        c.migration_us for c in kernel.cpu_states
    )
    assert kernel.migrations == sum(
        c.migrations for c in kernel.cpu_states
    )
