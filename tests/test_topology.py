"""CPU topology model, topology-aware placement and migration accounting.

Covers the :class:`~repro.sim.topology.CpuTopology` model itself, the
two topology-aware placement policies, the placement edge-case fixes
(empty online set, out-of-range affinity, the unified offline-pin
fallback), migration counting and virtual-time penalty charging in the
kernel, and the byte-identity guarantees the ``topology_placement``
experiment rides on.
"""

import pytest

from repro.sched.placement import (
    CacheWarmPlacement,
    LeastLoadedPlacement,
    NumaPackPlacement,
)
from repro.sched.rbs import ReservationScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.errors import SchedulerError
from repro.sim.kernel import Kernel
from repro.sim.thread import SimThread
from repro.sim.topology import (
    CROSS_SOCKET,
    SAME_CPU,
    SAME_SOCKET,
    SMT_SIBLING,
    CpuTopology,
)
from repro.workloads.engine import dispatch_fingerprint

from tests.conftest import finite_body, heaviest_first, spin_body

#: Placement policy factories taking the CPU count, used by the shared
#: contract tests (every policy must obey the same offline/validation
#: rules).
def _all_policies(n_cpus):
    topo = CpuTopology.from_spec(f"1x{n_cpus}x1")
    return {
        "least_loaded": LeastLoadedPlacement(),
        "cache_warm": CacheWarmPlacement(topo),
        "numa_pack": NumaPackPlacement(topo),
    }


def make_kernel(n_cpus, scheduler=None, **kwargs):
    return Kernel(
        scheduler if scheduler is not None else RoundRobinScheduler(),
        n_cpus=n_cpus,
        charge_dispatch_overhead=False,
        syscall_cost_us=0,
        **kwargs,
    )


class TestCpuTopology:
    def test_layout_is_socket_major(self):
        topo = CpuTopology(sockets=2, cores_per_socket=2, threads_per_core=2)
        assert topo.n_cpus == 8
        assert [topo.socket_of(i) for i in range(8)] == [0] * 4 + [1] * 4
        # Physical cores: CPUs 0,1 share one; 2,3 the next; etc.
        assert [topo.siblings(i) for i in range(8)] == [
            (0, 1), (0, 1), (2, 3), (2, 3), (4, 5), (4, 5), (6, 7), (6, 7),
        ]
        assert topo.siblings(0) == (0, 1)
        assert topo.siblings(5) == (4, 5)

    def test_from_spec_and_spec_round_trip(self):
        assert CpuTopology.from_spec("2x4x2").spec() == "2x4x2"
        assert CpuTopology.from_spec("2x4").spec() == "2x4x1"
        assert CpuTopology.from_spec("8").spec() == "1x8x1"
        assert CpuTopology.from_spec("8").n_cpus == 8

    def test_from_spec_rejects_garbage(self):
        for bad in ("", "2x", "0x2x2", "2x2x2x2", "ax2"):
            with pytest.raises(ValueError):
                CpuTopology.from_spec(bad)

    def test_distance_classes(self):
        topo = CpuTopology(sockets=2, cores_per_socket=2, threads_per_core=2)
        assert topo.distance_class(3, 3) == SAME_CPU
        assert topo.distance_class(2, 3) == SMT_SIBLING
        assert topo.distance_class(0, 3) == SAME_SOCKET
        assert topo.distance_class(0, 7) == CROSS_SOCKET

    def test_migration_penalties_by_domain(self):
        topo = CpuTopology(
            sockets=2, cores_per_socket=2, threads_per_core=2,
            smt_migration_us=10, core_migration_us=50,
            socket_migration_us=200,
        )
        assert topo.migration_penalty_us(1, 1) == 0
        assert topo.migration_penalty_us(0, 1) == 10
        assert topo.migration_penalty_us(0, 2) == 50
        assert topo.migration_penalty_us(0, 5) == 200

    def test_rejects_invalid_dimensions_and_penalties(self):
        with pytest.raises(ValueError):
            CpuTopology(sockets=0, cores_per_socket=1, threads_per_core=1)
        with pytest.raises(ValueError):
            CpuTopology(sockets=1, cores_per_socket=1, threads_per_core=1,
                        smt_migration_us=-1)
        topo = CpuTopology.from_spec("2x2")
        with pytest.raises(ValueError):
            topo.socket_of(4)
        with pytest.raises(ValueError):
            topo.distance_class(0, 99)


class TestCacheWarmPlacement:
    def _threads(self, n):
        return [SimThread(f"t{i}") for i in range(n)]

    def test_prefers_last_cpu(self):
        topo = CpuTopology.from_spec("2x2x2")
        threads = self._threads(2)
        threads[0].last_cpu = 6
        threads[1].last_cpu = 3
        mapping = CacheWarmPlacement(topo).assign(heaviest_first(threads), 8)
        assert mapping[threads[0].tid] == 6
        assert mapping[threads[1].tid] == 3

    def test_prefers_sibling_when_last_cpu_offline(self):
        topo = CpuTopology.from_spec("2x2x2")
        threads = self._threads(1)
        threads[0].last_cpu = 6
        online = (0, 1, 2, 3, 4, 5, 7)  # 6 down; 7 is its SMT sibling
        mapping = CacheWarmPlacement(topo).assign(
            heaviest_first(threads), 8, online=online
        )
        assert mapping[threads[0].tid] == 7

    def test_prefers_same_socket_over_remote(self):
        topo = CpuTopology.from_spec("2x2x1")
        threads = self._threads(1)
        threads[0].last_cpu = 1
        online = (0, 2, 3)  # core 1 (socket 0) down entirely
        mapping = CacheWarmPlacement(topo).assign(
            heaviest_first(threads), 4, online=online
        )
        assert mapping[threads[0].tid] == 0  # same socket beats 2/3

    def test_never_dispatched_degenerates_to_least_loaded(self):
        topo = CpuTopology.from_spec("1x4x1")
        threads = self._threads(4)
        warm = CacheWarmPlacement(topo).assign(heaviest_first(threads), 4)
        flat = LeastLoadedPlacement().assign(heaviest_first(threads), 4)
        assert warm == flat

    def test_stable_under_self_application(self):
        # Re-running assign after threads "ran" where they were placed
        # must reproduce the identical map, so steady rounds, which
        # recompute placement every time, never migrate anyone.
        topo = CpuTopology.from_spec(
            "2x2x2"
        )
        threads = self._threads(5)
        threads[2].last_cpu = 5
        policy = CacheWarmPlacement(topo)
        first = policy.assign(heaviest_first(threads), 8)
        for thread in threads:
            thread.last_cpu = first[thread.tid]
        assert policy.assign(heaviest_first(threads), 8) == first

    def test_rejects_mismatched_topology(self):
        topo = CpuTopology.from_spec("1x2x1")
        with pytest.raises(SchedulerError):
            CacheWarmPlacement(topo).assign(heaviest_first(self._threads(1)), 4)


class TestNumaPackPlacement:
    def test_groups_pack_socket_local(self):
        topo = CpuTopology.from_spec("2x2x1")
        threads = [
            SimThread("web.0"), SimThread("web.1"),
            SimThread("db.0"), SimThread("db.1"),
        ]
        mapping = NumaPackPlacement(topo).assign(heaviest_first(threads), 4)
        web = {topo.socket_of(mapping[t.tid]) for t in threads[:2]}
        db = {topo.socket_of(mapping[t.tid]) for t in threads[2:]}
        assert len(web) == 1 and len(db) == 1
        assert web != db  # two equal-weight groups, one socket each

    def test_heavier_group_placed_first_and_spread_within_socket(self):
        topo = CpuTopology.from_spec("2x2x1")
        threads = [SimThread("big.0"), SimThread("big.1"), SimThread("tiny.0")]
        weights = {threads[0].tid: 9.0, threads[1].tid: 9.0,
                   threads[2].tid: 1.0}
        mapping = NumaPackPlacement(topo).assign(
            heaviest_first(threads, lambda t: weights[t.tid]), 4
        )
        # The big group lands on socket 0 (tie broken low) on distinct
        # CPUs; tiny takes the other socket.
        big_cpus = {mapping[threads[0].tid], mapping[threads[1].tid]}
        assert big_cpus == {0, 1}
        assert topo.socket_of(mapping[threads[2].tid]) == 1

    def test_skips_fully_offline_socket(self):
        topo = CpuTopology.from_spec("2x2x1")
        threads = [SimThread("grp.0"), SimThread("grp.1")]
        mapping = NumaPackPlacement(topo).assign(
            heaviest_first(threads), 4, online=(2, 3)
        )
        assert {mapping[t.tid] for t in threads} == {2, 3}


class TestPlacementEdgeCases:
    """The satellite fixes: one shared contract for every policy."""

    @pytest.mark.parametrize("name", sorted(_all_policies(2)))
    def test_empty_online_set_raises(self, name):
        policy = _all_policies(2)[name]
        threads = [SimThread("t")]
        with pytest.raises(SchedulerError):
            policy.assign(heaviest_first(threads), 2, online=())

    @pytest.mark.parametrize("name", sorted(_all_policies(2)))
    def test_out_of_range_affinity_raises(self, name):
        policy = _all_policies(2)[name]
        thread = SimThread("t")
        thread.affinity = 5  # bypass pin_to validation: corrupted state
        with pytest.raises(SchedulerError):
            policy.assign(heaviest_first([thread]), 2)

    @pytest.mark.parametrize("name", sorted(_all_policies(4)))
    def test_offline_pin_falls_back_to_lowest_online(self, name):
        # The unified rule: an offline pin maps to the lowest-numbered
        # online CPU — exactly where Kernel.fail_cpu drains pins to.
        policy = _all_policies(4)[name]
        thread = SimThread("t")
        thread.affinity = 2
        mapping = policy.assign(heaviest_first([thread]), 4, online=(1, 3))
        assert mapping[thread.tid] == 1

    def test_fallback_matches_kernel_drain_target(self):
        kernel = make_kernel(4)
        pinned = kernel.spawn("pinned", spin_body())
        pinned.pin_to(2)
        kernel.run_for(1_000)
        drained = kernel.fail_cpu(2)
        assert pinned in drained
        # The kernel drains to the lowest-numbered online CPU; the
        # placement fallback (exercised when a policy sees a stale
        # offline pin) must agree with it.
        assert pinned.affinity == kernel.online_cpu_indices()[0]

    def test_allowed_cpus_helper_removed(self):
        from repro.sched.placement import PlacementPolicy

        assert not hasattr(PlacementPolicy, "_allowed_cpus")


class TestKernelTopology:
    def test_n_cpus_inferred_from_topology(self):
        topo = CpuTopology.from_spec("2x2x1")
        kernel = make_kernel(1, topology=topo)
        assert kernel.n_cpus == 4

    def test_mismatched_n_cpus_rejected(self):
        topo = CpuTopology.from_spec("2x2x1")
        with pytest.raises(ValueError):
            make_kernel(8, topology=topo)

    def test_migrations_counted_without_topology(self):
        # Plain SMP kernels count cross-CPU moves too (no penalty).
        kernel = make_kernel(2)
        a = kernel.spawn("a", spin_body())
        kernel.spawn("b", spin_body())
        kernel.run_for(5_000)
        a.pin_to(1 - a.last_cpu)  # force one migration
        kernel.run_for(5_000)
        assert kernel.migrations >= 1
        assert kernel.migration_us == 0

    def test_penalty_charged_and_conserved(self):
        topo = CpuTopology(
            sockets=2, cores_per_socket=1, threads_per_core=1,
            socket_migration_us=150,
        )
        kernel = make_kernel(2, topology=topo)
        a = kernel.spawn("a", spin_body())
        kernel.spawn("b", spin_body())
        kernel.run_for(5_000)
        a.pin_to(1 - a.last_cpu)
        kernel.run_for(5_000)
        assert kernel.migrations >= 1
        assert kernel.migration_us >= 150
        # Migration time is stolen: the conservation identity extends.
        assert kernel.conservation_gap_us() == 0
        assert kernel.migration_us == sum(
            c.migration_us for c in kernel.cpu_states
        )

    def test_zero_penalty_flat_run_is_byte_identical(self):
        # Acceptance criterion: with all penalties 0, a topology kernel
        # under the flat policy produces the exact dispatch log of an
        # untopologised kernel.
        def run(topology):
            kernel = Kernel(
                ReservationScheduler(),
                n_cpus=4,
                topology=topology,
                record_dispatches=True,
            )
            threads = [
                kernel.spawn(f"t{i}", finite_body(20_000)) for i in range(6)
            ]
            kernel.scheduler.set_reservation(threads[0], 200, 10_000)
            kernel.run_for(60_000)
            return kernel

        plain = run(None)
        topo = run(CpuTopology.from_spec("2x2x1"))
        assert list(plain.dispatch_log) == list(topo.dispatch_log)
        assert dispatch_fingerprint(plain) == dispatch_fingerprint(topo)

    def test_penalised_dispatch_log_entries_carry_cost(self):
        topo = CpuTopology(
            sockets=2, cores_per_socket=1, threads_per_core=1,
            socket_migration_us=120,
        )
        kernel = Kernel(
            RoundRobinScheduler(), n_cpus=2, topology=topo,
            record_dispatches=True, charge_dispatch_overhead=False,
            syscall_cost_us=0,
        )
        a = kernel.spawn("a", spin_body())
        kernel.spawn("b", spin_body())
        kernel.run_for(5_000)
        a.pin_to(1 - a.last_cpu)
        kernel.run_for(5_000)
        penalised = [e for e in kernel.dispatch_log if len(e) == 6]
        assert penalised
        assert all(entry[5] == 120 for entry in penalised)


class TestTopologyExperiment:
    def test_quick_run_conserves_and_cuts_migration_cost(self):
        from repro.experiments import REGISTRY

        result = REGISTRY.run("topology_placement", {"duration_s": 0.2})
        assert result.metadata["dispatch_fingerprint"]
        assert result.metrics["conservation_ok_flat"] == 1.0
        assert result.metrics["conservation_ok_aware"] == 1.0
        assert (
            result.metrics["migration_ms_aware"]
            <= result.metrics["migration_ms_flat"]
        )

    def test_numa_pack_variant_runs(self):
        from repro.experiments import REGISTRY

        result = REGISTRY.run(
            "topology_placement", {"duration_s": 0.1, "placement": "numa_pack"}
        )
        assert result.metadata["aware_placement"] == "numa_pack"
        assert result.metrics["conservation_ok_aware"] == 1.0
