"""Thread-to-CPU placement policies for multiprocessor scheduling.

On a multiprocessor the dispatcher answers *two* questions instead of
one: which CPU a runnable thread should run on (placement), and which of
the threads placed on a CPU runs next (the per-CPU pick, still made by
the :class:`~repro.sched.base.Scheduler` policy).  The paper's prototype
is single-CPU, so placement is an extension point: the kernel asks the
scheduler for a fresh assignment of runnable threads to CPUs at the
start of every dispatch round, and the scheduler delegates to one of the
policies here.

The scheduler hands every policy the same input: its runnable threads
in one heaviest-first order, ``(-weight, tid, thread)`` ascending
(:meth:`~repro.sched.base.Scheduler.placement_order`), built once per
round.  A policy walks that order; none weighs or sorts threads itself.

Flat policies (no topology model):

* :class:`LeastLoadedPlacement` (the default) — greedy weighted
  bin-packing: threads are assigned, heaviest first, to the CPU with
  the smallest accumulated weight.  The weight is supplied by the
  scheduler (the reservation scheduler uses the thread's reserved
  proportion, so reservations spread across CPUs and per-CPU reserved
  capacity stays balanced; other schedulers weigh every thread
  equally).
* :class:`PinnedPlacement` — fully static: a thread runs on its
  explicit affinity if set, otherwise on ``tid % n_cpus``.  Useful for
  experiments that need placement taken out of the picture.

Topology-aware policies (take a
:class:`~repro.sim.topology.CpuTopology`, modelled on ceph-aprg's
``balance-cpu`` core allocator):

* :class:`CacheWarmPlacement` — prefer the CPU a thread last ran on,
  then an SMT sibling of it, then another core of the same socket,
  before considering a remote socket; within a distance tier the
  least-loaded CPU wins.  Minimises the migration penalties a topology
  kernel charges.
* :class:`NumaPackPlacement` — pack *reservation groups* (threads
  sharing a name prefix before the first ``.``, i.e. one workload
  stream's jobs) socket-local: each group goes to the least-loaded
  socket as a unit and balances across that socket's CPUs, so a
  pipeline's working set never straddles the interconnect.

Contracts every policy here honours (and new policies must):

* **Affinity** — an explicit
  :attr:`~repro.sim.thread.SimThread.affinity` is always obeyed; a
  pinned thread is never migrated.
* **Validation over clamping** — an affinity outside ``[0, n_cpus)``
  raises :class:`~repro.sim.errors.SchedulerError`.  ``pin_to`` and
  ``add_thread`` already guarantee bound threads carry valid pins, so
  an out-of-range value reaching placement is a real bug that must not
  be silently remapped; likewise an empty ``online`` tuple (no CPU
  could receive a placement) raises instead of falling through to an
  arbitrary — offline — CPU 0.
* **Offline-pin fallback** — a pin naming an *offline* CPU falls back
  to the **lowest-numbered online CPU**, the same CPU
  :meth:`~repro.sim.kernel.Kernel.fail_cpu` drains pins to.  One rule
  for every policy: the kernel re-pins eagerly on failure, so
  placement seeing an offline pin is a transient defensive case, and
  agreeing with the drain target keeps the defensive path
  bit-identical to the eager one.
* **Determinism** — ties break towards the lowest CPU index and
  threads are considered in the heaviest-first order (a total order:
  tids are unique), so the mapping depends only on the runnable set —
  never on the order the scheduler happened to hold it in — and every
  simulation remains exactly reproducible run to run.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional

from repro.sim.errors import SchedulerError
from repro.sim.topology import CpuTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.thread import SimThread

#: Runnable threads heaviest first: ``(-weight, tid, thread)`` tuples in
#: ascending order, the one input every policy's ``assign`` takes.
PlacementOrder = list[tuple[float, int, "SimThread"]]


class PlacementPolicy(ABC):
    """Strategy assigning runnable threads to CPUs for one dispatch round."""

    @abstractmethod
    def assign(
        self,
        order: PlacementOrder,
        n_cpus: int,
        online: "Optional[tuple[int, ...]]" = None,
    ) -> dict[int, int]:
        """Map each thread's tid to the CPU index it may run on.

        ``order`` lists the runnable threads heaviest first as
        ``(-weight, tid, thread)`` tuples, already sorted; the weight
        is the thread's load contribution (load-balancing policies
        accumulate it, static policies ignore it).  The mapping must
        respect each thread's ``affinity`` when set.

        ``online`` restricts candidate CPUs to the given ascending
        index tuple (simulated hotplug: failed CPUs must receive no
        placements).  ``None`` — the overwhelmingly common case — means
        every CPU is online and keeps the unrestricted fast path.  An
        *empty* tuple raises :class:`SchedulerError`: no CPU could
        legally receive a placement, and silently mapping threads to
        (offline) CPU 0 would corrupt the round.  A pinned thread
        whose affinity names an offline CPU falls back to the
        lowest-numbered online CPU — the kernel's drain target — per
        the module-level contract.
        """

    @staticmethod
    def _candidates(
        n_cpus: int, online: "Optional[tuple[int, ...]]"
    ) -> "range | tuple[int, ...]":
        """The placeable CPU set, validated.

        Raises :class:`SchedulerError` on an empty ``online`` tuple —
        the empty-``online`` fallthrough that used to map every thread
        to offline CPU 0.
        """
        if online is None:
            return range(n_cpus)
        if not online:
            raise SchedulerError(
                "placement needs at least one online CPU; the kernel "
                "guarantees the last CPU cannot fail, so an empty "
                "online set is a caller bug"
            )
        return online

    @staticmethod
    def _checked_affinity(thread: "SimThread", n_cpus: int) -> int:
        """The thread's pin, validated against the CPU count.

        Out-of-range pins raise :class:`SchedulerError` instead of
        being clamped: ``pin_to``/``add_thread`` validate every bound
        thread, so a bad value here means corrupted state that a
        silent ``min(affinity, n_cpus - 1)`` would paper over.
        """
        affinity = thread.affinity
        assert affinity is not None
        if not 0 <= affinity < n_cpus:
            raise SchedulerError(
                f"thread {thread.name!r} is pinned to CPU {affinity} "
                f"but the kernel has only {n_cpus} CPU(s); placement "
                "refuses to remap an invalid pin"
            )
        return affinity


class LeastLoadedPlacement(PlacementPolicy):
    """Greedy weighted balancing: heaviest threads first, lightest CPU wins."""

    def assign(
        self,
        order: PlacementOrder,
        n_cpus: int,
        online: "Optional[tuple[int, ...]]" = None,
    ) -> dict[int, int]:
        loads = [0.0] * n_cpus
        mapping: dict[int, int] = {}
        # Heaviest-first gives the classic LPT balance guarantee; the
        # tid tiebreak keeps the order (and therefore the whole
        # simulation) deterministic.  The argmin over CPU loads is
        # unrolled by hand — this runs for every dispatch round of an
        # SMP kernel, so ``min(key=...)`` overhead is measurable.
        candidates = self._candidates(n_cpus, online)
        online_set = None if online is None else frozenset(online)
        for neg_weight, tid, thread in order:
            if thread.affinity is not None:
                cpu = self._checked_affinity(thread, n_cpus)
                if online_set is not None and cpu not in online_set:
                    # Offline-pin fallback: the lowest-numbered online
                    # CPU, matching the kernel's drain target.
                    cpu = candidates[0]
            elif online is None:
                cpu = 0
                best = loads[0]
                for index in range(1, n_cpus):
                    load = loads[index]
                    if load < best:
                        best = load
                        cpu = index
            else:
                cpu = candidates[0]
                best = loads[cpu]
                for index in candidates:
                    load = loads[index]
                    if load < best:
                        best = load
                        cpu = index
            mapping[tid] = cpu
            if neg_weight < 0.0:
                loads[cpu] -= neg_weight
        return mapping


class PinnedPlacement(PlacementPolicy):
    """Static placement: explicit affinity, else ``tid % n_cpus``."""

    def assign(
        self,
        order: PlacementOrder,
        n_cpus: int,
        online: "Optional[tuple[int, ...]]" = None,
    ) -> dict[int, int]:
        mapping: dict[int, int] = {}
        if online is None:
            for _, tid, thread in order:
                if thread.affinity is not None:
                    mapping[tid] = self._checked_affinity(thread, n_cpus)
                else:
                    mapping[tid] = tid % n_cpus
            return mapping
        candidates = self._candidates(n_cpus, online)
        online_set = frozenset(candidates)
        for _, tid, thread in order:
            if thread.affinity is not None:
                cpu = self._checked_affinity(thread, n_cpus)
                if cpu not in online_set:
                    # Unified offline-pin fallback (was
                    # ``online[cpu % len(online)]``, which disagreed
                    # with every other policy and the kernel's drain).
                    cpu = candidates[0]
            else:
                # The static default restricted to online CPUs: still a
                # pure function of the tid, never of round state.
                cpu = candidates[tid % len(candidates)]
            mapping[tid] = cpu
        return mapping


class _TopologyPlacement(PlacementPolicy):
    """Shared plumbing of the topology-aware policies."""

    def __init__(self, topology: CpuTopology) -> None:
        self.topology = topology

    def _check_topology(self, n_cpus: int) -> CpuTopology:
        topology = self.topology
        if topology.n_cpus != n_cpus:
            raise SchedulerError(
                f"placement topology {topology.spec()} models "
                f"{topology.n_cpus} CPU(s) but the kernel has {n_cpus}"
            )
        return topology


class CacheWarmPlacement(_TopologyPlacement):
    """Prefer the last CPU, then an SMT sibling, then the same socket.

    Candidates are ranked by ``(distance tier, load, index)`` where the
    tier is the topological distance from the CPU the thread last ran
    on (:meth:`CpuTopology.distance_class`): 0 = same CPU, 1 = SMT
    sibling, 2 = same socket, 3 = anywhere.  A thread never dispatched
    yet (``last_cpu is None``) ranks every candidate tier-3, which
    degenerates to exactly :class:`LeastLoadedPlacement`'s choice.
    """

    def assign(
        self,
        order: PlacementOrder,
        n_cpus: int,
        online: "Optional[tuple[int, ...]]" = None,
    ) -> dict[int, int]:
        topology = self._check_topology(n_cpus)
        candidates = self._candidates(n_cpus, online)
        online_set = None if online is None else frozenset(online)
        distance = topology.distance_class
        loads = [0.0] * n_cpus
        mapping: dict[int, int] = {}
        for neg_weight, tid, thread in order:
            if thread.affinity is not None:
                cpu = self._checked_affinity(thread, n_cpus)
                if online_set is not None and cpu not in online_set:
                    cpu = candidates[0]
            else:
                last = thread.last_cpu
                cpu = candidates[0]
                if last is None:
                    best = loads[cpu]
                    for index in candidates:
                        load = loads[index]
                        if load < best:
                            best = load
                            cpu = index
                else:
                    best_key = (distance(last, cpu), loads[cpu], cpu)
                    for index in candidates:
                        key = (distance(last, index), loads[index], index)
                        if key < best_key:
                            best_key = key
                            cpu = index
            mapping[tid] = cpu
            if neg_weight < 0.0:
                loads[cpu] -= neg_weight
        return mapping


class NumaPackPlacement(_TopologyPlacement):
    """Pack reservation groups socket-local (ceph-aprg balance-cpu style).

    Threads are grouped by the name prefix before the first ``.`` —
    the workload engine names a stream's jobs ``stream.index``, so a
    group is one stream's live jobs (a lone thread forms its own
    group).  Groups are placed heaviest first: each goes, as a unit,
    to the socket with the least accumulated weight (lowest socket id
    on ties) among sockets that still have online CPUs, and its
    members balance least-loaded across that socket's online CPUs.
    Pinned threads stay where they are pinned and their weight counts
    toward their socket, so packing respects explicit affinity.
    """

    def assign(
        self,
        order: PlacementOrder,
        n_cpus: int,
        online: "Optional[tuple[int, ...]]" = None,
    ) -> dict[int, int]:
        topology = self._check_topology(n_cpus)
        candidates = self._candidates(n_cpus, online)
        online_set = None if online is None else frozenset(online)
        socket_of = topology.socket_of
        #: socket id -> its online CPUs (ascending; insertion order of
        #: the dict is ascending socket id because candidates ascend).
        socket_cpus: dict[int, list[int]] = {}
        for index in candidates:
            socket_cpus.setdefault(socket_of(index), []).append(index)
        loads = [0.0] * n_cpus
        socket_loads = {socket: 0.0 for socket in socket_cpus}
        mapping: dict[int, int] = {}
        # Pinned threads first: their CPU is fixed, and charging their
        # weight up front lets group packing route around them.
        groups: dict[str, list[tuple[float, int, "SimThread"]]] = {}
        group_weight: dict[str, float] = {}
        for neg_weight, tid, thread in order:
            if thread.affinity is not None:
                cpu = self._checked_affinity(thread, n_cpus)
                if online_set is not None and cpu not in online_set:
                    cpu = candidates[0]
                mapping[tid] = cpu
                if neg_weight < 0.0:
                    loads[cpu] -= neg_weight
                    socket = socket_of(cpu)
                    if socket in socket_loads:
                        socket_loads[socket] -= neg_weight
                continue
            group = thread.name.split(".", 1)[0]
            groups.setdefault(group, []).append((neg_weight, tid, thread))
            group_weight[group] = group_weight.get(group, 0.0) - neg_weight
        # Heaviest group first; the name tiebreak keeps it deterministic.
        for group in sorted(groups, key=lambda g: (-group_weight[g], g)):
            socket = min(
                socket_loads, key=lambda s: (socket_loads[s], s)
            )
            local = socket_cpus[socket]
            for neg_weight, tid, _thread in groups[group]:
                cpu = local[0]
                best = loads[cpu]
                for index in local:
                    load = loads[index]
                    if load < best:
                        best = load
                        cpu = index
                mapping[tid] = cpu
                if neg_weight < 0.0:
                    loads[cpu] -= neg_weight
                    socket_loads[socket] -= neg_weight
        return mapping


__all__ = [
    "CacheWarmPlacement",
    "LeastLoadedPlacement",
    "NumaPackPlacement",
    "PinnedPlacement",
    "PlacementOrder",
    "PlacementPolicy",
]
