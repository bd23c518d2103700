"""Thread-to-CPU placement policies for multiprocessor scheduling.

On a multiprocessor the dispatcher answers *two* questions instead of
one: which CPU a runnable thread should run on (placement), and which of
the threads placed on a CPU runs next (the per-CPU pick, still made by
the :class:`~repro.sched.base.Scheduler` policy).  The paper's prototype
is single-CPU, so placement is an extension point: the kernel asks the
scheduler for a fresh assignment of runnable threads to CPUs at the
start of every dispatch round, and the scheduler delegates to one of the
policies here.

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
* :class:`PipelineAffinityPlacement` — align channel-connected
  producer/consumer thread pairs onto SMT siblings of one physical
  core (the ceph-aprg trick: the two ends of a queue share L1/L2);
  threads outside any pair fall back to least-loaded balancing.

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
  threads are considered in a fixed order, so every simulation remains
  exactly reproducible run to run.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.sim.errors import SchedulerError
from repro.sim.topology import CpuTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.ipc.registry import SymbioticRegistry
    from repro.sim.thread import SimThread

#: Signature of the weight function a scheduler supplies to placement.
ThreadWeight = Callable[["SimThread"], float]


class PlacementPolicy(ABC):
    """Strategy assigning runnable threads to CPUs for one dispatch round."""

    @abstractmethod
    def assign(
        self,
        threads: Iterable["SimThread"],
        n_cpus: int,
        weight: ThreadWeight,
        weights: "Optional[list[float]]" = None,
        online: "Optional[tuple[int, ...]]" = None,
    ) -> dict[int, int]:
        """Map each thread's tid to the CPU index it may run on.

        ``weight`` supplies the load contribution of a thread (used by
        load-balancing policies; static policies may ignore it).  When
        the caller already evaluated the weights, ``weights`` carries
        them index-aligned with ``threads`` so the policy does not make
        one Python call per thread per round.  The mapping must respect
        each thread's ``affinity`` when set.

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
        threads: Iterable["SimThread"],
        n_cpus: int,
        weight: ThreadWeight,
        weights: "Optional[list[float]]" = None,
        online: "Optional[tuple[int, ...]]" = None,
    ) -> dict[int, int]:
        loads = [0.0] * n_cpus
        mapping: dict[int, int] = {}
        # Heaviest-first gives the classic LPT balance guarantee; the
        # tid tiebreak keeps the order (and therefore the whole
        # simulation) deterministic.  Weights are evaluated once per
        # thread and the argmin over CPU loads is unrolled by hand —
        # this runs for every dispatch round of an SMP kernel, so the
        # per-call lambda and ``min(key=...)`` overhead is measurable.
        if weights is None:
            decorated = [(-weight(t), t.tid, t) for t in threads]
        else:
            decorated = [
                (-w, t.tid, t) for w, t in zip(weights, threads)
            ]
        decorated.sort()
        candidates = self._candidates(n_cpus, online)
        online_set = None if online is None else frozenset(online)
        for neg_weight, tid, thread in decorated:
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
        threads: Iterable["SimThread"],
        n_cpus: int,
        weight: ThreadWeight,
        weights: "Optional[list[float]]" = None,
        online: "Optional[tuple[int, ...]]" = None,
    ) -> dict[int, int]:
        mapping: dict[int, int] = {}
        if online is None:
            for thread in threads:
                if thread.affinity is not None:
                    mapping[thread.tid] = self._checked_affinity(
                        thread, n_cpus
                    )
                else:
                    mapping[thread.tid] = thread.tid % n_cpus
            return mapping
        candidates = self._candidates(n_cpus, online)
        online_set = frozenset(candidates)
        for thread in threads:
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
                cpu = candidates[thread.tid % len(candidates)]
            mapping[thread.tid] = cpu
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
        threads: Iterable["SimThread"],
        n_cpus: int,
        weight: ThreadWeight,
        weights: "Optional[list[float]]" = None,
        online: "Optional[tuple[int, ...]]" = None,
    ) -> dict[int, int]:
        topology = self._check_topology(n_cpus)
        candidates = self._candidates(n_cpus, online)
        online_set = None if online is None else frozenset(online)
        distance = topology.distance_class
        loads = [0.0] * n_cpus
        mapping: dict[int, int] = {}
        if weights is None:
            decorated = [(-weight(t), t.tid, t) for t in threads]
        else:
            decorated = [(-w, t.tid, t) for w, t in zip(weights, threads)]
        decorated.sort()
        for neg_weight, tid, thread in decorated:
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
        threads: Iterable["SimThread"],
        n_cpus: int,
        weight: ThreadWeight,
        weights: "Optional[list[float]]" = None,
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
        if weights is None:
            decorated = [(-weight(t), t.tid, t) for t in threads]
        else:
            decorated = [(-w, t.tid, t) for w, t in zip(weights, threads)]
        decorated.sort()
        # Pinned threads first: their CPU is fixed, and charging their
        # weight up front lets group packing route around them.
        groups: dict[str, list[tuple[float, int, "SimThread"]]] = {}
        group_weight: dict[str, float] = {}
        for neg_weight, tid, thread in decorated:
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


class PipelineAffinityPlacement(_TopologyPlacement):
    """Co-locate producer/consumer pairs on SMT siblings of one core.

    ``pairs`` names channel-connected ``(producer, consumer)`` threads
    (by :attr:`SimThread.name`); :func:`pipeline_pairs` derives them
    from a :class:`~repro.ipc.registry.SymbioticRegistry` snapshot.
    Each pair is assigned, in declaration order, to the physical core
    with the least accumulated weight (lowest core id on ties) that
    has at least one online CPU: the producer takes the core's
    least-loaded online hardware thread and the consumer the next —
    the SMT sibling when the core has one, sharing the producer's CPU
    when it does not (still cache-warm for the channel).  Threads
    outside any pair — and pair members that are pinned or not
    currently runnable — fall back to least-loaded balancing.

    Pairs are a construction-time snapshot (names, not live registry
    state) so placement stays a pure function of the runnable set;
    re-derive and install a new policy instance if the pipeline shape
    changes mid-run.
    """

    def __init__(
        self,
        topology: CpuTopology,
        pairs: Iterable[tuple[str, str]] = (),
    ) -> None:
        super().__init__(topology)
        self.pairs: tuple[tuple[str, str], ...] = tuple(
            (str(producer), str(consumer)) for producer, consumer in pairs
        )

    def assign(
        self,
        threads: Iterable["SimThread"],
        n_cpus: int,
        weight: ThreadWeight,
        weights: "Optional[list[float]]" = None,
        online: "Optional[tuple[int, ...]]" = None,
    ) -> dict[int, int]:
        topology = self._check_topology(n_cpus)
        candidates = self._candidates(n_cpus, online)
        online_set = frozenset(candidates)
        loads = [0.0] * n_cpus
        mapping: dict[int, int] = {}
        thread_list = list(threads)
        if weights is None:
            weight_of = {t.tid: weight(t) for t in thread_list}
        else:
            weight_of = {
                t.tid: w for w, t in zip(weights, thread_list)
            }
        by_name: dict[str, "SimThread"] = {}
        for thread in thread_list:
            # First registration wins on (pathological) duplicate names,
            # deterministically.
            by_name.setdefault(thread.name, thread)
        # Pinned threads first: fixed CPUs, weights charged up front.
        leftovers: list[tuple[float, int, "SimThread"]] = []
        paired: set[int] = set()
        for producer_name, consumer_name in self.pairs:
            for name in (producer_name, consumer_name):
                thread = by_name.get(name)
                if thread is not None and thread.affinity is None:
                    paired.add(thread.tid)
        for thread in thread_list:
            if thread.affinity is not None:
                cpu = self._checked_affinity(thread, n_cpus)
                if cpu not in online_set:
                    cpu = candidates[0]
                mapping[thread.tid] = cpu
                loads[cpu] += weight_of[thread.tid]
            elif thread.tid not in paired:
                leftovers.append(
                    (-weight_of[thread.tid], thread.tid, thread)
                )
        #: global core id -> its online CPUs.
        core_cpus: dict[int, list[int]] = {}
        for index in candidates:
            core_cpus.setdefault(topology.core_of(index), []).append(index)
        placed: set[int] = set()
        for producer_name, consumer_name in self.pairs:
            members = []
            for name in (producer_name, consumer_name):
                thread = by_name.get(name)
                if (
                    thread is not None
                    and thread.affinity is None
                    and thread.tid not in placed
                ):
                    members.append(thread)
            if not members:
                continue
            core = min(
                core_cpus,
                key=lambda c: (
                    sum(loads[index] for index in core_cpus[c]), c
                ),
            )
            local = core_cpus[core]
            for thread in members:
                cpu = local[0]
                best = loads[cpu]
                for index in local:
                    load = loads[index]
                    if load < best:
                        best = load
                        cpu = index
                mapping[thread.tid] = cpu
                loads[cpu] += weight_of[thread.tid]
                placed.add(thread.tid)
        # Everything else: plain heaviest-first least-loaded balancing.
        leftovers.sort()
        for neg_weight, tid, _thread in leftovers:
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


def pipeline_pairs(
    registry: "SymbioticRegistry",
) -> tuple[tuple[str, str], ...]:
    """``(producer, consumer)`` name pairs for every registered channel.

    Channels are visited in registration order; on a channel with
    several producers/consumers the i-th producer pairs with the i-th
    consumer (both in registration order), so the result is
    deterministic for a deterministic setup sequence.
    """
    from repro.ipc.roles import Role

    pairs: list[tuple[str, str]] = []
    for channel in registry.channels():
        linkages = registry.linkages_on(channel)
        producers = [
            l.thread.name for l in linkages if l.role is Role.PRODUCER
        ]
        consumers = [
            l.thread.name for l in linkages if l.role is Role.CONSUMER
        ]
        pairs.extend(zip(producers, consumers))
    return tuple(pairs)


__all__ = [
    "CacheWarmPlacement",
    "LeastLoadedPlacement",
    "NumaPackPlacement",
    "PinnedPlacement",
    "PipelineAffinityPlacement",
    "PlacementPolicy",
    "ThreadWeight",
    "pipeline_pairs",
]
