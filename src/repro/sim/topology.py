"""CPU topology: sockets, cores, SMT siblings and migration cost.

The paper's prototype schedules a flat CPU set; a production-scale
deployment cares *where* a thread runs because migrating it off a warm
cache costs real time.  :class:`CpuTopology` models the machine shape
the way ``lscpu`` reports it — sockets containing physical cores
containing SMT hardware threads — and attaches a per-domain migration
penalty in **virtual microseconds**:

* re-dispatch on the same CPU: free (the warm-cache case);
* migration to the SMT sibling of the last CPU: ``smt_migration_us``
  (shared L1/L2, only pipeline state is lost);
* migration to another core of the same socket:
  ``core_migration_us`` (L1/L2 refill from the shared LLC);
* migration across sockets: ``socket_migration_us`` (LLC refill over
  the interconnect — the NUMA-remote worst case).

CPU indices are laid out socket-major, exactly like the kernel's
canonical enumeration of a homogeneous machine::

    cpu = socket * (cores_per_socket * threads_per_core) \
          + core * threads_per_core + smt

so ``CpuTopology.from_spec("2x4x2")`` — 2 sockets x 4 cores x 2 SMT
threads — numbers CPUs 0..7 on socket 0 and 8..15 on socket 1, with
(0, 1), (2, 3), ... as sibling pairs.

The topology is *immutable after construction* and all queries are
pure O(1) table lookups: the kernel charges a penalty on every
cross-CPU dispatch and the topology-aware placement policies rank
every candidate CPU per thread per round, so nothing here may allocate
or branch on mutable state.
"""

from __future__ import annotations

#: Migration-distance classes returned by :meth:`CpuTopology.distance_class`.
SAME_CPU = 0
SMT_SIBLING = 1
SAME_SOCKET = 2
CROSS_SOCKET = 3


class CpuTopology:
    """Immutable socket/core/SMT shape with per-domain migration cost.

    Parameters
    ----------
    sockets, cores_per_socket, threads_per_core:
        The machine shape; every dimension must be at least 1.
    smt_migration_us, core_migration_us, socket_migration_us:
        Virtual-microsecond penalty charged (as stolen time, to no
        thread) when a thread is dispatched on a CPU in the given
        domain relative to the CPU it last ran on.  All default to 0,
        so a topology can be used purely structurally (placement
        quality without a cost model) — and a zero-penalty topology
        provably never moves a dispatch-log timestamp.
    """

    def __init__(
        self,
        sockets: int,
        cores_per_socket: int,
        threads_per_core: int,
        *,
        smt_migration_us: int = 0,
        core_migration_us: int = 0,
        socket_migration_us: int = 0,
    ) -> None:
        for label, value in (
            ("sockets", sockets),
            ("cores_per_socket", cores_per_socket),
            ("threads_per_core", threads_per_core),
        ):
            if value < 1:
                raise ValueError(f"{label} must be at least 1, got {value}")
        for label, value in (
            ("smt_migration_us", smt_migration_us),
            ("core_migration_us", core_migration_us),
            ("socket_migration_us", socket_migration_us),
        ):
            if value < 0:
                raise ValueError(f"{label} cannot be negative, got {value}")
        self.sockets = int(sockets)
        self.cores_per_socket = int(cores_per_socket)
        self.threads_per_core = int(threads_per_core)
        self.smt_migration_us = int(smt_migration_us)
        self.core_migration_us = int(core_migration_us)
        self.socket_migration_us = int(socket_migration_us)
        self.n_cpus = self.sockets * self.cores_per_socket * self.threads_per_core
        per_socket = self.cores_per_socket * self.threads_per_core
        #: cpu -> socket id / global core id, precomputed so the
        #: per-dispatch penalty lookup is two list reads.
        self._socket_of = [cpu // per_socket for cpu in range(self.n_cpus)]
        self._core_of = [
            cpu // self.threads_per_core for cpu in range(self.n_cpus)
        ]
        self._siblings = [
            tuple(
                range(
                    core * self.threads_per_core,
                    (core + 1) * self.threads_per_core,
                )
            )
            for core in range(self.sockets * self.cores_per_socket)
        ]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec: str,
        *,
        smt_migration_us: int = 0,
        core_migration_us: int = 0,
        socket_migration_us: int = 0,
    ) -> "CpuTopology":
        """Parse an ``lscpu``-style shape string.

        ``"2x4x2"`` is 2 sockets x 4 cores x 2 SMT threads; ``"2x4"``
        leaves SMT off (1 thread per core) and a bare ``"8"`` is a
        single-socket 8-core part — the flat machine every existing
        experiment models.
        """
        parts = spec.lower().split("x")
        if not 1 <= len(parts) <= 3:
            raise ValueError(
                f"topology spec {spec!r} must be 'S', 'SxC' or 'SxCxT'"
            )
        try:
            dims = [int(p) for p in parts]
        except ValueError:
            raise ValueError(
                f"topology spec {spec!r} has a non-integer dimension"
            ) from None
        if len(parts) == 1:
            sockets, cores, threads = 1, dims[0], 1
        elif len(parts) == 2:
            sockets, cores, threads = dims[0], dims[1], 1
        else:
            sockets, cores, threads = dims
        return cls(
            sockets,
            cores,
            threads,
            smt_migration_us=smt_migration_us,
            core_migration_us=core_migration_us,
            socket_migration_us=socket_migration_us,
        )

    def spec(self) -> str:
        """The canonical ``SxCxT`` shape string."""
        return f"{self.sockets}x{self.cores_per_socket}x{self.threads_per_core}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CpuTopology({self.spec()}, smt={self.smt_migration_us}us, "
            f"core={self.core_migration_us}us, "
            f"socket={self.socket_migration_us}us)"
        )

    # ------------------------------------------------------------------
    # shape queries (all O(1))
    # ------------------------------------------------------------------
    def _check(self, cpu: int) -> None:
        if not 0 <= cpu < self.n_cpus:
            raise ValueError(
                f"CPU {cpu} outside topology {self.spec()} "
                f"({self.n_cpus} CPUs)"
            )

    def socket_of(self, cpu: int) -> int:
        """Socket id of ``cpu``."""
        self._check(cpu)
        return self._socket_of[cpu]

    def siblings(self, cpu: int) -> tuple[int, ...]:
        """All hardware threads of ``cpu``'s physical core, itself included."""
        self._check(cpu)
        return self._siblings[self._core_of[cpu]]

    # ------------------------------------------------------------------
    # migration cost
    # ------------------------------------------------------------------
    def distance_class(self, src: int, dst: int) -> int:
        """Topological distance of a ``src -> dst`` migration.

        :data:`SAME_CPU` (0) < :data:`SMT_SIBLING` (1) <
        :data:`SAME_SOCKET` (2) < :data:`CROSS_SOCKET` (3) — the
        preference order the cache-warm placement ranks candidates by.
        """
        self._check(src)
        self._check(dst)
        if src == dst:
            return SAME_CPU
        if self._core_of[src] == self._core_of[dst]:
            return SMT_SIBLING
        if self._socket_of[src] == self._socket_of[dst]:
            return SAME_SOCKET
        return CROSS_SOCKET

    def migration_penalty_us(self, src: int, dst: int) -> int:
        """Virtual microseconds charged for dispatching on ``dst`` a
        thread whose last dispatch ran on ``src``.  Zero when they are
        the same CPU."""
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        if self._core_of[src] == self._core_of[dst]:
            return self.smt_migration_us
        if self._socket_of[src] == self._socket_of[dst]:
            return self.core_migration_us
        return self.socket_migration_us


__all__ = [
    "CROSS_SOCKET",
    "CpuTopology",
    "SAME_CPU",
    "SAME_SOCKET",
    "SMT_SIBLING",
]
