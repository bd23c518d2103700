"""SMP web-server farm workload.

The multiprocessor analogue of :mod:`repro.workloads.webserver`: many
independent request/server pairs sharing one kernel, the scenario the
single-CPU paper could not run.  Each server is a real-rate thread —
the controller discovers its allocation from its socket's fill level —
and the farm's aggregate demand is sized by the caller to exceed one
CPU, so throughput only tracks the offered load when the placement
policy spreads the servers across enough CPUs.

Placement is either dynamic (the scheduler's least-loaded policy, the
default) or explicit: ``pin=True`` pins server *i* to CPU
``i % n_cpus``, which exercises the pinned-affinity admission path and
gives experiments a placement-free baseline.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.system import RealRateSystem
from repro.workloads.webserver import WebServer


class WebFarm:
    """A fleet of :class:`WebServer` instances on one (SMP) system.

    Build farms with :meth:`attach`; the constructor just wraps an
    already-assembled server list.
    """

    def __init__(self, servers: list[WebServer], pin: bool) -> None:
        self.servers = servers
        self.pinned = pin

    @classmethod
    def attach(
        cls,
        system: RealRateSystem,
        *,
        n_servers: int = 4,
        requests_per_second: float | Callable[[int], float] = 150.0,
        service_cpu_us: int = 1_500,
        request_bytes: int = 512,
        socket_capacity_bytes: int = 16 * 1024,
        pin: bool = False,
        name: str = "farm",
        seed: Optional[int] = None,
    ) -> "WebFarm":
        """Build ``n_servers`` web servers inside ``system``.

        Parameters
        ----------
        n_servers:
            Number of independent request-generator/server pairs.
        requests_per_second:
            Offered load *per server* (constant or callable of virtual
            time, as for :class:`WebServer`).
        service_cpu_us:
            CPU per request.  Aggregate demand in CPUs is
            ``n_servers * requests_per_second * service_cpu_us / 1e6``.
        request_bytes / socket_capacity_bytes:
            Request size and receive-buffer capacity per server.
        pin:
            When ``True`` each server thread is pinned to CPU
            ``i % n_cpus`` (its generator stays unpinned — generators
            mostly sleep).  When ``False`` placement is left to the
            scheduler's policy.
        seed:
            When given, server ``i`` jitters its arrivals with a
            :class:`random.Random` seeded ``seed + i`` (see
            :class:`WebServer`); ``None`` keeps strictly periodic
            arrivals.
        """
        if n_servers <= 0:
            raise ValueError(f"need at least one server, got {n_servers}")
        n_cpus = system.kernel.n_cpus
        servers = []
        for i in range(n_servers):
            server = WebServer.attach(
                system,
                name=f"{name}{i}",
                requests_per_second=requests_per_second,
                service_cpu_us=service_cpu_us,
                request_bytes=request_bytes,
                socket_capacity_bytes=socket_capacity_bytes,
                seed=None if seed is None else seed + i,
            )
            if pin:
                server.server.pin_to(i % n_cpus)
            servers.append(server)
        return cls(servers, pin)

    # ------------------------------------------------------------------
    # aggregate measurement helpers
    # ------------------------------------------------------------------
    def total_served(self) -> int:
        """Requests completed across the farm so far."""
        return sum(s.requests_served for s in self.servers)

    def demand_cpus(self) -> float:
        """Aggregate CPU demand of the offered load, in CPUs."""
        return sum(s.required_fraction() for s in self.servers)

    def served_rps(self, elapsed_us: int) -> float:
        """Mean served throughput over ``elapsed_us`` (requests/second)."""
        if elapsed_us <= 0:
            return 0.0
        return self.total_served() * 1_000_000 / elapsed_us


__all__ = ["WebFarm"]
