"""Convenience assembly of a complete real-rate system.

Most experiments and examples need the same five objects wired together
the same way: a reservation scheduler, a kernel around it, a symbiotic
registry, a proportion allocator and a controller driver.
:func:`build_real_rate_system` performs that assembly and returns a
:class:`RealRateSystem` facade with helpers for registering threads and
channels, mirroring how a process on the paper's prototype would
register itself with the RBS scheduler and open shared queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.allocator import ProportionAllocator
from repro.core.config import ControllerConfig
from repro.core.driver import ControllerDriver, ControllerOverheadModel
from repro.core.overload import SquishPolicy
from repro.core.taxonomy import ThreadSpec
from repro.ipc.bounded_buffer import BoundedBuffer, Channel
from repro.ipc.registry import SymbioticRegistry
from repro.ipc.roles import Role
from repro.sched.rbs import ReservationScheduler
from repro.sim.cpu import CPUModel
from repro.sim.kernel import Kernel
from repro.sim.thread import SimThread, ThreadBody


@dataclass
class RealRateSystem:
    """A fully wired simulated system running the adaptive controller."""

    kernel: Kernel
    scheduler: ReservationScheduler
    registry: SymbioticRegistry
    allocator: ProportionAllocator
    driver: ControllerDriver

    # ------------------------------------------------------------------
    # application-facing helpers
    # ------------------------------------------------------------------
    def spawn_controlled(
        self,
        name: str,
        body: ThreadBody,
        spec: Optional[ThreadSpec] = None,
        **thread_kwargs,
    ) -> SimThread:
        """Create a thread, add it to the kernel and register it with
        the controller in one step."""
        thread = self.kernel.spawn(name, body, **thread_kwargs)
        self.allocator.register(thread, spec)
        return thread

    def open_queue(
        self,
        name: str,
        producer: SimThread,
        consumer: SimThread,
        capacity_bytes: int = 64 * 1024,
    ) -> BoundedBuffer:
        """Create a bounded buffer and register both endpoints' roles.

        This is the paper's shared-queue library: opening the queue
        performs the meta-interface linkage automatically.
        """
        queue = BoundedBuffer(name, capacity_bytes)
        self.registry.register_pair(producer, consumer, queue)
        return queue

    def link(self, thread: SimThread, channel: Channel, role: Role) -> None:
        """Register an existing channel endpoint (pipes, sockets, ttys)."""
        self.registry.register(thread, channel, role)

    def run_for(self, duration_us: int) -> None:
        """Advance the simulation by ``duration_us`` microseconds."""
        self.kernel.run_for(duration_us)

    @property
    def now(self) -> int:
        """Current virtual time in microseconds."""
        return self.kernel.now


def build_real_rate_system(
    config: Optional[ControllerConfig] = None,
    *,
    n_cpus: int = 1,
    cpu: Optional[CPUModel] = None,
    dispatch_interval_us: int = 1_000,
    charge_dispatch_overhead: bool = True,
    charge_controller_overhead: bool = True,
    overhead_model: Optional[ControllerOverheadModel] = None,
    squish_policy: Optional[SquishPolicy] = None,
    enforce_within_slice: bool = False,
    controller_start_us: int = 0,
    record_dispatches: bool = False,
) -> RealRateSystem:
    """Assemble a kernel + RBS scheduler + registry + controller.

    Parameters mirror the knobs the experiments vary; everything
    defaults to the paper's prototype configuration (1 ms dispatch
    interval, 10 ms controller period, overheads charged, one CPU).
    ``n_cpus`` builds the SMP variant: the kernel dispatches one thread
    per CPU per round and the controller budgets proportions against
    ``n_cpus * PROPORTION_SCALE`` of total capacity.

    The controller traces only what a reader watches: before the run,
    ``system.kernel.tracer.watch("alloc:<name>")`` returns the series
    the driver fills with a thread's grants (``pressure:<name>`` and
    ``alloc:total`` likewise); an unwatched system keeps no trace.
    """
    config = config if config is not None else ControllerConfig()
    scheduler = ReservationScheduler(enforce_within_slice=enforce_within_slice)
    kernel = Kernel(
        scheduler,
        n_cpus=n_cpus,
        cpu=cpu,
        dispatch_interval_us=dispatch_interval_us,
        charge_dispatch_overhead=charge_dispatch_overhead,
        record_dispatches=record_dispatches,
    )
    registry = SymbioticRegistry()
    allocator = ProportionAllocator(
        scheduler, registry, config, squish_policy=squish_policy
    )
    driver = ControllerDriver(
        kernel,
        allocator,
        period_us=config.controller_period_us,
        overhead_model=overhead_model,
        charge_overhead=charge_controller_overhead,
        start_us=controller_start_us,
    )
    return RealRateSystem(
        kernel=kernel,
        scheduler=scheduler,
        registry=registry,
        allocator=allocator,
        driver=driver,
    )


__all__ = ["RealRateSystem", "build_real_rate_system"]
