"""CPU model and per-CPU run state.

The paper's prototype runs on a 400 MHz Pentium II with a 1 ms timer.
The simulator does not model micro-architecture; what matters for the
scheduling experiments is the fixed cost of every dispatch (the
``schedule()`` + ``do_timers()`` path), which is what produces the
overhead-vs-frequency curve of Figure 8.

A multiprocessor kernel instantiates one :class:`CPUState` per CPU (all
sharing one :class:`CPUModel`, i.e. homogeneous SMP): it carries the
per-CPU dispatch accounting — idle time, per-dispatch stolen overhead
and dispatch counts — that the kernel aggregates for its totals.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CPUState:
    """Per-CPU dispatch bookkeeping of a (possibly multi-CPU) kernel.

    Attributes
    ----------
    index:
        CPU number, 0-based.
    idle_us:
        Time this CPU spent online with nothing to run.
    stolen_dispatch_us:
        Dispatch overhead charged on this CPU (to no thread).
    dispatches:
        Number of times this CPU's dispatcher selected a thread.
    migrations:
        Dispatches of a thread whose previous dispatch ran on a
        *different* CPU (counted on the destination CPU).  Tracked on
        every multiprocessor kernel, with or without a topology model.
    migration_us:
        Virtual time charged on this CPU for migration penalties
        (stolen — charged to no thread).  Non-zero only when the kernel
        was built with a :class:`~repro.sim.topology.CpuTopology`
        carrying non-zero per-domain penalties.
    overhead_accumulator:
        Fractional-microsecond remainder of the per-dispatch overhead
        model, kept per CPU so accounting is independent across CPUs.
    online:
        Whether the CPU participates in dispatch rounds.  Taken down /
        brought back by :meth:`Kernel.fail_cpu` /
        :meth:`Kernel.recover_cpu` (simulated hotplug).
    offline_us:
        Time this CPU spent failed.  Charged instead of ``idle_us``
        while offline, so the conservation identity extends to
        ``thread_cpu + idle + stolen + offline == n_cpus * now``.
    """

    index: int
    idle_us: int = 0
    stolen_dispatch_us: int = 0
    dispatches: int = 0
    migrations: int = 0
    migration_us: int = 0
    overhead_accumulator: float = 0.0
    online: bool = True
    offline_us: int = 0

    def busy_fraction(self, elapsed_us: int) -> float:
        """Fraction of ``elapsed_us`` this CPU was not idle."""
        if elapsed_us <= 0:
            return 0.0
        return max(0.0, min(1.0, 1.0 - self.idle_us / elapsed_us))


@dataclass
class CPUModel:
    """Parameters of the simulated CPU.

    Attributes
    ----------
    dispatch_cost_us:
        CPU time charged (to nobody) on every dispatcher invocation.
        The paper measures ~2.7% overhead at a 4 kHz dispatch rate,
        which corresponds to roughly 6.75 us per dispatch; the default
        is calibrated to that figure.
    dispatch_cost_quadratic_us:
        Optional frequency-dependent component of the per-dispatch
        cost: ``effective = dispatch_cost_us + quadratic * f_khz**2``.
        The paper's Figure 8 curve degrades faster than linearly above
        its knee (very small quanta thrash the cache), which a constant
        per-dispatch cost cannot reproduce; the dispatch-overhead
        experiment uses this term, everything else leaves it at zero.
    """

    dispatch_cost_us: float = 6.75
    dispatch_cost_quadratic_us: float = 0.0

    def __post_init__(self) -> None:
        if self.dispatch_cost_us < 0:
            raise ValueError(
                f"dispatch_cost_us cannot be negative, got {self.dispatch_cost_us}"
            )
        if self.dispatch_cost_quadratic_us < 0:
            raise ValueError(
                "dispatch_cost_quadratic_us cannot be negative, got "
                f"{self.dispatch_cost_quadratic_us}"
            )

    def effective_dispatch_cost_us(self, dispatch_hz: float) -> float:
        """Per-dispatch cost at a given dispatcher frequency."""
        if dispatch_hz < 0:
            raise ValueError(f"dispatch_hz cannot be negative, got {dispatch_hz}")
        f_khz = dispatch_hz / 1_000.0
        return self.dispatch_cost_us + self.dispatch_cost_quadratic_us * f_khz * f_khz


__all__ = ["CPUModel", "CPUState"]
