"""Arrival processes for the open-system workload engine.

Every scenario the repository had before this module was a *closed*
system: a fixed thread set spawned before ``run()`` and living to the
horizon.  Real deployments of the paper's feedback allocator face an
*open* system — jobs arrive, demand service, and leave — and the
controller's admission, reclaim and adaptation logic is stressed
hardest exactly by that churn.

An :class:`ArrivalProcess` produces the virtual times at which the
:class:`~repro.workloads.engine.WorkloadEngine` injects new threads
into a running kernel.  All processes are deterministic: stochastic
ones draw from a :class:`random.Random` seeded at construction, so the
same process replayed in two kernels yields microsecond-identical
schedules.

The single-rate processes (deterministic, Poisson) are *live* objects:
their rate may be changed while the simulation runs (a
:class:`~repro.workloads.engine.PhaseScript` action calls
:meth:`ArrivalProcess.set_rate`), and the change applies from the next
inter-arrival gap onward — the gap already scheduled on the calendar
is not retimed, exactly like a real traffic source.  Trace replay has
no single adjustable rate; its :meth:`set_rate` raises.

Three shapes are provided:

* :class:`DeterministicArrivals` — fixed inter-arrival interval;
* :class:`PoissonArrivals` — seeded exponential inter-arrivals;
* :class:`TraceArrivals` — replay of an explicit time list or a trace
  file (one arrival per line: ``offset_us [tag]``, ``#`` comments).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Optional

#: Microseconds per second (inter-arrival conversion).
_US_PER_SEC = 1_000_000.0


class ArrivalError(ValueError):
    """An arrival process was mis-parameterised or a trace is invalid."""


class ArrivalProcess(ABC):
    """Produces absolute arrival times (and optional job tags).

    Subclasses implement :meth:`gaps`, an iterator of strictly positive
    integer microsecond inter-arrival gaps; :meth:`schedule` folds them
    into non-decreasing absolute times.  Trace replay overrides
    :meth:`schedule` directly (its times are absolute offsets, possibly
    with equal timestamps for simultaneous arrivals).
    """

    @abstractmethod
    def gaps(self) -> Iterator[int]:
        """Yield successive inter-arrival gaps in microseconds (>= 1)."""

    def schedule(self, start_us: int = 0) -> Iterator[tuple[int, Optional[str]]]:
        """Yield ``(arrival_time_us, tag)`` pairs from ``start_us`` on.

        The base implementation accumulates :meth:`gaps` and carries no
        tags; :class:`TraceArrivals` yields the tags its trace records.
        """
        now = int(start_us)
        for gap in self.gaps():
            now += gap
            yield now, None

    def set_rate(self, rate_per_s: float) -> None:
        """Change the arrival rate going forward (phase-script hook).

        Processes without a meaningful single rate raise
        :class:`ArrivalError`; the default does.
        """
        raise ArrivalError(
            f"{type(self).__name__} has no adjustable rate"
        )


def _check_rate(rate_per_s: float) -> float:
    if rate_per_s <= 0:
        raise ArrivalError(f"arrival rate must be positive, got {rate_per_s}")
    return float(rate_per_s)


class DeterministicArrivals(ArrivalProcess):
    """Fixed inter-arrival interval (``interval_us`` microseconds)."""

    def __init__(self, interval_us: int) -> None:
        if interval_us < 1:
            raise ArrivalError(
                f"inter-arrival interval must be >= 1us, got {interval_us}"
            )
        self.interval_us = int(interval_us)

    def set_rate(self, rate_per_s: float) -> None:
        self.interval_us = max(1, int(round(_US_PER_SEC / _check_rate(rate_per_s))))

    def gaps(self) -> Iterator[int]:
        while True:
            # Read the interval each gap so mid-run set_rate applies.
            yield self.interval_us


class PoissonArrivals(ArrivalProcess):
    """Seeded Poisson process: exponential inter-arrival gaps.

    The rate is read at every gap, so a phase script changing it
    mid-run reshapes the tail of the schedule without disturbing the
    RNG stream's determinism.
    """

    def __init__(self, rate_per_s: float, seed: int) -> None:
        self.rate_per_s = _check_rate(rate_per_s)
        self._rng = random.Random(seed)

    def set_rate(self, rate_per_s: float) -> None:
        self.rate_per_s = _check_rate(rate_per_s)

    def gaps(self) -> Iterator[int]:
        rng = self._rng
        while True:
            gap_us = rng.expovariate(1.0) * _US_PER_SEC / self.rate_per_s
            yield max(1, int(round(gap_us)))


class TraceArrivals(ArrivalProcess):
    """Replay an explicit arrival trace.

    Entries are ``(offset_us, tag)`` pairs; offsets are relative to the
    engine's start time, must be non-decreasing, and may repeat (a
    thundering herd is many arrivals at one timestamp).  Tags select a
    job template in the engine's template map; ``None`` uses the
    stream's default template.
    """

    def __init__(self, entries: Iterable[tuple[int, Optional[str]]]) -> None:
        parsed: list[tuple[int, Optional[str]]] = []
        last = 0
        for offset, tag in entries:
            offset = int(offset)
            if offset < 0:
                raise ArrivalError(f"trace offset cannot be negative: {offset}")
            if offset < last:
                raise ArrivalError(
                    f"trace offsets must be non-decreasing; {offset} follows {last}"
                )
            last = offset
            parsed.append((offset, tag))
        self.entries = parsed

    @classmethod
    def from_times(cls, times_us: Iterable[int]) -> "TraceArrivals":
        """Build an untagged trace from a list of offsets."""
        return cls((t, None) for t in times_us)

    @classmethod
    def parse(cls, text: str) -> "TraceArrivals":
        """Parse trace text: one ``offset_us [tag]`` per line.

        Blank lines and ``#`` comments are ignored.
        """
        entries: list[tuple[int, Optional[str]]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) > 2:
                raise ArrivalError(
                    f"trace line {lineno}: expected 'offset_us [tag]', got {raw!r}"
                )
            try:
                # Plain decimal: exported traces often zero-pad offsets,
                # which base-0 parsing would reject as octal-lookalikes.
                offset = int(fields[0])
            except ValueError:
                raise ArrivalError(
                    f"trace line {lineno}: {fields[0]!r} is not an integer offset"
                ) from None
            entries.append((offset, fields[1] if len(fields) == 2 else None))
        if not entries:
            raise ArrivalError("trace contains no arrivals")
        return cls(entries)

    @classmethod
    def from_file(cls, path: str) -> "TraceArrivals":
        """Parse a trace file (see :meth:`parse` for the format)."""
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as error:
            raise ArrivalError(f"cannot read trace {path!r}: {error}") from error
        return cls.parse(text)

    def gaps(self) -> Iterator[int]:  # pragma: no cover - schedule overrides
        raise ArrivalError("trace arrivals are absolute; use schedule()")

    def schedule(self, start_us: int = 0) -> Iterator[tuple[int, Optional[str]]]:
        start = int(start_us)
        for offset, tag in self.entries:
            yield start + offset, tag


__all__ = [
    "ArrivalError",
    "ArrivalProcess",
    "DeterministicArrivals",
    "PoissonArrivals",
    "TraceArrivals",
]
