"""Tracing and time-series collection.

Every experiment in the paper is reported as a time series (allocation
over time, queue fill level over time, progress rate over time) or as a
scalar derived from one (overhead fraction, response time).  The
:class:`Tracer` collects named ``(time, value)`` series during a
simulation run; the analysis package turns them into the figures.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Callable, Iterator, NamedTuple, Optional

from repro.sim.clock import to_seconds
from repro.sim.events import EventQueue, PeriodicEvent


class TracePoint(NamedTuple):
    """A single sample: virtual time (us) and a float value.

    A named tuple because controller tracing appends one per decision
    per tick — creation cost is on the hot path.
    """

    time_us: int
    value: float

    @property
    def time_s(self) -> float:
        """Sample time in seconds."""
        return to_seconds(self.time_us)


class TraceSeries:
    """An append-only, time-ordered series of samples.

    Samples are stored as two parallel lists (times and values) and
    materialised into :class:`TracePoint` tuples on access: controller
    tracing appends one sample per decision per tick, so the append
    path must be two list appends, not a namedtuple construction.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: list[int] = []
        self._values: list[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TracePoint]:
        return map(TracePoint, self._times, self._values)

    def __getitem__(self, index: int) -> TracePoint:
        if isinstance(index, slice):
            return [
                TracePoint(t, v)
                for t, v in zip(self._times[index], self._values[index])
            ]
        return TracePoint(self._times[index], self._values[index])

    def append(self, time_us: int, value: float) -> None:
        """Append a sample; time must be non-decreasing."""
        times = self._times
        if times and time_us < times[-1]:
            raise ValueError(
                f"series {self.name!r}: sample at {time_us}us is earlier than "
                f"previous sample at {times[-1]}us"
            )
        times.append(int(time_us))
        self._values.append(float(value))

    def columns(self) -> tuple[list[int], list[float]]:
        """The live time and value lists, for a bulk appender that keeps
        :meth:`append`'s rules itself (non-decreasing ``int`` times,
        ``float`` values)."""
        return self._times, self._values

    def times(self) -> list[int]:
        """All sample times in microseconds."""
        return list(self._times)

    def times_s(self) -> list[float]:
        """All sample times in seconds."""
        return [to_seconds(t) for t in self._times]

    def values(self) -> list[float]:
        """All sample values."""
        return list(self._values)

    def last(self) -> Optional[TracePoint]:
        """The most recent sample, or ``None`` if empty."""
        if not self._times:
            return None
        return TracePoint(self._times[-1], self._values[-1])

    def window(self, start_us: int, end_us: int) -> list[TracePoint]:
        """Samples with ``start_us <= time < end_us``."""
        times = self._times
        lo = bisect_left(times, start_us)
        hi = bisect_left(times, end_us)
        values = self._values
        return [TracePoint(times[i], values[i]) for i in range(lo, hi)]

    def mean(self) -> float:
        """Arithmetic mean of the values (0.0 for an empty series)."""
        if not self._values:
            return 0.0
        return sum(self._values) / len(self._values)


class Tracer:
    """Collects named :class:`TraceSeries` during a simulation."""

    def __init__(self) -> None:
        self._series: dict[str, TraceSeries] = {}

    def series(self, name: str) -> TraceSeries:
        """Get (creating if needed) the series called ``name``."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TraceSeries(name)
        return series

    def record(self, name: str, time_us: int, value: float) -> None:
        """Append a sample to the series called ``name``."""
        self.series(name).append(time_us, value)

    def names(self) -> list[str]:
        """All series names, in creation order."""
        return list(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def add_sampler(
        self,
        events: EventQueue,
        period_us: int,
        name: str,
        probe: Callable[[int], float],
        start_us: int = 0,
    ) -> PeriodicEvent:
        """Sample ``probe(now)`` every ``period_us`` into series ``name``.

        Returns the underlying :class:`PeriodicEvent` so callers can
        stop the sampler.
        """

        def _sample(now: int) -> None:
            self.record(name, now, probe(now))

        return PeriodicEvent(
            events, period_us, _sample, start=start_us, label=f"sampler:{name}"
        )

    def fingerprint(self) -> str:
        """SHA-256 digest of every series' exact samples.

        Series are hashed in sorted name order and each sample by its
        integer time and ``repr`` of its float value, so two runs have
        equal fingerprints iff their traces are byte-identical.  Used
        by the determinism regression tests.
        """
        digest = hashlib.sha256()
        for name in sorted(self._series):
            digest.update(name.encode())
            digest.update(b"\x00")
            for point in self._series[name]:
                digest.update(f"{point.time_us}:{point.value!r};".encode())
        return digest.hexdigest()


__all__ = ["TracePoint", "TraceSeries", "Tracer"]
