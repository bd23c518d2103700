"""Tracing and time-series collection.

Every experiment in the paper is reported as a time series (allocation
over time, queue fill level over time, progress rate over time) or as a
scalar derived from one (overhead fraction, response time).  The
:class:`Tracer` collects named ``(time, value)`` series during a
simulation run; the analysis package turns them into the figures.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left
from itertools import islice
from typing import Callable, Iterator, NamedTuple

from repro.sim.clock import to_seconds
from repro.sim.events import EventQueue, PeriodicEvent


class TracePoint(NamedTuple):
    """A single sample: virtual time (us) and a float value.

    Readers (iteration, indexing, :meth:`TraceSeries.window`) build one
    per sample on access; appending builds none.
    """

    time_us: int
    value: float

    @property
    def time_s(self) -> float:
        """Sample time in seconds."""
        return to_seconds(self.time_us)


class TraceSeries:
    """An append-only, time-ordered series of samples.

    Samples are stored unboxed in typed columns: an ``array("q")`` of
    int64 times, the index of the series' first sample in it, and an
    ``array("d")`` of doubles.  A series built by :meth:`append` owns
    its time column and its first index is 0.  The controller driver
    samples each watched series once per tick, so its series read their
    times from one tick-time column they share (see :meth:`share`) and
    store only their values, 8 bytes a sample.  Index 0 of a shared
    column is never a sample, so a first index of 0 always means an own
    column.
    Readers return plain Python ints and floats.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: array[int] = array("q")
        self._first = 0
        self._values: array[float] = array("d")

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[TracePoint]:
        return map(TracePoint, islice(self._times, self._first, None), self._values)

    def __getitem__(self, index: int) -> TracePoint:
        values = self._values
        value = values[index]
        if index < 0:
            index += len(values)
        return TracePoint(self._times[self._first + index], value)

    def append(self, time_us: int, value: float) -> None:
        """Append a sample; time must be non-decreasing and fit int64.

        A series on a shared column first moves onto a copy of its own
        slice of it.
        """
        times = self._times
        first = self._first
        n = len(self._values)
        if n and time_us < times[first + n - 1]:
            raise ValueError(
                f"series {self.name!r}: sample at {time_us}us is earlier than "
                f"previous sample at {times[first + n - 1]}us"
            )
        # Convert the value first: a value that cannot be stored must
        # not leave its time behind, and an out-of-range time raises
        # OverflowError before anything is stored.
        value = float(value)
        if first:
            self._times = times = times[first : first + n]
            self._first = 0
        times.append(int(time_us))
        self._values.append(value)

    def share(self, times: array[int]) -> None:
        """Read this series' times from ``times`` from its last entry
        on, if the series is still empty.

        For a bulk appender that owns ``times`` and never stores a
        sample at its index 0.  After appending a time there, it may
        append just the value (an ``int`` converts to ``float``) to
        each series whose ``_times`` is ``times`` and whose ``_first``
        plus length is the new time's index; every other sample must go
        through :meth:`append`.
        """
        if not self._values and len(times) > 1:
            self._times = times
            self._first = len(times) - 1

    def times_s(self) -> list[float]:
        """All sample times in seconds."""
        first = self._first
        return [to_seconds(t) for t in islice(self._times, first, first + len(self._values))]

    def values(self) -> list[float]:
        """All sample values."""
        return list(self._values)

    def window(self, start_us: int, end_us: int) -> list[TracePoint]:
        """Samples with ``start_us <= time < end_us``."""
        times = self._times
        first = self._first
        last = first + len(self._values)
        lo = bisect_left(times, start_us, first, last)
        hi = bisect_left(times, end_us, lo, last)
        values = self._values
        return [TracePoint(times[i], values[i - first]) for i in range(lo, hi)]


class Tracer:
    """Collects named :class:`TraceSeries` during a simulation.

    A series exists once something records into it, or once a reader
    watches it.  Producers that could sample a series on every tick
    (the controller driver and the SLO controller) record only the
    series a reader watches, so a run pays only for the traces
    something reads.
    """

    def __init__(self) -> None:
        self._series: dict[str, TraceSeries] = {}
        #: name -> series for every name passed to :meth:`watch`, in
        #: watch order.  Read-only: watch through :meth:`watch`.
        self.watched: dict[str, TraceSeries] = {}

    def _get(self, name: str) -> TraceSeries:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TraceSeries(name)
        return series

    def watch(self, name: str) -> TraceSeries:
        """Ask for the series ``name`` to be recorded, and return it.

        Call before the run: a producer that records only watched
        series starts sampling ``name`` at its next firing.
        """
        series = self.watched[name] = self._get(name)
        return series

    def series(self, name: str) -> TraceSeries:
        """The series called ``name``.

        Raises :class:`KeyError` if ``name`` was neither watched nor
        recorded, so a reader that forgot to watch a series fails
        instead of reading an empty one.
        """
        series = self._series.get(name)
        if series is None:
            raise KeyError(
                f"no trace series {name!r}: watch it before the run "
                f"(known series: {', '.join(map(repr, self._series)) or 'none'})"
            )
        return series

    def record(self, name: str, time_us: int, value: float) -> None:
        """Append a sample to the series called ``name``, creating it
        if needed."""
        self._get(name).append(time_us, value)

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
        """Sample ``probe(now)`` every ``period_us`` into series ``name``,
        which exists from this call on.

        Returns the underlying :class:`PeriodicEvent` so callers can
        stop the sampler.
        """
        append = self._get(name).append

        def _sample(now: int) -> None:
            append(now, probe(now))

        return PeriodicEvent(
            events, period_us, _sample, start=start_us, label=f"sampler:{name}"
        )

    def fingerprint(self) -> str:
        """SHA-256 digest of every series' exact samples.

        That is every series recorded into or watched (a producer that
        records only watched series contributes nothing else).  Series
        are hashed in sorted name order and each sample by its
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
