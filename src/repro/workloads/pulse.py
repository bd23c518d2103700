"""The pulse-response pipeline of Section 4.2 (Figures 6 and 7).

"The program is a simple pipeline of a producer and consumer connected
by a bounded buffer.  Both the producer and consumer loop for some
number of cycles before they enqueue or dequeue a block of data.  We
fix the allocation (cycles/sec) given to the producer by specifying a
reservation for it, and control the rate at which it produces data
(bytes/cycle).  For the consumer, we fix the rate of consumption, but
let the controller determine the allocation."

The producer's production rate follows a :class:`PulseSchedule`: three
rising pulses of increasing width (rate doubles, then falls back)
followed by three falling pulses from the doubled baseline, as in the
paper's Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.taxonomy import ThreadSpec
from repro.ipc.bounded_buffer import BoundedBuffer
from repro.sim.clock import seconds
from repro.sim.requests import Compute, Get, Put
from repro.sim.thread import SimThread, ThreadEnv
from repro.system import RealRateSystem


@dataclass(frozen=True)
class RateSegment:
    """Constant production rate over ``[start_us, end_us)``."""

    start_us: int
    end_us: int
    bytes_per_cpu_us: float

    def __post_init__(self) -> None:
        if self.end_us <= self.start_us:
            raise ValueError(
                f"segment end {self.end_us} must be after start {self.start_us}"
            )
        if self.bytes_per_cpu_us <= 0:
            raise ValueError(
                f"production rate must be positive, got {self.bytes_per_cpu_us}"
            )


class PulseSchedule:
    """Piecewise-constant production-rate schedule."""

    def __init__(self, segments: list[RateSegment], default_rate: float) -> None:
        if default_rate <= 0:
            raise ValueError(f"default rate must be positive, got {default_rate}")
        self.segments = sorted(segments, key=lambda s: s.start_us)
        self.default_rate = default_rate

    def rate_at(self, now_us: int) -> float:
        """Production rate (bytes per CPU microsecond) at virtual time."""
        for segment in self.segments:
            if segment.start_us <= now_us < segment.end_us:
                return segment.bytes_per_cpu_us
        return self.default_rate

    def end_us(self) -> int:
        """Time at which the last segment ends (0 if no segments)."""
        return max((s.end_us for s in self.segments), default=0)

    @classmethod
    def paper_figure6(
        cls,
        base_rate: float = 0.01,
        high_rate: Optional[float] = None,
        rising_widths_s: tuple[float, ...] = (0.2, 1.0, 3.0),
        falling_widths_s: tuple[float, ...] = (0.2, 1.0, 3.0),
        gap_s: float = 3.0,
        start_s: float = 2.0,
        tail_s: float = 3.0,
    ) -> "PulseSchedule":
        """The Figure 6 schedule: rising pulses then falling pulses.

        The producer first runs at ``base_rate``, emits three rising
        pulses of increasing width (rate doubles during the pulse, then
        falls back), then "keeps its default rate high and generates
        three falling pulses" — i.e. the baseline switches to the high
        rate and the pulses dip back down to ``base_rate``.  The widths
        deliberately straddle the controller's response time so that,
        as the paper observes, "the effect on fill level from pulses
        with smaller width is smaller".
        """
        high_rate = high_rate if high_rate is not None else 2.0 * base_rate
        segments: list[RateSegment] = []
        cursor = seconds(start_s)
        pulse_windows: list[tuple[int, int, bool]] = []
        for width in rising_widths_s:
            segment = RateSegment(cursor, cursor + seconds(width), high_rate)
            segments.append(segment)
            pulse_windows.append((segment.start_us, segment.end_us, True))
            cursor += seconds(width) + seconds(gap_s)
        # Second half: the baseline becomes the high rate; the pulses are
        # dips back down to the original rate.  The first dip comes one
        # gap after the baseline switches so it is a genuine falling
        # pulse out of a high plateau.
        tail_start = cursor
        previous_end = tail_start
        cursor = tail_start + seconds(gap_s)
        for width in falling_widths_s:
            dip = RateSegment(cursor, cursor + seconds(width), base_rate)
            if dip.start_us > previous_end:
                segments.append(RateSegment(previous_end, dip.start_us, high_rate))
            segments.append(dip)
            pulse_windows.append((dip.start_us, dip.end_us, False))
            previous_end = dip.end_us
            cursor += seconds(width) + seconds(gap_s)
        # Keep the high baseline for a final tail so the last dip is a
        # genuine pulse rather than the end of the experiment.
        segments.append(
            RateSegment(previous_end, previous_end + seconds(gap_s + tail_s), high_rate)
        )
        schedule = cls(segments, default_rate=base_rate)
        schedule.high_baseline_start_us = tail_start  # type: ignore[attr-defined]
        schedule.pulse_windows = pulse_windows  # type: ignore[attr-defined]
        return schedule


@dataclass
class PulseParameters:
    """Tunable parameters of the pulse pipeline.

    Defaults are chosen so that, with the library's default controller
    gains, the closed loop settles in roughly a third of a second
    (matching the paper's reported response time) and the byte rates
    land in the same few-thousand-bytes-per-second range as Figure 6.
    """

    producer_proportion_ppt: int = 250
    producer_period_us: int = 20_000
    consumer_period_us: int = 10_000
    queue_capacity_bytes: int = 3_000
    producer_cycles_per_block_us: int = 2_000
    consumer_cycles_per_block_us: int = 2_000
    consumer_bytes_per_cpu_us: float = 0.01
    base_rate_bytes_per_cpu_us: float = 0.01


class PulsePipeline:
    """Producer + bounded buffer + controller-managed consumer."""

    def __init__(
        self,
        system: RealRateSystem,
        schedule: Optional[PulseSchedule] = None,
        params: Optional[PulseParameters] = None,
    ) -> None:
        self.system = system
        self.params = params if params is not None else PulseParameters()
        self.schedule = (
            schedule
            if schedule is not None
            else PulseSchedule.paper_figure6(self.params.base_rate_bytes_per_cpu_us)
        )
        self.producer: Optional[SimThread] = None
        self.consumer: Optional[SimThread] = None
        self.queue: Optional[BoundedBuffer] = None

    # ------------------------------------------------------------------
    # thread bodies
    # ------------------------------------------------------------------
    def _producer_body(self, env: ThreadEnv):
        params = self.params
        while True:
            cycles = params.producer_cycles_per_block_us
            yield Compute(cycles)
            rate = self.schedule.rate_at(env.now)
            block = max(1, int(round(rate * cycles)))
            yield Put(self.queue, block)

    def _consumer_body(self, env: ThreadEnv):
        params = self.params
        block = max(
            1,
            int(round(params.consumer_bytes_per_cpu_us
                      * params.consumer_cycles_per_block_us)),
        )
        while True:
            yield Compute(params.consumer_cycles_per_block_us)
            yield Get(self.queue, block)

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        system: RealRateSystem,
        schedule: Optional[PulseSchedule] = None,
        params: Optional[PulseParameters] = None,
    ) -> "PulsePipeline":
        """Create the pipeline's threads and queue inside ``system``."""
        pipeline = cls(system, schedule, params)
        pipeline._build()
        return pipeline

    def _build(self) -> None:
        params = self.params
        # The producer has a fixed reservation: it is a real-time thread
        # from the controller's point of view, so the controller never
        # changes its allocation (exactly as in the paper's experiment).
        self.producer = self.system.spawn_controlled(
            "pulse.producer",
            self._producer_body,
            spec=ThreadSpec(
                proportion_ppt=params.producer_proportion_ppt,
                period_us=params.producer_period_us,
            ),
        )
        # The consumer supplies only a progress metric (the shared
        # queue): it is a real-rate thread and the controller owns its
        # allocation.  Its period is specified to keep dispatch jitter
        # small relative to the controller's sampling interval.
        self.consumer = self.system.spawn_controlled(
            "pulse.consumer",
            self._consumer_body,
            spec=ThreadSpec(period_us=params.consumer_period_us),
        )
        self.queue = self.system.open_queue(
            "pulse.queue",
            producer=self.producer,
            consumer=self.consumer,
            capacity_bytes=params.queue_capacity_bytes,
        )

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    def fill_level(self) -> float:
        """Current queue fill level in [0, 1]."""
        return self.queue.fill_level()

    def expected_consumer_fraction(self, rate: float) -> float:
        """CPU fraction the consumer needs to keep up at a producer rate.

        With the producer holding fraction ``P_p`` and producing
        ``rate`` bytes per CPU microsecond, matching byte rates requires
        the consumer fraction ``P_c = P_p * rate / consumer_rate``.
        """
        producer_fraction = self.params.producer_proportion_ppt / 1000
        return producer_fraction * rate / self.params.consumer_bytes_per_cpu_us


__all__ = ["PulseParameters", "PulsePipeline", "PulseSchedule", "RateSegment"]
