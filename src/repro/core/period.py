"""Period estimation heuristic.

For real-rate threads with no specified period, "the controller must
also determine the period.  Currently, we use a simple heuristic which
increases the period to reduce quantization error when the proportion
is small, since the dispatcher can only allocate multiples of the
dispatch interval.  The controller decreases the period to reduce
jitter, which we detect via large oscillations relative to the buffer
size."

The paper *disables* this heuristic in all reported experiments, and so
do our figure reproductions; the ablation benchmark
``benchmarks/test_bench_ablation_period.py`` exercises it.
"""

# float-order: exact — the swing average is an explicit left fold
# (CPython 3.12's builtin sum() compensates float sums).

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.config import ControllerConfig


@dataclass(frozen=True)
class PeriodDecision:
    """Outcome of one period-estimation step."""

    period_us: int
    grew_for_quantization: bool
    shrank_for_jitter: bool


class PeriodEstimator:
    """Per-thread period adaptation.

    Parameters
    ----------
    config:
        Controller configuration (bounds, factors, thresholds).
    dispatch_interval_us:
        The dispatcher's quantum, needed to judge quantisation error.
    initial_period_us:
        Starting period (the controller default unless specified).
    """

    def __init__(
        self,
        config: ControllerConfig,
        dispatch_interval_us: int,
        initial_period_us: Optional[int] = None,
    ) -> None:
        self.config = config
        self.dispatch_interval_us = dispatch_interval_us
        self.period_us = initial_period_us or config.default_period_us
        self._last_fill: Optional[float] = None
        if config.oscillation_window <= 0:
            raise ValueError(
                f"window must be positive, got {config.oscillation_window}"
            )
        #: The last ``oscillation_window`` fill-level swings.
        self._swings: deque[float] = deque(maxlen=config.oscillation_window)
        self.adjustments = 0

    def observe_fill(self, fill_level: float) -> float:
        """Record a fill-level sample; returns the smoothed swing estimate.

        The heuristic "determines the magnitude of oscillation by
        monitoring the amount of change in fill-level over the course
        of a period, averaged over several periods"; we approximate the
        per-period change with the change between controller samples.
        """
        if self._last_fill is None:
            self._last_fill = fill_level
            return 0.0
        swing = abs(fill_level - self._last_fill)
        self._last_fill = fill_level
        swings = self._swings
        swings.append(swing)
        total = 0.0
        for sample in swings:
            total += sample
        return total / len(swings)

    def update(self, proportion_ppt: int, fill_level: Optional[float]) -> PeriodDecision:
        """Adapt the period given the current proportion and fill level."""
        config = self.config
        swing = self.observe_fill(fill_level) if fill_level is not None else 0.0

        allocation_us = self.period_us * proportion_ppt // 1000
        quantization_limited = (
            allocation_us < config.quantization_quanta * self.dispatch_interval_us
        )
        jitter_limited = swing > config.oscillation_threshold

        grew = False
        shrank = False
        if jitter_limited and self.period_us > config.period_min_us:
            # Jitter wins over quantisation: a shorter period bounds how
            # far the queue can drift between allocations.
            self.period_us = max(
                config.period_min_us,
                int(self.period_us * config.period_shrink_factor),
            )
            shrank = True
            self.adjustments += 1
        elif quantization_limited and self.period_us < config.period_max_us:
            self.period_us = min(
                config.period_max_us,
                int(self.period_us * config.period_grow_factor),
            )
            grew = True
            self.adjustments += 1
        return PeriodDecision(
            period_us=self.period_us,
            grew_for_quantization=grew,
            shrank_for_jitter=shrank,
        )


__all__ = ["PeriodDecision", "PeriodEstimator"]
