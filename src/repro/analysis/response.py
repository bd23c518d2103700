"""Step-response metrics.

Figure 6's headline number is "it takes the controller roughly 1/3 of a
second to respond to the doubling in production rate".  Given a series
of (time, value) samples and the time of a step in the demand,
:func:`step_response` extracts the rise time (time to cross a fraction
of the step), the settling time and the overshoot, using standard
control-engineering definitions.
"""

# float-order: exact — the baseline and target averages decide the rise
# and settling times; sums are left folds, never the builtin sum().

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.regression import fold_mean


@dataclass(frozen=True)
class StepResponse:
    """Metrics of one step response."""

    step_time_s: float
    initial_value: float
    final_value: float
    rise_time_s: Optional[float]
    settling_time_s: Optional[float]
    overshoot_fraction: float


def step_response(
    times_s: Sequence[float],
    values: Sequence[float],
    step_time_s: float,
    *,
    target_value: Optional[float] = None,
    rise_fraction: float = 0.9,
    settle_fraction: float = 0.1,
    baseline_window_s: float = 0.5,
    measure_window_s: Optional[float] = None,
) -> StepResponse:
    """Measure the response of a sampled signal to a step at ``step_time_s``.

    Parameters
    ----------
    target_value:
        The value the signal should settle at.  Defaults to the mean of
        the samples in the last quarter of the measurement window.
    rise_fraction:
        Fraction of the step that must be crossed to count as "risen".
    settle_fraction:
        Band (as a fraction of the step size) within which the signal
        must remain to count as settled.
    baseline_window_s:
        How far before the step to average for the initial value.
    measure_window_s:
        How far after the step to look; defaults to the end of the data.
    """
    if len(times_s) != len(values):
        raise ValueError("times and values must have the same length")
    if not times_s:
        raise ValueError("cannot measure a step response on an empty series")
    if not 0 < rise_fraction <= 1:
        raise ValueError(f"rise_fraction must be in (0, 1], got {rise_fraction}")

    end_s = times_s[-1] if measure_window_s is None else step_time_s + measure_window_s
    before = [
        v
        for t, v in zip(times_s, values)
        if step_time_s - baseline_window_s <= t < step_time_s
    ]
    after = [(t, v) for t, v in zip(times_s, values) if step_time_s <= t <= end_s]
    if not before or not after:
        raise ValueError(
            "series does not bracket the step time; cannot measure response"
        )
    initial = fold_mean(before)

    if target_value is None:
        tail_start = step_time_s + 0.75 * (end_s - step_time_s)
        tail = [v for t, v in after if t >= tail_start]
        target_value = fold_mean(tail) if tail else after[-1][1]

    step_size = target_value - initial
    if step_size == 0:
        return StepResponse(
            step_time_s=step_time_s,
            initial_value=initial,
            final_value=target_value,
            rise_time_s=0.0,
            settling_time_s=0.0,
            overshoot_fraction=0.0,
        )

    rise_threshold = initial + rise_fraction * step_size
    rise_time: Optional[float] = None
    for t, v in after:
        crossed = v >= rise_threshold if step_size > 0 else v <= rise_threshold
        if crossed:
            rise_time = t - step_time_s
            break

    settle_band = abs(step_size) * settle_fraction
    settling_time: Optional[float] = None
    for i, (t, v) in enumerate(after):
        if all(abs(v2 - target_value) <= settle_band for _, v2 in after[i:]):
            settling_time = t - step_time_s
            break

    if step_size > 0:
        peak = max(v for _, v in after)
        overshoot = max(0.0, (peak - target_value) / abs(step_size))
    else:
        trough = min(v for _, v in after)
        overshoot = max(0.0, (target_value - trough) / abs(step_size))

    return StepResponse(
        step_time_s=step_time_s,
        initial_value=initial,
        final_value=target_value,
        rise_time_s=rise_time,
        settling_time_s=settling_time,
        overshoot_fraction=overshoot,
    )


__all__ = ["StepResponse", "step_response"]
