"""Time-series helpers.

Small, dependency-free utilities shared by the experiment drivers:
converting cumulative byte counters into rates, locating the knee of an
overhead curve, and rendering a series
as a unicode sparkline for terminal output.
"""

# float-order: exact — deviations and bucket means feed pinned artifact
# metrics; sums are left folds, never the builtin sum().

from __future__ import annotations

from typing import Sequence

from repro.analysis.regression import fold_mean, fold_sum

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def rate_from_cumulative(
    times_s: Sequence[float], cumulative: Sequence[float]
) -> tuple[list[float], list[float]]:
    """Convert a cumulative counter into a rate series.

    Returns ``(midpoint_times, rates)`` where each rate is the increase
    between consecutive samples divided by the elapsed time.  Intervals
    with zero elapsed time are skipped.
    """
    if len(times_s) != len(cumulative):
        raise ValueError(
            f"times and values must have the same length, got "
            f"{len(times_s)} and {len(cumulative)}"
        )
    mid_times: list[float] = []
    rates: list[float] = []
    for i in range(1, len(times_s)):
        dt = times_s[i] - times_s[i - 1]
        if dt <= 0:
            continue
        mid_times.append((times_s[i] + times_s[i - 1]) / 2)
        rates.append((cumulative[i] - cumulative[i - 1]) / dt)
    return mid_times, rates


def mean_absolute_deviation(values: Sequence[float], target: float) -> float:
    """Mean |value - target| (0.0 for an empty sequence)."""
    if not values:
        return 0.0
    return fold_sum(abs(v - target) for v in values) / len(values)


def find_knee(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Locate the knee of a monotonically degrading curve.

    Uses the "kneedle"-style maximum-distance-from-chord heuristic: the
    knee is the x whose point lies farthest from the straight line
    joining the first and last points.  Works on the log-x axis used by
    Figure 8 if the caller passes log-scaled xs.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if len(xs) < 3:
        raise ValueError(f"need at least three points to find a knee, got {len(xs)}")
    x0, y0 = xs[0], ys[0]
    x1, y1 = xs[-1], ys[-1]
    dx, dy = x1 - x0, y1 - y0
    norm = (dx * dx + dy * dy) ** 0.5
    if norm == 0:
        raise ValueError("first and last points coincide; knee is undefined")
    best_x = xs[0]
    best_distance = -1.0
    for x, y in zip(xs, ys):
        distance = abs(dy * (x - x0) - dx * (y - y0)) / norm
        if distance > best_distance:
            best_distance = distance
            best_x = x
    return best_x


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render ``values`` as a one-line unicode sparkline."""
    if not values:
        return ""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    # Downsample by averaging buckets so long series fit in `width`.
    bucketed: list[float] = []
    n = len(values)
    buckets = min(width, n)
    for b in range(buckets):
        lo = b * n // buckets
        hi = max(lo + 1, (b + 1) * n // buckets)
        chunk = values[lo:hi]
        bucketed.append(fold_mean(chunk))
    low = min(bucketed)
    high = max(bucketed)
    if high == low:
        return _SPARK_CHARS[0] * len(bucketed)
    chars = []
    for value in bucketed:
        index = int((value - low) / (high - low) * (len(_SPARK_CHARS) - 1))
        chars.append(_SPARK_CHARS[index])
    return "".join(chars)


__all__ = [
    "find_knee",
    "mean_absolute_deviation",
    "rate_from_cumulative",
    "sparkline",
]
