"""Ordinary least-squares linear regression.

Figure 5's caption reports its overhead measurements as a fitted line
("y = .00066x + .00057, with a coefficient of determination of .999"),
so the reproduction needs slope, intercept and R².  Implemented
directly (no numpy dependency in the core library) since the inputs are
tiny.

Every sum here is an explicit left fold (:func:`fold_sum`), so a fit is
bit-identical on every Python: CPython 3.12's builtin ``sum()``
compensates float sums, which moves the low bits of figure metrics.
"""

# float-order: exact — fitted metrics land in pinned artifacts; sums
# are left folds, never the builtin sum().

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def fold_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...``: the sum in the order given."""
    total = 0.0
    for value in values:
        total += value
    return total


def fold_mean(values: Sequence[float]) -> float:
    """The left-fold mean of a non-empty sequence."""
    return fold_sum(values) / len(values)


def centered_moments(
    xs: Sequence[float], ys: Sequence[float]
) -> tuple[float, float, float, float, float]:
    """``(mean_x, mean_y, sxx, syy, sxy)`` of two equal-length samples.

    ``sxx``, ``syy`` and ``sxy`` are the sums of centred squares and
    cross products that both a least-squares fit and a Pearson
    correlation are built from.
    """
    mean_x = fold_mean(xs)
    mean_y = fold_mean(ys)
    sxx = fold_sum((x - mean_x) ** 2 for x in xs)
    syy = fold_sum((y - mean_y) ** 2 for y in ys)
    sxy = fold_sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return mean_x, mean_y, sxx, syy, sxy


@dataclass(frozen=True)
class LinearFit:
    """Result of a least-squares line fit."""

    slope: float
    intercept: float
    r_squared: float
    n: int

    def predict(self, x: float) -> float:
        """Evaluate the fitted line at ``x``."""
        return self.slope * x + self.intercept


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Fit ``y = slope * x + intercept`` by ordinary least squares.

    Raises ``ValueError`` for fewer than two points or when all x
    values are identical (the slope would be undefined).
    """
    if len(xs) != len(ys):
        raise ValueError(
            f"x and y must have the same length, got {len(xs)} and {len(ys)}"
        )
    n = len(xs)
    if n < 2:
        raise ValueError(f"need at least two points to fit a line, got {n}")
    mean_x, mean_y, sxx, ss_tot, sxy = centered_moments(xs, ys)
    if sxx == 0:
        raise ValueError("all x values are identical; slope is undefined")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x

    ss_res = fold_sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    if ss_tot == 0:
        # A perfectly flat dependent variable is perfectly explained by
        # the (flat) fitted line.
        r_squared = 1.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared, n=n)


__all__ = ["LinearFit", "centered_moments", "fold_mean", "fold_sum", "linear_fit"]
