"""Unit tests for the analysis utilities."""

import math

import pytest

from repro.analysis.regression import linear_fit
from repro.analysis.response import step_response
from repro.analysis.results import ExperimentResult, format_table
from repro.analysis.series import (
    find_knee,
    mean_absolute_deviation,
    rate_from_cumulative,
    sparkline,
)


class TestLinearFit:
    def test_perfect_line(self):
        xs = [0, 1, 2, 3, 4]
        ys = [2.0 + 3.0 * x for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(10) == pytest.approx(32.0)

    def test_noisy_line_r_squared_below_one(self):
        xs = list(range(10))
        ys = [2.0 * x + (1 if x % 2 else -1) for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(2.0, abs=0.2)
        assert 0.9 < fit.r_squared < 1.0

    def test_flat_data(self):
        fit = linear_fit([0, 1, 2], [5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == 1.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1.0])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            linear_fit([1], [1.0])

    def test_degenerate_x(self):
        with pytest.raises(ValueError):
            linear_fit([2, 2, 2], [1.0, 2.0, 3.0])


class TestSeriesHelpers:
    def test_rate_from_cumulative(self):
        times = [0.0, 1.0, 2.0, 3.0]
        cumulative = [0.0, 100.0, 300.0, 300.0]
        mid, rates = rate_from_cumulative(times, cumulative)
        assert rates == [100.0, 200.0, 0.0]
        assert mid == [0.5, 1.5, 2.5]

    def test_rate_skips_zero_intervals(self):
        times = [0.0, 1.0, 1.0, 2.0]
        cumulative = [0.0, 10.0, 10.0, 30.0]
        _, rates = rate_from_cumulative(times, cumulative)
        assert rates == [10.0, 20.0]

    def test_rate_length_mismatch(self):
        with pytest.raises(ValueError):
            rate_from_cumulative([0.0], [1.0, 2.0])

    def test_mean_absolute_deviation(self):
        assert mean_absolute_deviation([0.4, 0.6], 0.5) == pytest.approx(0.1)
        assert mean_absolute_deviation([], 0.5) == 0.0

    def test_find_knee_on_synthetic_curve(self):
        # Flat then falling: the knee is at the corner.
        xs = list(range(10))
        ys = [1.0] * 5 + [1.0 - 0.2 * i for i in range(1, 6)]
        assert find_knee(xs, ys) in (4, 5)

    def test_find_knee_needs_three_points(self):
        with pytest.raises(ValueError):
            find_knee([1, 2], [1.0, 2.0])

    def test_sparkline_length_and_range(self):
        values = [math.sin(i / 5) for i in range(200)]
        line = sparkline(values, width=50)
        assert len(line) == 50

    def test_sparkline_flat(self):
        assert set(sparkline([1.0, 1.0, 1.0])) == {"▁"}

    def test_sparkline_empty(self):
        assert sparkline([]) == ""


class TestStepResponse:
    def _exponential_step(self, tau=0.2, step_at=1.0, end=4.0, dt=0.01):
        times, values = [], []
        t = 0.0
        while t <= end:
            times.append(t)
            if t < step_at:
                values.append(0.0)
            else:
                values.append(1.0 - math.exp(-(t - step_at) / tau))
            t += dt
        return times, values

    def test_rise_time_of_exponential(self):
        times, values = self._exponential_step(tau=0.2)
        response = step_response(times, values, 1.0)
        # 90% rise of a first-order lag is ~2.3 tau.
        assert response.rise_time_s == pytest.approx(0.46, abs=0.05)
        assert response.overshoot_fraction == pytest.approx(0.0, abs=0.05)

    def test_settling_time_reported(self):
        times, values = self._exponential_step(tau=0.1)
        response = step_response(times, values, 1.0)
        assert response.settling_time_s is not None
        assert response.settling_time_s < 1.0

    def test_no_response_detected(self):
        times = [i * 0.01 for i in range(400)]
        values = [0.0] * 400
        response = step_response(times, values, 1.0, target_value=1.0)
        assert response.rise_time_s is None

    def test_overshoot_measured(self):
        times = [i * 0.01 for i in range(300)]
        values = []
        for t in times:
            if t < 1.0:
                values.append(0.0)
            elif t < 1.2:
                values.append(1.5)
            else:
                values.append(1.0)
        response = step_response(times, values, 1.0, target_value=1.0)
        assert response.overshoot_fraction == pytest.approx(0.5, abs=0.05)

    def test_requires_data_around_step(self):
        with pytest.raises(ValueError):
            step_response([0.0, 0.1], [1.0, 1.0], 5.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            step_response([], [], 0.0)


class TestExperimentResult:
    def test_metric_lookup(self):
        result = ExperimentResult("x", "title", metrics={"a": 1.0})
        assert result.metric("a") == 1.0
        with pytest.raises(KeyError):
            result.metric("missing")

    def test_comparison_rows_include_paper_values(self):
        result = ExperimentResult(
            "x", "t", metrics={"a": 1.0, "b": 2.0}, paper_values={"a": 1.1}
        )
        rows = dict((name, (paper, measured)) for name, paper, measured in
                    result.comparison_rows())
        assert rows["a"] == (1.1, 1.0)
        assert rows["b"] == (None, 2.0)

    def test_add_series_and_summary(self):
        result = ExperimentResult("x", "t", metrics={"a": 1.0})
        result.add_series("s", [0.0, 1.0], [2.0, 3.0])
        result.notes.append("a note")
        text = result.summary()
        assert "[x]" in text
        assert "a note" in text
        assert result.series["s"] == ([0.0, 1.0], [2.0, 3.0])

    def test_format_table_alignment(self):
        table = format_table([("metric_one", 1.0, 2.0), ("m2", None, 0.5)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "metric_one" in lines[2] or "metric_one" in lines[1]
