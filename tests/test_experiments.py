"""Integration tests for the experiment drivers (reduced-size runs).

The full-size reproductions live in ``benchmarks/``; these tests run
smaller configurations so the unit-test suite stays fast while still
exercising every driver end to end through the registry.
"""

import pytest

import repro.experiments  # noqa: F401 — importing populates the registry
from repro.experiments.registry import REGISTRY


class TestFigure5Driver:
    def test_linear_overhead(self):
        result = REGISTRY.run(
            "figure5", {"process_counts": (0, 10, 20, 30), "sim_seconds": 1.0}
        )
        assert result.metric("slope_overhead_per_process") == pytest.approx(
            0.00066, rel=0.05
        )
        assert result.metric("r_squared") > 0.99
        assert result.metric("overhead_at_40_processes") == pytest.approx(
            0.027, rel=0.1
        )
        xs, ys = result.series["modeled_overhead_vs_processes"]
        assert len(xs) == 4
        assert ys == sorted(ys)


class TestFigure6Driver:
    def test_metrics_present_and_sane(self):
        result = REGISTRY.run("figure6", {"small_schedule": True})
        assert 0.02 <= result.metric("response_time_s") <= 0.8
        assert result.metric("tracking_error_fraction") < 0.2
        assert "producer_rate_bytes_per_s" in result.series
        assert "queue_fill_level" in result.series
        assert "consumer_allocation_ppt" in result.series


class TestFigure7Driver:
    def test_squishing_respects_threshold(self):
        result = REGISTRY.run("figure7", {"small_schedule": True})
        assert result.metric("max_total_allocation_ppt") <= result.metric(
            "overload_threshold_ppt"
        ) + 10
        assert result.metric("producer_allocation_min_ppt") == result.metric(
            "producer_allocation_max_ppt"
        )
        assert result.metric("consumer_hog_allocation_correlation") < -0.3


class TestFigure8Driver:
    def test_knee_and_monotonicity(self):
        result = REGISTRY.run(
            "figure8",
            {
                "frequencies_hz": (100, 500, 1_000, 2_000, 4_000, 8_000, 10_000),
                "sim_seconds": 0.5,
            },
        )
        assert 1_000 <= result.metric("knee_frequency_hz") <= 8_000
        xs, ys = result.series["available_cpu_normalised_vs_hz"]
        assert ys[0] == pytest.approx(1.0, abs=0.01)
        # Available CPU decreases (weakly) with dispatcher frequency.
        assert all(b <= a + 0.01 for a, b in zip(ys, ys[1:]))


class TestTaxonomyDriver:
    def test_classes_and_allocations(self):
        result = REGISTRY.run("taxonomy", {"sim_seconds": 4.0})
        assert result.metric("real_time_allocation_ppt") == 250
        assert result.metric("aperiodic_allocation_ppt") == 150
        assert result.metric("aperiodic_period_us") == 30_000
        assert result.metric("class_is_real_time:pulse.producer") == 1.0
        assert result.metric("class_is_real_time:cpu.hog") == 0.0


class TestInversionDriver:
    def test_real_rate_beats_plain_priorities(self):
        result = REGISTRY.run("inversion", {"sim_seconds": 4.0})
        assert result.metric("fixed_priority_worst_latency_s") > 1.0
        assert result.metric("real_rate_worst_latency_s") < 0.5
        assert result.metric("real_rate_miss_rate") < 0.1


class TestAblationDrivers:
    def test_squish_ablation_importance_ratio(self):
        result = REGISTRY.run("ablation_squish", {"sim_seconds": 4.0})
        assert result.metric("fair_top_to_base_ratio") == pytest.approx(1.0, abs=0.15)
        assert result.metric("weighted_top_to_base_ratio") > 2.0

    def test_pid_ablation_orders_response_times(self):
        result = REGISTRY.run("ablation_pid", {"labels": "low,high"})
        assert (
            result.metric("response_time_s:high")
            < result.metric("response_time_s:low")
        )
