"""Unit tests for admission control and the squish policies."""

import pytest

from repro.core.config import ControllerConfig
from repro.core.errors import AdmissionError
from repro.core.overload import (
    FairShareSquish,
    WeightedFairShareSquish,
    check_admission,
)


class TestSquishValidation:
    def test_validation(self):
        policy = FairShareSquish()
        with pytest.raises(ValueError):
            policy.squish([-1], [1.0], available_ppt=100)
        with pytest.raises(ValueError):
            policy.squish([100], [0.0], available_ppt=100)
        with pytest.raises(ValueError):
            policy.squish([100, 200], [1.0], available_ppt=100)


class TestFairShareSquish:
    def test_no_squish_when_fits(self):
        policy = FairShareSquish()
        grants = policy.squish([200, 300], [1.0, 1.0], available_ppt=600)
        assert grants == [200, 300]

    def test_proportional_reduction(self):
        policy = FairShareSquish()
        grants = policy.squish([600, 300], [1.0, 1.0], available_ppt=450)
        # Scaled by one half, preserving the 2:1 ratio.
        assert grants[0] == pytest.approx(300, abs=2)
        assert grants[1] == pytest.approx(150, abs=2)

    def test_equal_desires_get_equal_grants(self):
        policy = FairShareSquish()
        grants = policy.squish([900] * 3, [1.0] * 3, available_ppt=600)
        assert max(grants) - min(grants) <= 1
        assert sum(grants) <= 600

    def test_total_never_exceeds_available(self):
        policy = FairShareSquish()
        desired = [500 + i * 100 for i in range(5)]
        grants = policy.squish(desired, [1.0] * 5, available_ppt=700)
        assert sum(grants) <= 700 + len(desired)  # floor rounding slack

    def test_small_request_not_inflated(self):
        policy = FairShareSquish()
        grants = policy.squish([50, 900], [1.0, 1.0], available_ppt=800)
        assert grants[0] <= 50

    def test_empty_requests(self):
        assert FairShareSquish().squish([], [], 500) == []

    def test_zero_available_floors_at_minimum(self):
        policy = FairShareSquish(min_proportion_ppt=5)
        grants = policy.squish([400, 400], [1.0, 1.0], available_ppt=0)
        assert grants[0] == 5
        assert grants[1] == 5

    def test_minimum_proportion_enforced(self):
        policy = FairShareSquish(min_proportion_ppt=10)
        grants = policy.squish([900, 900, 20], [1.0] * 3, available_ppt=100)
        assert all(g >= 10 for g in grants)


class TestWeightedFairShareSquish:
    def test_importance_biases_shares(self):
        policy = WeightedFairShareSquish()
        grants = policy.squish([900, 900], [1.0, 3.0], available_ppt=400)
        assert grants[1] > grants[0]
        assert grants[1] / grants[0] == pytest.approx(3.0, rel=0.1)

    def test_importance_cannot_starve(self):
        policy = WeightedFairShareSquish(min_proportion_ppt=5)
        grants = policy.squish([900, 900], [0.001, 1_000.0], available_ppt=500)
        assert grants[0] >= 5

    def test_equal_importance_reduces_to_fair_share(self):
        weighted = WeightedFairShareSquish()
        fair = FairShareSquish()
        desired = [600, 300]
        importance = [1.0, 1.0]
        assert weighted.squish(desired, importance, 450) == fair.squish(
            desired, importance, 450
        )

    def test_capped_request_redistributes(self):
        policy = WeightedFairShareSquish()
        # The first wants little at high importance.
        grants = policy.squish([100, 900], [10.0, 1.0], available_ppt=600)
        assert grants[0] == 100          # capped at its own desire
        assert grants[1] >= 400          # leftover goes to the other request


class TestAdmissionControl:
    def test_accepts_within_threshold(self):
        config = ControllerConfig(admission_threshold_ppt=800)
        check_admission(config, existing_real_time_ppt=300, requested_ppt=400,
                        thread_name="rt")

    def test_rejects_over_threshold(self):
        config = ControllerConfig(admission_threshold_ppt=800)
        with pytest.raises(AdmissionError) as excinfo:
            check_admission(config, existing_real_time_ppt=700, requested_ppt=200,
                            thread_name="rt")
        assert excinfo.value.requested_ppt == 200
        assert excinfo.value.available_ppt == 100
        assert "rt" in str(excinfo.value)

    def test_exact_fit_accepted(self):
        config = ControllerConfig(admission_threshold_ppt=800)
        check_admission(config, existing_real_time_ppt=600, requested_ppt=200,
                        thread_name="rt")
