"""Unit tests for admission control and the squish policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def water_filling(policy, desired, importance, available_ppt):
    """The squish as one loop per water-filling round, kept as an
    oracle for ``SquishPolicy.squish``: the same expressions in the
    same order.  Returns the grants, the rounds run and the proposals
    capped at what they asked for."""
    if sum(desired) <= available_ppt:
        return list(desired), 0, 0
    available = max(0, available_ppt)
    weights = policy.weights(desired, importance)
    grants = [0] * len(desired)
    remaining = list(range(len(desired)))
    rounds = capped = 0
    while remaining and available > 0:
        rounds += 1
        total_weight = 0.0
        for i in remaining:
            total_weight += weights[i]
        if total_weight <= 0:
            break
        next_round = []
        shares = []
        used = 0
        for i in remaining:
            share = int(available * weights[i] / total_weight)
            want = desired[i]
            if share >= want:
                grants[i] = want
                used += want
                capped += 1
            else:
                next_round.append(i)
                shares.append(share)
        if len(next_round) == len(remaining):
            for i, share in zip(remaining, shares):
                grants[i] = share
            break
        available -= used
        remaining = next_round
    floor = policy.min_proportion_ppt
    for i, want in enumerate(desired):
        minimum = floor if floor < want else want
        if grants[i] < minimum:
            grants[i] = minimum
    return grants, rounds, capped


POLICIES = [FairShareSquish, WeightedFairShareSquish]
IMPORTANCE = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 40.0])


@st.composite
def squish_cases(draw):
    """Any proposals, with any budget from below zero to above them all."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 1_000), IMPORTANCE), min_size=1,
                          max_size=12))
    desired = [want for want, _ in pairs]
    available = draw(st.integers(-10, sum(desired) + 10))
    return desired, [weight for _, weight in pairs], available


@st.composite
def capped_cases(draw):
    """Proposals over budget where the first round caps someone and a
    second round runs, under either policy.  A zero proposal is capped
    under both; a small one with an overwhelming importance is capped
    under the weighted policy too."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 1_000), IMPORTANCE), min_size=2,
                          max_size=10))
    small = draw(st.integers(1, 200))
    others = sum(want for want, _ in pairs)
    available = draw(st.integers(small + 1, small + others - 1))
    # share = int(available * w / (w + rest)) >= small once w > available * rest.
    heavy = 2.0 * available * sum(want * weight for want, weight in pairs) / small + 1.0
    for pair in ((0, draw(IMPORTANCE)), (small, heavy)):
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
    return [want for want, _ in pairs], [weight for _, weight in pairs], available


@pytest.mark.parametrize("policy_class", POLICIES)
@settings(max_examples=150, deadline=None)
@given(case=st.one_of(squish_cases(), capped_cases()), floor=st.integers(0, 50))
def test_squish_matches_water_filling(policy_class, case, floor):
    policy = policy_class(floor)
    desired, importance, available = case
    expected, _, _ = water_filling(policy, desired, importance, available)
    assert policy.squish(desired, importance, available) == expected


@pytest.mark.parametrize("policy_class", POLICIES)
@settings(max_examples=50, deadline=None)
@given(case=capped_cases())
def test_capped_cases_cap_and_run_several_rounds(policy_class, case):
    _, rounds, capped = water_filling(policy_class(), *case)
    assert rounds >= 2 and capped >= 1


class TestAdmissionControl:
    def test_accepts_within_threshold(self):
        config = ControllerConfig(admission_threshold_ppt=800)
        check_admission(config, [(300, None)], 400, None, "rt", n_cpus=1)

    def test_rejects_over_threshold(self):
        config = ControllerConfig(admission_threshold_ppt=800)
        with pytest.raises(AdmissionError) as excinfo:
            check_admission(config, [(700, None)], 200, None, "rt", n_cpus=1)
        assert excinfo.value.requested_ppt == 200
        assert excinfo.value.available_ppt == 100
        assert "rt" in str(excinfo.value)

    def test_exact_fit_accepted(self):
        config = ControllerConfig(admission_threshold_ppt=800)
        check_admission(config, [(600, None)], 200, None, "rt", n_cpus=1)
