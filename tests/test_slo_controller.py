"""Unit tests for the SLO-driven second-level reservation controller."""

from __future__ import annotations

import pytest

from repro.core.taxonomy import ThreadSpec
from repro.sched.rbs import ReservationScheduler
from repro.sim.kernel import Kernel
from repro.swift.slo import SLOController, SLOPolicy
from repro.workloads.arrivals import DeterministicArrivals
from repro.workloads.engine import JobStream, JobTemplate


def _stream(records_us, *, outcome="completed"):
    """A bare JobStream carrying synthetic completion records."""
    stream = JobStream(
        name="s",
        template=JobTemplate("j"),
        arrivals=DeterministicArrivals(1_000),
    )
    for i, sojourn in enumerate(records_us):
        stream.records.append(i, "j", 0, sojourn, outcome)
    return stream


def _controller(records_us, policy, **kwargs):
    kernel = Kernel(ReservationScheduler())
    spec = ThreadSpec(proportion_ppt=policy.min_ppt * 2, period_us=10_000)
    stream = _stream(records_us)
    controller = SLOController(kernel, stream, spec, policy, **kwargs)
    return kernel, spec, stream, controller


class TestSLOPolicy:
    def test_defaults_are_valid(self):
        policy = SLOPolicy(target_us=40_000.0)
        assert policy.percentile == 99.0
        assert policy.step_up_ppt >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_us": 0.0},
            {"target_us": 1.0, "percentile": 0},
            {"target_us": 1.0, "percentile": 101},
            {"target_us": 1.0, "window": 0},
            {"target_us": 1.0, "min_ppt": 0},
            {"target_us": 1.0, "min_ppt": 50, "max_ppt": 40},
            {"target_us": 1.0, "step_up_ppt": 0},
            {"target_us": 1.0, "decay": 0.0},
            {"target_us": 1.0, "decay": 1.5},
            {"target_us": 1.0, "headroom": 0.0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SLOPolicy(**kwargs)


class TestSLOController:
    def test_requires_a_proportion_spec(self):
        kernel = Kernel(ReservationScheduler())
        with pytest.raises(ValueError, match="proportion"):
            SLOController(
                kernel, _stream([]), ThreadSpec(),
                SLOPolicy(target_us=1_000.0),
            )

    def test_observed_tail_is_windowed_exact_rank(self):
        policy = SLOPolicy(target_us=1_000.0, window=4)
        _, _, _, controller = _controller(
            [10, 20, 30, 100, 200, 300, 400], policy
        )
        # Only the last 4 completions (100..400) are in the window;
        # exact-rank p99 of 4 samples is the maximum.
        assert controller.observed_tail_us() == 400.0

    def test_observed_tail_ignores_non_completions(self):
        policy = SLOPolicy(target_us=1_000.0, window=8)
        kernel = Kernel(ReservationScheduler())
        spec = ThreadSpec(proportion_ppt=50, period_us=10_000)
        stream = _stream([100, 200])
        stream.records.append(9, "j", 0, 9_999, "killed")
        stream.records.append(10, "j", 0, 0, "rejected")
        controller = SLOController(kernel, stream, spec, policy)
        assert controller.observed_tail_us() == 200.0

    def test_observed_tail_none_before_first_completion(self):
        policy = SLOPolicy(target_us=1_000.0)
        _, _, _, controller = _controller([], policy)
        assert controller.observed_tail_us() is None

    def test_additive_increase_on_violation(self):
        policy = SLOPolicy(target_us=1_000.0, step_up_ppt=15, max_ppt=100)
        kernel, spec, _, controller = _controller([5_000], policy)
        before = spec.proportion_ppt
        kernel.run_for(60_000)  # two 50 ms default periods: ticks at 0 and 50 ms
        assert controller.violations > 0
        assert spec.proportion_ppt > before
        # Additive: each violating tick adds exactly step_up_ppt.
        grown = spec.proportion_ppt - before
        assert grown % policy.step_up_ppt == 0
        assert controller.adjustments
        now, observed, new_ppt = controller.adjustments[0]
        assert observed == 5_000.0
        assert new_ppt == before + policy.step_up_ppt

    def test_increase_clamps_at_max_ppt(self):
        policy = SLOPolicy(target_us=1_000.0, step_up_ppt=400, max_ppt=60,
                           min_ppt=10)
        kernel, spec, _, controller = _controller([5_000], policy)
        kernel.run_for(200_000)
        assert spec.proportion_ppt == policy.max_ppt

    def test_multiplicative_decrease_below_headroom(self):
        policy = SLOPolicy(target_us=100_000.0, decay=0.5, min_ppt=10,
                           headroom=0.6)
        kernel, spec, _, controller = _controller([1_000], policy)
        before = spec.proportion_ppt
        kernel.run_for(1_000)
        assert spec.proportion_ppt == max(policy.min_ppt, int(before * 0.5))

    def test_dead_band_holds_allocation(self):
        # Observed 80% of target: above headroom (60%), below target.
        policy = SLOPolicy(target_us=10_000.0, headroom=0.6)
        kernel, spec, _, controller = _controller([8_000], policy)
        before = spec.proportion_ppt
        kernel.run_for(200_000)
        assert spec.proportion_ppt == before
        assert controller.adjustments == []
        assert controller.violations == 0
        assert controller.invocations > 0

    def test_stop_halts_ticking(self):
        policy = SLOPolicy(target_us=1_000.0)
        kernel, spec, _, controller = _controller([5_000], policy)
        kernel.run_for(1_000)
        ticked = controller.invocations
        controller.stop()
        kernel.run_for(500_000)
        assert controller.invocations == ticked

    def test_traces_ppt_and_tail_series(self):
        policy = SLOPolicy(target_us=1_000.0)
        kernel, spec, _, controller = _controller([5_000], policy)
        kernel.run_for(60_000)
        assert len(kernel.tracer.series("slo:ppt")) > 0
        assert len(kernel.tracer.series("slo:tail_us")) > 0
