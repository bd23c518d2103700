"""Unit tests for the declarative fault plan (wire form + validation)."""

from __future__ import annotations

import pytest

from repro.faults import (
    CPU_FAIL,
    CPU_RECOVER,
    FAULT_PLAN_SCHEMA_VERSION,
    RUNAWAY_START,
    RUNAWAY_STOP,
    SENSOR_CORRUPT,
    SENSOR_DROPOUT,
    STALL_START,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
)


class TestFaultEventValidation:
    def test_cpu_kinds_require_cpu(self):
        with pytest.raises(FaultPlanError, match="requires a cpu index"):
            FaultEvent(0, CPU_FAIL)
        with pytest.raises(FaultPlanError, match="targets a cpu"):
            FaultEvent(0, CPU_RECOVER, cpu=0, thread="w")
        with pytest.raises(FaultPlanError, match="cannot be negative"):
            FaultEvent(0, CPU_FAIL, cpu=-1)

    def test_thread_kinds_require_thread(self):
        with pytest.raises(FaultPlanError, match="requires a target thread"):
            FaultEvent(0, RUNAWAY_START)
        with pytest.raises(FaultPlanError, match="targets a thread"):
            FaultEvent(0, STALL_START, thread="w", cpu=1)

    def test_unknown_kind_and_negative_time(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultEvent(0, "meteor_strike", thread="w")
        with pytest.raises(FaultPlanError, match="negative"):
            FaultEvent(-1, CPU_FAIL, cpu=0)

    def test_sensor_faults_need_duration_and_magnitude(self):
        with pytest.raises(FaultPlanError, match="requires duration_us"):
            FaultEvent(0, SENSOR_DROPOUT, thread="w")
        with pytest.raises(FaultPlanError, match="positive magnitude"):
            FaultEvent(0, SENSOR_CORRUPT, thread="w", duration_us=10)
        # Valid forms construct fine.
        FaultEvent(0, SENSOR_DROPOUT, thread="w", duration_us=10)
        FaultEvent(0, SENSOR_CORRUPT, thread="w", duration_us=10, magnitude=0.5)

    def test_duration_rules(self):
        with pytest.raises(FaultPlanError, match="must be positive"):
            FaultEvent(0, CPU_FAIL, cpu=0, duration_us=0)
        # Stop kinds are instantaneous: a duration is meaningless.
        with pytest.raises(FaultPlanError, match="instantaneous"):
            FaultEvent(0, RUNAWAY_STOP, thread="w", duration_us=5)
        # Start kinds may carry one (auto-schedules the stop).
        FaultEvent(0, RUNAWAY_START, thread="w", duration_us=5)
        FaultEvent(0, CPU_FAIL, cpu=0, duration_us=5)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(FaultPlanError, match="magnitude"):
            FaultEvent(0, RUNAWAY_START, thread="w", magnitude=-1.0)


class TestFaultPlan:
    def test_events_sorted_stably_by_time(self):
        a = FaultEvent(50, RUNAWAY_START, thread="a")
        b = FaultEvent(10, STALL_START, thread="b")
        c = FaultEvent(50, RUNAWAY_STOP, thread="c")
        plan = FaultPlan(events=(a, b, c))
        assert [e.thread for e in plan.events] == ["b", "a", "c"]
        assert len(plan) == 3

    def test_window_selects_half_open_range(self):
        plan = FaultPlan(
            events=tuple(
                FaultEvent(t, RUNAWAY_START, thread="w")
                for t in (0, 10, 20, 30)
            )
        )
        assert [e.at_us for e in plan.window(10, 30)] == [10, 20]

    def test_wire_form_lists_events_in_firing_order(self):
        plan = FaultPlan(
            events=(
                FaultEvent(9_000, RUNAWAY_START, thread="hog"),
                FaultEvent(5_000, CPU_FAIL, cpu=2, duration_us=10_000),
                FaultEvent(7_000, SENSOR_CORRUPT, thread="decode",
                           duration_us=3_000, magnitude=1.25),
            ),
            seed=42,
        )
        assert plan.to_dict() == {
            "schema_version": FAULT_PLAN_SCHEMA_VERSION,
            "seed": 42,
            "events": [
                {"at_us": 5_000, "kind": CPU_FAIL, "cpu": 2,
                 "duration_us": 10_000},
                {"at_us": 7_000, "kind": SENSOR_CORRUPT, "thread": "decode",
                 "duration_us": 3_000, "magnitude": 1.25},
                {"at_us": 9_000, "kind": RUNAWAY_START, "thread": "hog"},
            ],
        }

    def test_to_dict_omits_unset_optionals(self):
        event = FaultEvent(0, CPU_FAIL, cpu=1)
        assert event.to_dict() == {"at_us": 0, "kind": CPU_FAIL, "cpu": 1}
        event = FaultEvent(3, STALL_START, thread="w")
        assert event.to_dict() == {"at_us": 3, "kind": STALL_START, "thread": "w"}

    def test_empty_plan_wire_form(self):
        plan = FaultPlan()
        assert len(plan) == 0
        assert plan.to_dict() == {
            "schema_version": FAULT_PLAN_SCHEMA_VERSION,
            "seed": 0,
            "events": [],
        }
