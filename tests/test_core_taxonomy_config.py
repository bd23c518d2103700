"""Unit tests for the thread taxonomy and the controller configuration."""

import dataclasses

import pytest

from repro.core.config import ControllerConfig, PIDGains
from repro.core.errors import ControllerError
from repro.core.taxonomy import ThreadClass, ThreadSpec, classify
from repro.ipc.bounded_buffer import BoundedBuffer
from repro.ipc.roles import Role
from repro.sim.clock import seconds
from repro.system import build_real_rate_system

from tests.conftest import spin_body


@pytest.fixture(scope="module")
def overloaded_decisions():
    """The controller's last decision per thread, with one thread of
    each Figure 2 class overloading a single CPU."""
    system = build_real_rate_system(
        charge_dispatch_overhead=False, charge_controller_overhead=False
    )
    system.spawn_controlled(
        "rt", spin_body(), spec=ThreadSpec(proportion_ppt=300, period_us=10_000)
    )
    system.spawn_controlled("aperiodic", spin_body(), spec=ThreadSpec(proportion_ppt=300))
    queue = BoundedBuffer("q", 1_000)
    queue.commit_put(1_000)
    real_rate = system.spawn_controlled("rr", spin_body())
    system.link(real_rate, queue, Role.CONSUMER)
    system.spawn_controlled("misc", spin_body())
    system.run_for(seconds(2))
    return {d.thread.name: d for d in system.driver.last_decisions}


class TestThreadSpec:
    def test_defaults(self):
        spec = ThreadSpec()
        assert not spec.specifies_proportion
        assert not spec.specifies_period
        assert spec.importance == 1.0
        assert not spec.interactive

    def test_invalid_proportion(self):
        with pytest.raises(ControllerError):
            ThreadSpec(proportion_ppt=0)
        with pytest.raises(ControllerError):
            ThreadSpec(proportion_ppt=1_001)

    def test_invalid_period(self):
        with pytest.raises(ControllerError):
            ThreadSpec(period_us=0)

    def test_invalid_importance(self):
        with pytest.raises(ControllerError):
            ThreadSpec(importance=0)


class TestClassification:
    def test_real_time(self):
        spec = ThreadSpec(proportion_ppt=100, period_us=10_000)
        assert classify(spec, has_progress_metric=False) is ThreadClass.REAL_TIME
        # A progress metric does not demote a full reservation.
        assert classify(spec, has_progress_metric=True) is ThreadClass.REAL_TIME

    def test_aperiodic_real_time(self):
        spec = ThreadSpec(proportion_ppt=100)
        assert (
            classify(spec, has_progress_metric=False)
            is ThreadClass.APERIODIC_REAL_TIME
        )

    def test_real_rate(self):
        assert classify(ThreadSpec(), True) is ThreadClass.REAL_RATE
        # Specifying only a period still leaves the proportion to feedback.
        assert classify(ThreadSpec(period_us=10_000), True) is ThreadClass.REAL_RATE

    def test_miscellaneous(self):
        assert classify(ThreadSpec(), False) is ThreadClass.MISCELLANEOUS

    def test_squishability(self, overloaded_decisions):
        """Under overload the controller squishes the real-rate and
        miscellaneous threads; real-time reservations are protected."""
        assert {
            name: (d.thread_class, d.squished) for name, d in overloaded_decisions.items()
        } == {
            "rt": (ThreadClass.REAL_TIME, False),
            "aperiodic": (ThreadClass.APERIODIC_REAL_TIME, False),
            "rr": (ThreadClass.REAL_RATE, True),
            "misc": (ThreadClass.MISCELLANEOUS, True),
        }

    def test_reservation_spec_flag(self, overloaded_decisions):
        """Real-time classes get the application's proportion; a
        real-rate thread's comes from feedback on its pressure."""
        for name in ("rt", "aperiodic"):
            decision = overloaded_decisions[name]
            assert decision.pressure_raw is None
            assert decision.granted_ppt == 300
        assert overloaded_decisions["rr"].pressure_raw is not None


class TestControllerConfig:
    def test_defaults_valid(self):
        config = ControllerConfig()
        assert config.controller_period_us == 10_000
        assert config.controller_period_s == pytest.approx(0.01)
        assert 0 < config.min_fraction < config.max_fraction <= 1

    def test_paper_default_period(self):
        assert ControllerConfig().default_period_us == 30_000

    def test_invalid_controller_period(self):
        with pytest.raises(ControllerError):
            ControllerConfig(controller_period_us=0)

    def test_invalid_setpoint(self):
        with pytest.raises(ControllerError):
            ControllerConfig(setpoint_fill=1.5)

    def test_invalid_proportion_bounds(self):
        with pytest.raises(ControllerError):
            ControllerConfig(min_proportion_ppt=0)
        with pytest.raises(ControllerError):
            ControllerConfig(min_proportion_ppt=500, max_proportion_ppt=100)

    def test_invalid_thresholds(self):
        with pytest.raises(ControllerError):
            ControllerConfig(overload_threshold_ppt=0)
        with pytest.raises(ControllerError):
            ControllerConfig(admission_threshold_ppt=2_000)

    def test_invalid_k_scale(self):
        with pytest.raises(ControllerError):
            ControllerConfig(k_scale=0)

    def test_invalid_unused_threshold(self):
        with pytest.raises(ControllerError):
            ControllerConfig(unused_threshold=1.5)

    def test_invalid_period_bounds(self):
        with pytest.raises(ControllerError):
            ControllerConfig(period_min_us=10_000, period_max_us=5_000)

    def test_custom_gains_accepted(self):
        config = ControllerConfig(pid_gains=PIDGains(kp=1.0, ki=2.0, kd=0.1))
        assert config.pid_gains.ki == 2.0

    def test_pid_limits_are_derived_from_the_config(self):
        config = ControllerConfig(
            pid_gains=PIDGains(kp=1.0, ki=2.0, kd=0.1), k_scale=5.0,
            max_proportion_ppt=800,
        )
        assert config.pid_limits == (0.8 / 5.0, 0.0, 0.8 / 5.0 / 2.0)
        assert "pid_limits" not in {f.name for f in dataclasses.fields(config)}
        with pytest.raises(AttributeError):
            config.pid_limits = (1.0, None, None)
