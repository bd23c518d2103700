"""Unit tests for the CPU model and the tracer."""

import pytest

from repro.sim.cpu import CPUModel
from repro.sim.events import EventQueue
from repro.sim.trace import TracePoint, TraceSeries, Tracer


class TestCPUModel:
    def test_defaults_are_valid(self):
        cpu = CPUModel()
        assert cpu.dispatch_cost_us > 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CPUModel(dispatch_cost_us=-1)
        with pytest.raises(ValueError):
            CPUModel(dispatch_cost_quadratic_us=-0.5)

    def test_effective_cost_constant_without_quadratic(self):
        cpu = CPUModel(dispatch_cost_us=5.0)
        assert cpu.effective_dispatch_cost_us(100) == pytest.approx(5.0)
        assert cpu.effective_dispatch_cost_us(10_000) == pytest.approx(5.0)

    def test_effective_cost_grows_with_quadratic_term(self):
        cpu = CPUModel(dispatch_cost_us=5.0, dispatch_cost_quadratic_us=0.1)
        assert cpu.effective_dispatch_cost_us(4_000) == pytest.approx(5.0 + 0.1 * 16)

    def test_overhead_fraction_monotonic_in_frequency(self):
        cpu = CPUModel(dispatch_cost_us=6.75)
        overheads = [
            f * cpu.effective_dispatch_cost_us(f) / 1e6
            for f in (100, 1_000, 4_000, 10_000)
        ]
        assert overheads == sorted(overheads)
        assert all(0 <= o <= 1 for o in overheads)

    def test_overhead_fraction_matches_paper_calibration(self):
        cpu = CPUModel(dispatch_cost_us=6.75)
        assert 4_000 * cpu.effective_dispatch_cost_us(4_000) / 1e6 == pytest.approx(
            0.027, rel=0.01
        )


class TestTraceSeries:
    def test_append_and_read(self):
        series = TraceSeries("s")
        series.append(0, 1.0)
        series.append(1_000, 2.0)
        assert series.values() == [1.0, 2.0]
        assert series.times() == [0, 1_000]
        assert series.times_s() == [0.0, 0.001]

    def test_out_of_order_append_rejected(self):
        series = TraceSeries("s")
        series.append(1_000, 1.0)
        with pytest.raises(ValueError):
            series.append(500, 2.0)

    def test_window_selects_half_open_interval(self):
        series = TraceSeries("s")
        for t in range(0, 5_000, 1_000):
            series.append(t, float(t))
        window = series.window(1_000, 3_000)
        assert [p.time_us for p in window] == [1_000, 2_000]

    def test_mean(self):
        series = TraceSeries("s")
        series.append(0, 1.0)
        series.append(1, 3.0)
        assert series.mean() == 2.0
        assert TraceSeries("empty").mean() == 0.0

    def test_last(self):
        series = TraceSeries("s")
        assert series.last() is None
        series.append(5, 7.0)
        assert series.last() == TracePoint(5, 7.0)


class TestTracer:
    def test_record_creates_series(self):
        tracer = Tracer()
        tracer.record("x", 0, 1.0)
        assert "x" in tracer
        assert tracer.series("x").values() == [1.0]

    def test_names_in_creation_order(self):
        tracer = Tracer()
        tracer.record("b", 0, 1.0)
        tracer.record("a", 0, 1.0)
        assert tracer.names() == ["b", "a"]

    def test_sampler_records_periodically(self):
        tracer = Tracer()
        events = EventQueue()
        tracer.add_sampler(events, 100, "probe", lambda now: now * 2.0)
        # Drain events manually up to t=300.
        while (event := events.pop_due(300)) is not None:
            event.callback()
        assert tracer.series("probe").values() == [0.0, 200.0, 400.0, 600.0]

    def test_stop_samplers(self):
        tracer = Tracer()
        events = EventQueue()
        tracer.add_sampler(events, 100, "probe", lambda now: 1.0).stop()
        while (event := events.pop_due(1_000)) is not None:
            event.callback()
        # Only firings scheduled before stop (none, since first fire was
        # cancelled) appear.
        assert len(tracer.series("probe")) == 0
