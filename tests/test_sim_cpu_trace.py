"""Unit tests for the CPU model and the tracer."""

import gc
import tracemalloc
from array import array

import pytest

from repro.sim.cpu import CPUModel
from repro.sim.events import EventQueue
from repro.sim.trace import TracePoint, TraceSeries, Tracer
from repro.system import build_real_rate_system
from repro.workloads.cpu_hog import CpuHog


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
        assert series.times_s() == [0.0, 0.001]
        assert list(series) == [TracePoint(0, 1.0), TracePoint(1_000, 2.0)]
        assert series[-1] == TracePoint(1_000, 2.0)
        assert len(series) == 2

    def test_out_of_order_append_rejected(self):
        series = TraceSeries("s")
        series.append(1_000, 1.0)
        with pytest.raises(ValueError):
            series.append(500, 2.0)
        assert series.values() == [1.0]

    def test_window_selects_half_open_interval(self):
        series = TraceSeries("s")
        for t in range(0, 5_000, 1_000):
            series.append(t, float(t))
        window = series.window(1_000, 3_000)
        assert window == [TracePoint(1_000, 1_000.0), TracePoint(2_000, 2_000.0)]

    def test_columns_are_typed_arrays(self):
        series = TraceSeries("s")
        series.append(5, 7.0)
        times, values = series.columns()
        assert isinstance(times, array) and times.typecode == "q"
        assert isinstance(values, array) and values.typecode == "d"

    def test_int_value_reads_back_as_float(self):
        series = TraceSeries("s")
        series.append(0, 3)
        # The driver's bulk path appends int grants straight onto the
        # value column.
        times, values = series.columns()
        times.append(1)
        values.append(4)
        assert series.values() == [3.0, 4.0]
        assert all(type(v) is float for v in series.values())
        assert all(type(p.time_us) is int and type(p.value) is float for p in series)

    @pytest.mark.parametrize("time_us", [2**63, -(2**63) - 1])
    def test_time_outside_int64_raises(self, time_us):
        series = TraceSeries("s")
        with pytest.raises(OverflowError):
            series.append(time_us, 1.0)
        assert len(series) == 0 and series.values() == []

    def test_unconvertible_value_stores_nothing(self):
        series = TraceSeries("s")
        with pytest.raises(TypeError):
            series.append(0, object())
        assert len(series) == 0 and series.times_s() == []


class TestTraceMemory:
    """The controller's traces hold each sample unboxed.

    Two samples per controlled thread per tick is the largest record a
    controller run keeps.  A typed column pair holds a sample in 16
    bytes (plus the column's over-allocation); two lists and a boxed
    value held about 40.
    """

    MAX_BYTES_PER_SAMPLE = 24

    @staticmethod
    def _held_bytes(trace: bool) -> tuple[int, int]:
        """Traced bytes still held after 300 controller ticks over 3
        hogs, and the number of trace samples recorded."""
        gc.collect()
        tracemalloc.start()
        try:
            system = build_real_rate_system()
            system.driver.trace_allocations = trace
            for i in range(3):
                CpuHog.attach(
                    system, name=f"hog{i}", burst_us=3_000, importance=1.0 + i
                )
            system.kernel.run_for(300 * system.driver.period_us)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        tracer = system.kernel.tracer
        return held, sum(len(tracer.series(name)) for name in tracer.names())

    def test_controller_trace_bytes_per_sample(self):
        untraced, no_samples = self._held_bytes(trace=False)
        traced, samples = self._held_bytes(trace=True)
        assert no_samples == 0
        # alloc and pressure per hog per tick, plus alloc:total.
        assert samples == 300 * (2 * 3 + 1)
        per_sample = (traced - untraced) / samples
        assert per_sample <= self.MAX_BYTES_PER_SAMPLE, (
            f"{per_sample:.1f} bytes per trace sample"
        )


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
