"""Unit tests for the CPU model and the tracer."""

import gc
import tracemalloc
from array import array

import pytest

from repro.core.driver import ControllerDriver
from repro.sim.cpu import CPUModel
from repro.sim.events import EventQueue
from repro.sim.trace import TracePoint, TraceSeries, Tracer
from repro.system import build_real_rate_system
from repro.workloads.cpu_hog import CpuHog

from tests.conftest import spin_body, watch_controller_series


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
        # Own columns from append, and a shared time column from share.
        series = TraceSeries("s")
        series.append(5, 7.0)
        assert isinstance(series._times, array) and series._times.typecode == "q"
        assert isinstance(series._values, array) and series._values.typecode == "d"
        ticks = array("q", [0, 5])
        shared = TraceSeries("t")
        shared.share(ticks)
        assert shared._times is ticks and shared._first == 1
        assert isinstance(shared._values, array) and shared._values.typecode == "d"

    def test_int_value_reads_back_as_float(self):
        # The driver's bulk path appends int grants straight onto the
        # value column of a series that shares its tick-time column.
        ticks = array("q", [0, 0])
        series = TraceSeries("s")
        series.share(ticks)
        series._values.append(3)
        ticks.append(1)
        series._values.append(4)
        series.append(2, 5)
        assert series.values() == [3.0, 4.0, 5.0]
        assert all(type(v) is float for v in series.values())
        assert all(type(p.time_us) is int and type(p.value) is float for p in series)
        assert list(series) == [TracePoint(0, 3.0), TracePoint(1, 4.0), TracePoint(2, 5.0)]

    def test_only_an_empty_series_shares_a_column(self):
        series = TraceSeries("s")
        series.append(0, 1.0)
        series.share(array("q", [0, 5]))
        assert series._first == 0 and list(series) == [TracePoint(0, 1.0)]
        # Index 0 of a shared column is never a sample.
        empty = TraceSeries("t")
        ticks = array("q", [0])
        empty.share(ticks)
        assert empty._times is not ticks and empty._first == 0

    def test_append_moves_a_shared_series_onto_its_own_times(self):
        ticks = array("q", [0, 10, 20])
        series = TraceSeries("s")
        series.share(ticks)
        assert series._times is ticks
        series._values.append(1.0)
        ticks.append(30)
        with pytest.raises(ValueError, match="previous sample at 20us"):
            series.append(19, 2.0)
        series.append(25, 2.0)
        assert series._times is not ticks and series._first == 0
        assert ticks == array("q", [0, 10, 20, 30])
        assert list(series) == [TracePoint(20, 1.0), TracePoint(25, 2.0)]

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
    """The controller's traces hold each sample unboxed, and each tick's
    time once; with nothing watched they hold nothing.

    Two samples per controlled thread per tick is the largest record a
    controller run keeps.  The driver's series share one tick-time
    column and store only their values, 8 bytes a sample (plus the
    column's over-allocation and one 8-byte time per tick); a typed
    column pair per series held 16, two lists and a boxed value about
    40.
    """

    MAX_BYTES_PER_SAMPLE = 14

    @staticmethod
    def _held_bytes(watch: bool):
        """Traced bytes still held after 300 controller ticks over 3
        hogs, and the system."""
        gc.collect()
        tracemalloc.start()
        try:
            system = build_real_rate_system()
            for i in range(3):
                CpuHog.attach(
                    system, name=f"hog{i}", burst_us=3_000, importance=1.0 + i
                )
            if watch:
                watch_controller_series(system)
            system.kernel.run_for(300 * system.driver.period_us)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return held, system

    def test_controller_trace_bytes_per_sample(self):
        unwatched, _ = self._held_bytes(watch=False)
        watched, system = self._held_bytes(watch=True)
        tracer = system.kernel.tracer
        samples = sum(len(tracer.series(name)) for name in tracer.names())
        # alloc and pressure per hog per tick, plus alloc:total.
        assert samples == 300 * (2 * 3 + 1)
        per_sample = (watched - unwatched) / samples
        assert per_sample <= self.MAX_BYTES_PER_SAMPLE, (
            f"{per_sample:.1f} bytes per trace sample"
        )

    def test_nothing_watched_keeps_nothing(self, monkeypatch):
        unwatched, system = self._held_bytes(watch=False)
        assert system.driver.invocations == 300
        assert system.kernel.tracer.names() == []
        assert len(system.driver._tick_times) == 1
        # The same run with the driver's trace step removed holds as
        # much, give or take the few hundred bytes by which repeated
        # runs differ as free lists warm up; 300 ticks of even one
        # series and its tick times would hold 4.8 KB more.
        monkeypatch.setattr(ControllerDriver, "_trace", lambda *args: None)
        untraced, _ = self._held_bytes(watch=False)
        assert abs(unwatched - untraced) < 2_048, (unwatched, untraced)

    @pytest.mark.parametrize("hogs", [1, 3, 16])
    def test_a_tick_adds_one_time_to_one_column(self, hogs):
        system = build_real_rate_system()
        for i in range(hogs):
            CpuHog.attach(system, name=f"hog{i}", burst_us=3_000)
        watch_controller_series(system)
        tracer = system.kernel.tracer
        for tick in range(1, 6):
            system.kernel.run_for(system.driver.period_us)
            columns = {id(tracer.series(name)._times) for name in tracer.names()}
            assert columns == {id(system.driver._tick_times)}
            # Index 0 of the column is never a sample.
            assert len(system.driver._tick_times) == 1 + tick
        assert len(tracer.names()) == 2 * hogs + 1


def assert_reads_alike(actual: TraceSeries, expected: TraceSeries) -> None:
    """Every reader returns the same for ``actual`` as for ``expected``."""
    n = len(expected)
    assert len(actual) == n
    assert list(actual) == list(expected)
    assert all(type(p.time_us) is int and type(p.value) is float for p in actual)
    assert [actual[i] for i in range(-n, n)] == [expected[i] for i in range(-n, n)]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            actual[index]
    assert actual.times_s() == expected.times_s()
    assert actual.values() == expected.values()
    times = [point.time_us for point in expected]
    bounds = sorted({-1, *times, *(t + 1 for t in times)})
    for start in bounds:
        for end in bounds:
            assert actual.window(start, end) == expected.window(start, end)


class TestSharedTickColumn:
    """Series on the driver's tick-time column read exactly as series
    built one sample at a time through TraceSeries.append."""

    @staticmethod
    def _system_with_shadow(*names):
        """A controlled system watching the series of the threads called
        ``names``, and a Tracer that gets every tick's decisions through
        TraceSeries.append as the driver traces them."""
        system = build_real_rate_system(
            charge_dispatch_overhead=False, charge_controller_overhead=False
        )
        shadow = Tracer()
        for tracer in (system.kernel.tracer, shadow):
            for name in names:
                tracer.watch(f"alloc:{name}")
                tracer.watch(f"pressure:{name}")
            tracer.watch("alloc:total")
        update = system.allocator.update

        def spy(now):
            decisions = update(now)
            total = 0
            for decision in decisions:
                name = decision.thread.name
                shadow.record(f"alloc:{name}", now, decision.granted_ppt)
                total += decision.granted_ppt
                if decision.cumulative_pressure is not None:
                    shadow.record(
                        f"pressure:{name}", now, decision.cumulative_pressure
                    )
            shadow.record("alloc:total", now, total)
            return decisions

        system.allocator.update = spy
        return system, shadow

    @staticmethod
    def _assert_traces_alike(system, shadow):
        tracer = system.kernel.tracer
        assert tracer.names() == shadow.names()
        for name in shadow.names():
            assert_reads_alike(tracer.series(name), shadow.series(name))
        assert tracer.fingerprint() == shadow.fingerprint()

    def test_thread_joining_after_the_first_tick(self):
        system, shadow = self._system_with_shadow("early", "late")
        system.spawn_controlled("early", spin_body())
        period = system.driver.period_us
        system.kernel.run_for(3 * period)
        ticks = system.driver._tick_times
        joined_at = len(ticks)
        system.spawn_controlled("late", spin_body())
        system.kernel.run_for(4 * period)
        late = system.kernel.tracer.series("alloc:late")
        assert late._times is ticks and late._first == joined_at
        self._assert_traces_alike(system, shadow)

    def test_thread_missing_a_tick(self):
        system, shadow = self._system_with_shadow("kept", "gone")
        system.spawn_controlled("kept", spin_body())
        gone = system.spawn_controlled("gone", spin_body())
        period = system.driver.period_us
        system.kernel.run_for(3 * period)
        system.allocator.unregister(gone)
        system.kernel.run_for(2 * period)
        system.allocator.register(gone)
        system.kernel.run_for(3 * period)
        tracer = system.kernel.tracer
        assert tracer.series("alloc:gone")._times is not system.driver._tick_times
        assert tracer.series("alloc:kept")._times is system.driver._tick_times
        self._assert_traces_alike(system, shadow)

    def test_two_threads_with_one_name(self):
        system, shadow = self._system_with_shadow("twin", "solo")
        system.spawn_controlled("twin", spin_body())
        system.spawn_controlled("twin", spin_body(2_000))
        system.spawn_controlled("solo", spin_body())
        system.kernel.run_for(5 * system.driver.period_us)
        assert len(system.kernel.tracer.series("alloc:twin")) == 2 * 5
        self._assert_traces_alike(system, shadow)

    @pytest.mark.parametrize("name", ["alloc:hog", "pressure:hog", "alloc:total"])
    def test_foreign_record_onto_a_shared_series(self, name):
        system, shadow = self._system_with_shadow("hog", "other")
        system.spawn_controlled("hog", spin_body())
        system.spawn_controlled("other", spin_body())
        period = system.driver.period_us
        system.kernel.run_for(3 * period)
        tracer = system.kernel.tracer
        assert tracer.series(name)._times is system.driver._tick_times
        for record in (tracer.record, shadow.record):
            record(name, 2 * period + 1, -1.0)
        system.kernel.run_for(3 * period)
        assert tracer.series(name)._times is not system.driver._tick_times
        assert tracer.series("alloc:other")._times is system.driver._tick_times
        self._assert_traces_alike(system, shadow)


class TestTracer:
    def test_record_creates_series(self):
        tracer = Tracer()
        tracer.record("x", 0, 1.0)
        assert "x" in tracer
        assert tracer.series("x").values() == [1.0]

    def test_read_of_a_name_never_watched_or_recorded_raises(self):
        tracer = Tracer()
        tracer.record("x", 0, 1.0)
        tracer.watch("alloc:hog")
        with pytest.raises(KeyError) as excinfo:
            tracer.series("alloc:consumer")
        message = excinfo.value.args[0]
        assert "'alloc:consumer'" in message and "watch it" in message
        assert "'x', 'alloc:hog'" in message
        assert "alloc:consumer" not in tracer

    def test_watch_creates_the_series_once(self):
        tracer = Tracer()
        series = tracer.watch("a")
        assert tracer.watch("a") is series is tracer.series("a")
        assert len(series) == 0 and tracer.names() == ["a"]
        tracer.record("a", 5, 2.0)
        assert series.values() == [2.0]

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
