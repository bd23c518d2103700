"""Determinism regression tests.

Two runs of the same scenario with identical configuration must be
byte-identical: same event traces, same full dispatch order (time, CPU,
thread, outcome, consumed CPU) and same final accounting.  This is the
property that makes every figure reproduction exactly repeatable, and
it must survive the multi-CPU dispatch rounds — placement, per-CPU
picks and intra-window local clocks are all deterministic.

The scenario is a cheap proxy for the figure6 pulse experiment (same
pipeline workload, shorter schedule) plus, for the SMP runs, a small
web farm so more than one CPU actually has work.
"""

from __future__ import annotations

import pytest

from repro.sim.clock import seconds
from repro.system import build_real_rate_system
from repro.workloads.pulse import PulseParameters, PulsePipeline, PulseSchedule
from repro.workloads.webfarm import WebFarm
from tests.conftest import record_added_threads

#: Virtual duration of the proxy scenario (keeps the test fast).
DURATION_S = 0.8


def run_proxy_scenario(n_cpus: int):
    """One deterministic run; returns (fingerprint, dispatch log, accounting)."""
    system = build_real_rate_system(n_cpus=n_cpus, record_dispatches=True)
    added = record_added_threads(system.kernel)
    params = PulseParameters()
    schedule = PulseSchedule.paper_figure6(params.base_rate_bytes_per_cpu_us)
    pipeline = PulsePipeline.attach(system, schedule=schedule, params=params)
    tracer = system.kernel.tracer
    tracer.add_sampler(
        system.kernel.events, 50_000, "fill",
        lambda now: pipeline.queue.fill_level(),
    )
    if n_cpus > 1:
        WebFarm.attach(system, n_servers=3, requests_per_second=100.0,
                       service_cpu_us=1_200)
    system.run_for(seconds(DURATION_S))

    kernel = system.kernel
    accounting = {
        t.name: (
            t.accounting.total_us,
            t.accounting.dispatches,
            t.accounting.preemptions,
            t.accounting.voluntary_switches,
            t.accounting.blocks,
            t.accounting.sleeps,
            t.state.value,
        )
        for t in added
    }
    totals = (
        kernel.now,
        kernel.idle_us,
        kernel.stolen_dispatch_us,
        kernel.stolen_controller_us,
        kernel.dispatch_count,
        tuple((c.idle_us, c.stolen_dispatch_us, c.dispatches)
              for c in kernel.cpu_states),
    )
    return tracer.fingerprint(), list(kernel.dispatch_log), accounting, totals


@pytest.mark.parametrize("n_cpus", [1, 4])
def test_identical_runs_are_byte_identical(n_cpus):
    first = run_proxy_scenario(n_cpus)
    second = run_proxy_scenario(n_cpus)

    # Full event traces (every sampled series, every controller
    # decision trace) are byte-identical.
    assert first[0] == second[0]

    # The complete dispatch order matches: same times, same CPUs, same
    # threads, same outcomes, same consumed CPU, in the same order.
    assert first[1] == second[1]

    # Final per-thread accounting and kernel totals match exactly.
    assert first[2] == second[2]
    assert first[3] == second[3]


def test_dispatch_log_is_recorded_and_ordered():
    fingerprint, log, accounting, totals = run_proxy_scenario(4)
    assert log, "dispatch log should not be empty"
    times = [entry[0] for entry in log]
    # Rounds execute CPUs at a shared window start, so times within the
    # log are non-decreasing per CPU (global order may interleave).
    per_cpu: dict[int, list[int]] = {}
    for t, cpu, _, _, _ in log:
        per_cpu.setdefault(cpu, []).append(t)
    for cpu_times in per_cpu.values():
        assert cpu_times == sorted(cpu_times)
    # Every CPU dispatched something in the SMP scenario.
    assert set(per_cpu) == {0, 1, 2, 3}
