"""Property-based churn invariants (the open-system engine contract).

Hypothesis generates random open-system workloads — arrival streams of
every shape, finite jobs with varied demands, reservations, pins, and
phase-scripted kills / re-pins / rate changes / retimes — and asserts
the invariants that must survive any such sequence:

* **conservation** — ``total_thread_cpu + idle + stolen == n_cpus * now``
  at every checkpoint, under every scheduler policy, so churn never
  leaks or double-charges time;
* **no lost, no double-dispatched threads** — every non-rejected
  arrival exists exactly once, stream bookkeeping adds up
  (``spawned == completed + killed + live``), nothing is dispatched
  after it exited, and no SMP round dispatches one thread on two CPUs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.smoke import GOLDEN_SCHEDULERS
from repro.sched.rbs import ReservationScheduler
from repro.sim.kernel import Kernel
from repro.sim.thread import ThreadState
from repro.workloads.arrivals import (
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.workloads.engine import JobTemplate, PhaseScript, WorkloadEngine

DURATION_US = 90_000

#: One arrival stream: (shape, rate knob, template knobs, reservation).
stream_specs = st.lists(
    st.tuples(
        st.sampled_from(["poisson", "deterministic", "herd"]),
        st.integers(min_value=60, max_value=400),      # arrivals per second
        st.integers(min_value=200, max_value=6_000),   # total_cpu_us
        st.integers(min_value=100, max_value=2_000),   # burst_us
        st.sampled_from([0, 0, 400, 1_500]),           # think_us
        st.sampled_from([0, 0, 800]),                  # io_latency_us
        st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=20, max_value=300),
                st.sampled_from([5_000, 10_000, 20_000]),
            ),
        ),
        st.booleans(),                                 # pin round-robin?
    ),
    min_size=1,
    max_size=3,
)

#: Phase actions: (at_us, kind, small parameter).
action_specs = st.lists(
    st.tuples(
        st.integers(min_value=10_000, max_value=DURATION_US - 10_000),
        st.sampled_from(["kill", "repin", "rate", "retime", "reserve"]),
        st.integers(min_value=1, max_value=4),
    ),
    max_size=4,
)


def build_churn(scheduler, n_cpus, specs, actions):
    """One deterministic churn run; returns (kernel, workload engine)."""
    kernel = Kernel(
        GOLDEN_SCHEDULERS[scheduler](), n_cpus=n_cpus, record_dispatches=True,
    )
    churn = WorkloadEngine(kernel)
    streams = []
    for i, (shape, rate, total, burst, think, io, reservation, pin) in enumerate(
        specs
    ):
        template = JobTemplate(
            f"t{i}",
            total_cpu_us=total,
            burst_us=burst,
            think_us=think,
            io_latency_us=io,
            reservation=reservation,
            pin=(lambda idx, n=n_cpus: idx % n) if pin else None,
            priority=1 + i % 3,
            tickets=50 + 40 * i,
            nice=(i % 3) - 1,
        )
        if shape == "poisson":
            arrivals = PoissonArrivals(float(rate), seed=100 + i)
        elif shape == "deterministic":
            arrivals = DeterministicArrivals(max(1, 1_000_000 // rate))
        else:  # herd: three waves of simultaneous arrivals
            wave = max(2, rate // 50)
            arrivals = TraceArrivals.from_times(
                w * 25_000 for w in range(3) for _ in range(wave)
            )
        streams.append(churn.add_stream(f"s{i}", arrivals, template))
    script = PhaseScript()
    for at_us, kind, knob in actions:
        stream = streams[knob % len(streams)]
        if kind == "kill":
            script.kill(at_us, stream, count=knob)
        elif kind == "repin":
            script.repin(at_us, stream, knob % n_cpus)
        elif kind == "rate":
            if isinstance(stream.arrivals, (PoissonArrivals, DeterministicArrivals)):
                script.set_rate(at_us, stream.arrivals, 30.0 * knob)
        elif kind == "retime":
            script.retime(
                at_us, stream.template,
                total_cpu_us=300 * knob, burst_us=150 * knob,
            )
        elif scheduler == "rbs":  # reserve: only RBS has reservations
            script.set_reservation(at_us, stream, 40 * knob, 10_000)
    churn.start(script)
    return kernel, churn


def assert_no_lost_no_double(kernel, churn):
    # Stream bookkeeping adds up and every non-rejected arrival exists
    # exactly once in the kernel's name table (which outlives exits);
    # the kernel's thread table holds live threads only.
    by_name = set()
    for name in kernel.thread_names.values():
        assert name not in by_name, f"duplicate thread {name}"
        by_name.add(name)
    for thread in kernel.threads:
        assert thread.state is not ThreadState.EXITED, thread
    for stream in churn.streams:
        assert stream.spawned == (
            stream.completed + stream.killed + len(stream.live)
        ), f"stream {stream.name} lost a job"
        assert stream.arrivals_seen() == stream.spawned + stream.rejected
        spawned_names = [
            name
            for name in by_name
            if name.startswith(stream.name + ".")
        ]
        assert len(spawned_names) == stream.spawned
    # Nothing is dispatched after it exited, and no two CPUs run the
    # same thread in one SMP round (same round start time).
    exited_at = {}
    last_round: dict[str, int] = {}
    round_members: dict[int, set] = {}
    for entry in kernel.dispatch_log:
        time_us, cpu, name, outcome, _consumed = entry
        assert name not in exited_at, (
            f"{name} dispatched at {time_us} after exiting at {exited_at[name]}"
        )
        if kernel.n_cpus > 1:
            members = round_members.setdefault(time_us, set())
            assert name not in members, (
                f"{name} double-dispatched in the round at {time_us}"
            )
            members.add(name)
            # Bound the book-keeping dict (logs can be long).
            if len(round_members) > 4:
                round_members.pop(min(round_members))
        if outcome == "exited":
            exited_at[name] = time_us
        last_round[name] = time_us
    # A killed thread never shows an 'exited' dispatch entry (it was
    # never dispatched again) but must not appear later either.
    for stream in churn.streams:
        assert stream.killed >= 0


@pytest.mark.parametrize("n_cpus", [1, 4])
@settings(max_examples=25, deadline=None)
@given(
    scheduler=st.sampled_from(sorted(GOLDEN_SCHEDULERS)),
    specs=stream_specs,
    actions=action_specs,
)
def test_churn_invariants(n_cpus, scheduler, specs, actions):
    kernel, churn = build_churn(scheduler, n_cpus, specs, actions)
    # Run in segments: conservation must hold at arbitrary checkpoints,
    # not just the end of the run.
    for _ in range(3):
        kernel.run_for(DURATION_US // 3)
        assert kernel.conservation_gap_us() == 0
    assert_no_lost_no_double(kernel, churn)


@settings(max_examples=10, deadline=None)
@given(
    specs=stream_specs,
    kill_at=st.integers(min_value=5_000, max_value=60_000),
    checkpoint=st.integers(min_value=1_000, max_value=30_000),
)
def test_mass_kill_conserves_and_reclaims(specs, kill_at, checkpoint):
    """Killing *every* live job at once must conserve CPU time and
    leave the scheduler consistent enough to keep running arrivals."""
    kernel = Kernel(ReservationScheduler(), record_dispatches=True)
    churn = WorkloadEngine(kernel)
    streams = []
    for i, (shape, rate, total, burst, think, io, reservation, _pin) in enumerate(
        specs
    ):
        template = JobTemplate(
            f"t{i}", total_cpu_us=total, burst_us=burst, think_us=think,
            io_latency_us=io, reservation=reservation,
        )
        streams.append(
            churn.add_stream(
                f"s{i}", PoissonArrivals(float(rate), seed=300 + i), template
            )
        )
    script = PhaseScript()
    for stream in streams:
        script.kill(kill_at, stream)
    churn.start(script)
    kernel.run_for(kill_at + checkpoint)
    assert kernel.conservation_gap_us() == 0
    assert_no_lost_no_double(kernel, churn)
    total_reserved = kernel.scheduler.total_reserved_ppt()
    live_reserved = sum(
        kernel.scheduler.reservation(t).proportion_ppt
        for s in churn.streams
        for t in s.live.values()
        if kernel.scheduler.reservation(t) is not None
    )
    assert total_reserved == live_reserved, (
        "exited jobs must release their reserved proportion"
    )
