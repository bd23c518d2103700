"""The packed dispatch log reads back exactly the historical entries.

The kernel keeps one fixed-width record per dispatch, folded into
compressed chunks every few thousand records (see
:mod:`repro.sim.dispatch_log`).  The oracle here is the log as it used
to be kept: a plain list of ``(time, cpu, name, outcome, consumed)``
tuples, with the migration penalty as a sixth element when one was
charged, hashed ``"|".join(map(str, entry))`` plus ``";"`` per entry.
It is recorded by wrapping ``Kernel._dispatch`` and reading the clock,
the thread's accounting and the CPU's penalty total around each call,
so it shares nothing with the product's packing or name resolution.
Every committed fingerprint was taken over these bytes.
"""

from __future__ import annotations

import gc
import hashlib

from repro.ipc.bounded_buffer import BoundedBuffer
from repro.sched.rbs import ReservationScheduler
from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.dispatch_log import OUTCOMES
from repro.sim.kernel import Kernel, _DispatchOutcome
from repro.sim.requests import Compute, Sleep, Yield
from repro.sim.thread import ThreadState
from repro.sim.topology import CpuTopology
from repro.workloads.arrivals import DeterministicArrivals, PoissonArrivals
from repro.workloads.engine import JobTemplate, WorkloadEngine, dispatch_fingerprint
from tests.conftest import consumer_body, finite_body, producer_body, spin_body


def record_oracle(kernel: Kernel) -> list[tuple]:
    """Wrap ``kernel._dispatch`` to keep the historical tuple list."""
    entries: list[tuple] = []
    dispatch = kernel._dispatch

    def recording_dispatch(cpu, thread, cap):
        start = kernel.now
        used = thread.accounting.total_us
        penalty = cpu.migration_us
        outcome = dispatch(cpu, thread, cap)
        entry = (
            start, cpu.index, thread.name, outcome,
            thread.accounting.total_us - used,
        )
        penalty = cpu.migration_us - penalty
        entries.append(entry + (penalty,) if penalty else entry)
        return outcome

    kernel._dispatch = recording_dispatch
    return entries


def oracle_fingerprint(entries: list[tuple]) -> str:
    digest = hashlib.sha256()
    for entry in entries:
        digest.update("|".join(map(str, entry)).encode())
        digest.update(b";")
    return digest.hexdigest()


def assert_matches_oracle(kernel: Kernel, entries: list[tuple]) -> None:
    assert entries
    assert len(kernel.dispatch_log) == len(entries)
    assert list(kernel.dispatch_log) == entries
    assert dispatch_fingerprint(kernel) == oracle_fingerprint(entries)
    assert kernel.dispatch_log.fingerprint() == oracle_fingerprint(entries)


def yielder_body(env):
    while True:
        yield Compute(300)
        yield Yield()


def sleeper_body(env):
    while True:
        yield Compute(700)
        yield Sleep(4_000)


def mixed_kernel(n_cpus: int) -> Kernel:
    """Reserved threads that compute, block, sleep, yield and exit, on
    an RBS kernel with its dispatch overhead charged."""
    kernel = Kernel(
        ReservationScheduler(), n_cpus=n_cpus, record_dispatches=True
    )
    queue = BoundedBuffer("q", 4_096)
    reserved = [
        (kernel.spawn("hog", spin_body(2_500)), 300, 10_000),
        (kernel.spawn("producer", producer_body(queue, 1_024, 400)), 100, 20_000),
        (kernel.spawn("consumer", consumer_body(queue, 1_024, 900)), 150, 20_000),
        (kernel.spawn("yielder", yielder_body), 100, 5_000),
        (kernel.spawn("sleeper", sleeper_body), 100, 10_000),
    ]
    reserved += [
        (kernel.spawn(f"finite{i}", finite_body(6_000 * (i + 1), 1_500)), 50, 10_000)
        for i in range(3)
    ]
    for thread, proportion_ppt, period_us in reserved:
        kernel.scheduler.set_reservation(thread, proportion_ppt, period_us)
    return kernel


def test_uniprocessor_run_reads_back_the_historical_entries():
    kernel = mixed_kernel(1)
    entries = record_oracle(kernel)
    kernel.run_for(200_000)
    assert_matches_oracle(kernel, entries)
    assert {entry[3] for entry in entries} == set(OUTCOMES)


def test_four_cpu_run_reads_back_the_historical_entries():
    kernel = mixed_kernel(4)
    entries = record_oracle(kernel)
    kernel.run_for(200_000)
    assert_matches_oracle(kernel, entries)
    assert {entry[1] for entry in entries} == {0, 1, 2, 3}


def test_penalised_dispatches_read_back_as_six_fields():
    topology = CpuTopology(
        sockets=2, cores_per_socket=2, threads_per_core=1,
        core_migration_us=40, socket_migration_us=120,
    )
    kernel = Kernel(
        RoundRobinScheduler(), n_cpus=4, topology=topology,
        record_dispatches=True,
    )
    threads = [kernel.spawn(f"t{i}", spin_body(700)) for i in range(4)]
    entries = record_oracle(kernel)
    kernel.run_for(30_000)
    # One move across sockets, one across cores of a socket.
    threads[0].pin_to((threads[0].last_cpu + 2) % 4)
    threads[1].pin_to(threads[1].last_cpu ^ 1)
    kernel.run_for(30_000)
    assert_matches_oracle(kernel, entries)
    sizes = {len(entry) for entry in kernel.dispatch_log}
    assert sizes == {5, 6}
    assert {entry[5] for entry in entries if len(entry) == 6} == {40, 120}


def test_churn_run_names_exited_threads():
    kernel = Kernel(
        ReservationScheduler(), charge_dispatch_overhead=False,
        syscall_cost_us=0, record_dispatches=True,
    )
    engine = WorkloadEngine(kernel)
    misc = engine.add_stream(
        "misc",
        PoissonArrivals(400.0, seed=3),
        JobTemplate("misc", total_cpu_us=4_000, burst_us=600, think_us=500),
    )
    engine.add_stream(
        "rt",
        DeterministicArrivals(4_000),
        JobTemplate(
            "rt", total_cpu_us=800, burst_us=400, think_us=300,
            reservation=(50, 10_000),
        ),
    )
    entries = record_oracle(kernel)
    engine.start()
    kernel.run_for(150_000)
    assert engine.kill(misc, 3) == 3
    live = [t for t in kernel.threads if t.state is not ThreadState.EXITED]
    assert kernel.kill_thread(live[-1])
    kernel.run_for(50_000)

    exited = {t.name for t in kernel.threads if t.state is ThreadState.EXITED}
    assert {t.exit_status for t in kernel.threads if t.name in exited} >= {0, -9}
    assert exited & {entry[2] for entry in entries}
    assert_matches_oracle(kernel, entries)


def test_every_kernel_outcome_has_a_code():
    outcomes = {
        value for key, value in vars(_DispatchOutcome).items()
        if not key.startswith("_")
    }
    assert outcomes == set(OUTCOMES)


def hog_kernel() -> Kernel:
    """Four round-robin spinners: one dispatch per millisecond."""
    kernel = Kernel(
        RoundRobinScheduler(), charge_dispatch_overhead=False,
        syscall_cost_us=0, record_dispatches=True,
    )
    for i in range(4):
        kernel.spawn(f"hog{i}", spin_body(500))
    return kernel


def test_suspended_reader_sees_its_prefix_across_a_fold():
    kernel = hog_kernel()
    entries = record_oracle(kernel)
    kernel.run_for(5_000_000)
    log = kernel.dispatch_log
    reader = iter(log)
    first = next(reader)
    seen, folds = len(log), len(log.chunks)
    assert folds >= 1 and len(log.records)
    # The kernel appends to the tail and folds it while the reader is
    # suspended; the reader still reads exactly what it started with.
    kernel.run_for(5_000_000)
    assert len(log.chunks) > folds
    assert [first, *reader] == entries[:seen]
    assert len(entries) == len(log) > seen
    assert_matches_oracle(kernel, entries)


def test_storage_is_packed_bytes_with_no_object_per_dispatch():
    kernel = hog_kernel()
    kernel.run_for(50_000)
    log = kernel.dispatch_log
    gc.collect()
    dispatches = len(log)
    tracked = len(gc.get_objects())
    kernel.run_for(20_000_000)
    gc.collect()
    grown = len(gc.get_objects()) - tracked
    added = len(log) - dispatches
    assert added >= 20_000
    assert grown < 100
    assert len(log) == kernel.dispatch_count
    # Folded chunks plus the raw tail: about 8.4 bytes a dispatch here,
    # where keeping every record raw would take RECORD.size (27).
    stored = len(log.records) + sum(map(len, log.chunks))
    assert len(log.chunks) >= 4
    assert stored <= 12 * len(log)
    assert not gc.is_tracked(log.records)
