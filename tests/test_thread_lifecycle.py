"""What an exited thread keeps, and what it lets go.

An exited :class:`SimThread` retires: it leaves ``kernel.threads``,
which holds live threads only, and its CPU time moves into the running
total behind ``kernel.total_thread_cpu_us()``, so the conservation
identity keeps holding.  The kernel keeps only its name, in
``kernel.thread_names``, a read-only mapping over packed columns (UTF-8
name bytes, tids and end offsets; see ``test_dispatch_log.py`` for its
storage).  The thread object itself keeps its records
(name, tid, state, exit status, CPU accounting) for whoever still holds
it, but the kernel drops its body and generator at exit, so once its
last holder lets go nothing of a finished job stays behind.  The
per-thread records are slotted, so none of them carries an instance
``__dict__``.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import pytest

from repro.sched.round_robin import RoundRobinScheduler
from repro.sim.errors import SimulationError
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute, Sleep
from repro.sim.thread import SimThread, ThreadEnv, ThreadState
from repro.workloads.arrivals import DeterministicArrivals, PoissonArrivals
from repro.workloads.engine import JobRecord, JobTemplate, WorkloadEngine
from tests.conftest import finite_body


def sleeper_body(env):
    yield Compute(100)
    yield Sleep(50_000)
    yield Compute(100)


class TestExitReleasesGenerator:
    def test_natural_exit(self, rr_kernel):
        thread = rr_kernel.spawn("worker", finite_body(3_000))
        generator = weakref.ref(thread._generator)
        rr_kernel.run_for(10_000)
        assert generator() is None
        assert thread.name == "worker"
        assert thread.tid > 0
        assert thread.state is ThreadState.EXITED
        assert thread.exit_status == 0
        assert thread.accounting.total_us == 3_000
        assert thread not in rr_kernel.threads
        assert rr_kernel.thread_names[thread.tid] == "worker"

    def test_kill(self, rr_kernel):
        thread = rr_kernel.spawn("sleeper", sleeper_body)
        generator = weakref.ref(thread._generator)
        rr_kernel.run_for(2_000)
        assert thread.state is ThreadState.SLEEPING
        assert rr_kernel.kill_thread(thread, status=-15)
        assert generator() is None
        assert thread.name == "sleeper"
        assert thread.state is ThreadState.EXITED
        assert thread.exit_status == -15
        assert thread.accounting.total_us == 100
        assert thread not in rr_kernel.threads
        assert rr_kernel.thread_names[thread.tid] == "sleeper"
        rr_kernel.run_for(100_000)
        assert thread.accounting.total_us == 100

    def test_pin_to_still_checks_an_exited_thread(self, rr_kernel):
        thread = rr_kernel.spawn("worker", finite_body(1_000))
        rr_kernel.run_for(5_000)
        assert thread.state is ThreadState.EXITED
        with pytest.raises(ValueError, match="only 1 CPU"):
            thread.pin_to(3)


class TestRetirement:
    def test_exited_thread_is_freed_once_its_holder_lets_go(self, rr_kernel):
        worker = rr_kernel.spawn("worker", finite_body(2_000))
        sleeper = rr_kernel.spawn("sleeper", sleeper_body)
        rr_kernel.run_for(5_000)
        assert rr_kernel.kill_thread(sleeper)
        # Run past the killed sleeper's cancelled wake-up, which the
        # calendar drops only when it reaches the head.
        rr_kernel.run_for(100_000)
        refs = [weakref.ref(worker), weakref.ref(sleeper)]
        assert worker.state is sleeper.state is ThreadState.EXITED
        del worker, sleeper
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert list(rr_kernel.threads) == []
        assert sorted(rr_kernel.thread_names.values()) == ["sleeper", "worker"]

    def test_conservation_after_an_exit_whose_last_slice_ran(self):
        kernel = Kernel(
            RoundRobinScheduler(), charge_dispatch_overhead=False,
            syscall_cost_us=0, record_dispatches=True,
        )
        # 2,500 us in 1,000 us bursts: the last burst (500 us) and the
        # exit share one slice.
        thread = kernel.spawn("worker", finite_body(2_500))
        kernel.spawn("spinner", finite_body(20_000))
        kernel.run_for(10_000)
        assert thread.state is ThreadState.EXITED
        exits = [e for e in kernel.dispatch_log if e[2] == "worker"][-1:]
        assert exits and exits[0][3] == "exited" and exits[0][4] == 500
        assert kernel.conservation_gap_us() == 0
        assert kernel.total_thread_cpu_us() == kernel.now
        kernel.run_for(30_000)
        assert kernel.conservation_gap_us() == 0
        assert kernel.total_thread_cpu_us() == 22_500

    def test_conservation_after_a_kill(self, rr_kernel):
        thread = rr_kernel.spawn("sleeper", sleeper_body)
        rr_kernel.spawn("worker", finite_body(5_000))
        rr_kernel.run_for(3_000)
        assert rr_kernel.kill_thread(thread)
        assert rr_kernel.conservation_gap_us() == 0
        rr_kernel.run_for(100_000)
        assert rr_kernel.conservation_gap_us() == 0
        assert rr_kernel.total_thread_cpu_us() == 5_100

    def test_a_thread_is_added_once(self, rr_kernel):
        thread = rr_kernel.spawn("worker", finite_body(1_000))
        with pytest.raises(SimulationError, match="already added"):
            rr_kernel.add_thread(thread)
        rr_kernel.run_for(5_000)
        assert thread.state is ThreadState.EXITED
        with pytest.raises(SimulationError, match="already added"):
            rr_kernel.add_thread(thread)
        other = Kernel(RoundRobinScheduler())
        with pytest.raises(SimulationError, match="already added"):
            other.add_thread(thread)

    def test_kill_refuses_another_kernels_thread(self, rr_kernel):
        other = Kernel(RoundRobinScheduler())
        thread = other.spawn("elsewhere", sleeper_body)
        with pytest.raises(SimulationError, match="not part of this kernel"):
            rr_kernel.kill_thread(thread)
        assert thread.state is ThreadState.READY


def test_churn_run_keeps_no_exited_generator(rbs_kernel: Kernel):
    engine = WorkloadEngine(rbs_kernel)
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
    added: list[SimThread] = []
    generators: list[weakref.ref] = []
    add_thread = rbs_kernel.add_thread

    def recording_add_thread(thread: SimThread) -> SimThread:
        add_thread(thread)
        added.append(thread)
        generators.append(weakref.ref(thread._generator))
        return thread

    rbs_kernel.add_thread = recording_add_thread
    engine.start()
    rbs_kernel.run_for(150_000)
    assert engine.kill(misc, 3) == 3
    rbs_kernel.run_for(50_000)

    spawned = sum(stream.spawned for stream in engine.streams)
    assert len(added) == len(generators) == len(rbs_kernel.thread_names) == spawned
    exited = [t for t in added if t.state is ThreadState.EXITED]
    live = [t for t in added if t.state is not ThreadState.EXITED]
    assert misc.completed > 0 and misc.live and exited
    assert list(rbs_kernel.threads) == live
    assert {t.name for t in added} == set(rbs_kernel.thread_names.values())
    for thread, generator in zip(added, generators):
        alive = generator() is not None
        assert alive == (thread.state is not ThreadState.EXITED), thread
    assert sum(t.accounting.total_us for t in exited) > 0
    assert rbs_kernel.total_thread_cpu_us() == sum(
        t.accounting.total_us for t in added
    )
    assert rbs_kernel.conservation_gap_us() == 0


def test_per_thread_records_have_no_instance_dict(rr_kernel):
    thread = rr_kernel.spawn("worker", finite_body(1_000))
    record = JobRecord("s", 0, "t", 0, 10, "completed")
    env = thread._env
    assert isinstance(env, ThreadEnv)
    for obj in (thread, thread.accounting, env, record):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_slotted_job_record_still_copies_and_pickles():
    record = JobRecord("s", 4, "t", 100, 350, "completed")
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    assert record.sojourn_us == 250
