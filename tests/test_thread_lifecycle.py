"""What an exited thread keeps, and what it lets go.

An exited :class:`SimThread` stays in ``kernel.threads`` for its
records (name, tid, state, exit status, CPU accounting), but the kernel
drops its body and generator at exit, so a long open-system run does
not hold every finished job's generator frame.  The per-thread records
are slotted, so none of them carries an instance ``__dict__``.
"""

from __future__ import annotations

import copy
import pickle
import weakref

import pytest

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
        assert thread in rr_kernel.threads

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
        assert thread in rr_kernel.threads
        rr_kernel.run_for(100_000)
        assert thread.accounting.total_us == 100

    def test_pin_to_still_checks_an_exited_thread(self, rr_kernel):
        thread = rr_kernel.spawn("worker", finite_body(1_000))
        rr_kernel.run_for(5_000)
        assert thread.state is ThreadState.EXITED
        with pytest.raises(ValueError, match="only 1 CPU"):
            thread.pin_to(3)


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
    generators: dict[int, weakref.ref] = {}
    add_thread = rbs_kernel.add_thread

    def recording_add_thread(thread: SimThread) -> SimThread:
        added = add_thread(thread)
        generators[thread.tid] = weakref.ref(thread._generator)
        return added

    rbs_kernel.add_thread = recording_add_thread
    engine.start()
    rbs_kernel.run_for(150_000)
    assert engine.kill(misc, 3) == 3
    rbs_kernel.run_for(50_000)

    spawned = sum(stream.spawned for stream in engine.streams)
    assert len(rbs_kernel.threads) == len(generators) == spawned
    exited = [t for t in rbs_kernel.threads if t.state is ThreadState.EXITED]
    assert misc.completed > 0 and misc.live
    for thread in rbs_kernel.threads:
        alive = generators[thread.tid]() is not None
        assert alive == (thread.state is not ThreadState.EXITED), thread
    assert sum(t.accounting.total_us for t in exited) > 0


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
