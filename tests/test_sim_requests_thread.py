"""Unit tests for request validation and the SimThread state machine."""

import pytest

from repro.ipc.bounded_buffer import BoundedBuffer
from repro.sim.errors import ThreadStateError
from repro.sim.requests import (
    Compute,
    Exit,
    Get,
    Put,
    Sleep,
    WaitIO,
    Yield,
)
from repro.sim.thread import (
    CpuAccounting,
    SchedulingPolicy,
    SimThread,
    ThreadState,
)


class TestRequestValidation:
    def test_compute_rejects_negative(self):
        with pytest.raises(ValueError):
            Compute(-1)

    def test_compute_coerces_to_int(self):
        assert Compute(10.0).us == 10

    def test_put_requires_positive_size(self):
        queue = BoundedBuffer("q", 100)
        with pytest.raises(ValueError):
            Put(queue, 0)

    def test_get_requires_positive_size(self):
        queue = BoundedBuffer("q", 100)
        with pytest.raises(ValueError):
            Get(queue, -5)

    def test_sleep_rejects_negative(self):
        with pytest.raises(ValueError):
            Sleep(-1)

    def test_waitio_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            WaitIO(-1)

    def test_exit_default_status(self):
        assert Exit().status == 0


class TestThreadStates:
    def test_runnable_states(self):
        assert ThreadState.READY.is_runnable
        assert ThreadState.RUNNING.is_runnable
        assert not ThreadState.BLOCKED.is_runnable
        assert not ThreadState.SLEEPING.is_runnable
        assert not ThreadState.EXITED.is_runnable

    def test_live_states(self):
        assert ThreadState.READY.is_live
        assert ThreadState.BLOCKED.is_live
        assert not ThreadState.EXITED.is_live


class TestSimThread:
    def test_unique_tids(self):
        a = SimThread("a")
        b = SimThread("b")
        assert a.tid != b.tid

    def test_equality_and_hash_by_tid(self):
        a = SimThread("a")
        assert a == a
        assert a != SimThread("a")
        assert len({a, a}) == 1

    def test_default_policy_is_reservation(self):
        assert SimThread("t").policy is SchedulingPolicy.RESERVATION

    def test_new_thread_state(self):
        assert SimThread("t").state is ThreadState.NEW

    def test_advance_requires_generator(self):
        thread = SimThread("external", body=None)
        with pytest.raises(ThreadStateError):
            thread.advance()

    def test_advance_yields_requests_in_order(self):
        def body(env):
            yield Compute(10)
            yield Yield()

        thread = SimThread("t", body)
        thread.bind(env=None)
        first = thread.advance()
        assert isinstance(first, Compute)
        thread.finish_request()
        second = thread.advance()
        assert isinstance(second, Yield)

    def test_advance_returns_none_when_exhausted(self):
        def body(env):
            yield Compute(1)

        thread = SimThread("t", body)
        thread.bind(env=None)
        thread.advance()
        thread.finish_request()
        assert thread.advance() is None

    def test_body_must_yield_requests(self):
        def body(env):
            yield "not a request"

        thread = SimThread("t", body)
        thread.bind(env=None)
        with pytest.raises(ThreadStateError):
            thread.advance()

    def test_inject_request_for_external_thread(self):
        thread = SimThread("external", body=None)
        request = Compute(100)
        thread.inject_request(request)
        assert thread.current_request() is request


class TestCpuAccounting:
    def test_charge_accumulates(self):
        acct = CpuAccounting()
        acct.charge(100)
        acct.charge(50)
        assert acct.total_us == 150

    def test_run_before_block_ema_first_sample(self):
        acct = CpuAccounting()
        acct.charge(1_000)
        acct.note_block()
        assert acct.run_before_block_ema_us == pytest.approx(1_000)

    def test_run_before_block_ema_smooths(self):
        acct = CpuAccounting()
        acct.charge(1_000)
        acct.note_block()
        acct.charge(2_000)
        acct.note_block()
        # 0.25 * 2000 + 0.75 * 1000
        assert acct.run_before_block_ema_us == pytest.approx(1_250)

    def test_block_resets_running_counter(self):
        acct = CpuAccounting()
        acct.charge(500)
        acct.note_block()
        assert acct.run_since_last_block_us == 0
