"""Unit tests for the symbiotic IPC channels and the registry."""

import pytest

from repro.ipc.bounded_buffer import BoundedBuffer, Channel
from repro.ipc.mutex import Mutex
from repro.ipc.pipe import DEFAULT_PIPE_CAPACITY, Pipe
from repro.ipc.registry import SymbioticRegistry
from repro.ipc.roles import Role
from repro.ipc.sock import Socket
from repro.ipc.tty import INTERACTIVE_PERIOD_US, TTY
from repro.sim.errors import ChannelError
from repro.sim.thread import SimThread


class TestRoles:
    def test_signs_match_figure3(self):
        assert Role.PRODUCER.sign == -1
        assert Role.CONSUMER.sign == 1

    def test_opposite(self):
        assert Role.PRODUCER.opposite is Role.CONSUMER
        assert Role.CONSUMER.opposite is Role.PRODUCER


class TestChannel:
    def test_initial_state(self):
        channel = BoundedBuffer("q", 1_000)
        assert channel.fill_bytes() == 0
        assert channel.fill_level() == 0.0
        assert channel.space_free() == 1_000
        assert channel.is_empty()
        assert not channel.is_full()

    def test_capacity_must_be_positive(self):
        with pytest.raises(ChannelError):
            BoundedBuffer("q", 0)

    def test_put_and_get_update_fill(self):
        channel = BoundedBuffer("q", 1_000)
        channel.commit_put(400)
        assert channel.fill_level() == pytest.approx(0.4)
        channel.commit_get(100)
        assert channel.fill_bytes() == 300
        assert channel.total_put_bytes == 400
        assert channel.total_get_bytes == 100

    def test_overflow_rejected(self):
        channel = BoundedBuffer("q", 100)
        channel.commit_put(80)
        with pytest.raises(ChannelError):
            channel.commit_put(30)

    def test_oversized_put_rejected(self):
        channel = BoundedBuffer("q", 100)
        with pytest.raises(ChannelError):
            channel.commit_put(101)

    def test_underflow_rejected(self):
        channel = BoundedBuffer("q", 100)
        with pytest.raises(ChannelError):
            channel.commit_get(1)

    def test_full_and_empty_events_counted(self):
        channel = BoundedBuffer("q", 100)
        channel.commit_put(100)
        assert channel.full_events == 1
        channel.commit_get(100)
        assert channel.empty_events == 1

    def test_kind_tags(self):
        assert BoundedBuffer("q", 10).KIND == "shared_queue"
        assert Pipe("p").KIND == "pipe"
        assert Socket("s").KIND == "socket"
        assert TTY("t").KIND == "tty"

    def test_pipe_default_capacity(self):
        assert Pipe("p").capacity_bytes == DEFAULT_PIPE_CAPACITY

    def test_socket_send_buffer_lazy(self):
        sock = Socket("s")
        assert sock._send_buffer is None
        send = sock.send_buffer
        assert isinstance(send, Channel)
        assert sock.send_buffer is send

    def test_interactive_period_constant(self):
        assert INTERACTIVE_PERIOD_US == 30_000


class TestMutex:
    def test_initial_state(self):
        mutex = Mutex("m")
        assert mutex.owner is None
        assert list(mutex.waiters) == []


class TestSymbioticRegistry:
    def test_register_and_query(self):
        registry = SymbioticRegistry()
        producer = SimThread("p")
        consumer = SimThread("c")
        queue = BoundedBuffer("q", 100)
        registry.register_pair(producer, consumer, queue)
        assert len(registry) == 2
        assert registry.has_progress_metric(producer)
        assert registry.has_progress_metric(consumer)
        assert registry.linkages_for(producer)[0].role is Role.PRODUCER
        assert registry.linkages_for(consumer)[0].role is Role.CONSUMER

    def test_unknown_thread_has_no_metric(self):
        registry = SymbioticRegistry()
        assert not registry.has_progress_metric(SimThread("lonely"))
        assert registry.linkages_for(SimThread("lonely")) == []

    def test_duplicate_registration_rejected(self):
        registry = SymbioticRegistry()
        thread = SimThread("t")
        queue = BoundedBuffer("q", 100)
        registry.register(thread, queue, Role.CONSUMER)
        with pytest.raises(ChannelError):
            registry.register(thread, queue, Role.PRODUCER)

    def test_channel_name_collision_rejected(self):
        registry = SymbioticRegistry()
        registry.register(SimThread("a"), BoundedBuffer("q", 100), Role.CONSUMER)
        with pytest.raises(ChannelError):
            registry.register(SimThread("b"), BoundedBuffer("q", 200), Role.CONSUMER)

    def test_channels_lists_registered(self):
        registry = SymbioticRegistry()
        queue = BoundedBuffer("q", 100)
        registry.register(SimThread("t"), queue, Role.CONSUMER)
        assert registry.channels() == [queue]

    def test_linkage_pressure_sign(self):
        registry = SymbioticRegistry()
        thread = SimThread("t")
        queue = BoundedBuffer("q", 100)
        linkage = registry.register(thread, queue, Role.PRODUCER)
        assert linkage.role.sign == -1
