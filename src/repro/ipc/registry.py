"""The symbiotic-interface registry (the paper's meta-interface).

"When an application initializes a symbiotic interface (such as by
submitting hints, opening a file, or opening a shared queue), the
interface creates a linkage to the kernel using a meta-interface system
call that registers the queue (or socket, etc.) and the application's
use of that queue (producer or consumer)."

:class:`SymbioticRegistry` is that system call's backing store.  Each
:class:`Linkage` records (thread, channel, role).  The controller's
progress monitors iterate a thread's linkages to compute its progress
pressure, and workload helpers (the shared-queue library, pipe and
socket constructors) create linkages automatically so applications do
not have to.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.ipc.bounded_buffer import Channel
from repro.ipc.roles import Role
from repro.sim.errors import ChannelError
from repro.sim.thread import SimThread


@dataclass(frozen=True)
class Linkage:
    """One registered (thread, channel, role) association."""

    thread: SimThread
    channel: Channel
    role: Role


class SymbioticRegistry:
    """Kernel-side store of channel/role registrations."""

    def __init__(self) -> None:
        self._linkages: list[Linkage] = []
        self._channels: dict[str, Channel] = {}
        #: tid -> that thread's linkages, in registration order.  The
        #: controller queries every controlled thread once per tick, so
        #: these lookups must not scan the global linkage list.
        self._by_thread: dict[int, list[Linkage]] = {}
        #: Bumped on every registration change; the controller uses it
        #: to cache per-thread classifications between changes instead
        #: of re-deriving them for every thread every tick.
        self.version = 0

    # ------------------------------------------------------------------
    # registration (the meta-interface system call)
    # ------------------------------------------------------------------
    def register(self, thread: SimThread, channel: Channel, role: Role) -> Linkage:
        """Register ``thread`` as ``role`` of ``channel``.

        Registering the same association twice is an error — it would
        double-count the queue's pressure in the controller.
        """
        own = self._by_thread.get(thread.tid, ())
        for linkage in own:
            if linkage.channel is channel:
                raise ChannelError(
                    f"thread {thread.name!r} is already registered on channel "
                    f"{channel.name!r} as {linkage.role.value}"
                )
        if channel.name in self._channels and self._channels[channel.name] is not channel:
            raise ChannelError(
                f"a different channel named {channel.name!r} is already registered"
            )
        linkage = Linkage(thread=thread, channel=channel, role=role)
        self.version += 1
        self._linkages.append(linkage)
        self._by_thread.setdefault(thread.tid, []).append(linkage)
        self._channels[channel.name] = channel
        return linkage

    def register_pair(
        self,
        producer: SimThread,
        consumer: SimThread,
        channel: Channel,
    ) -> tuple[Linkage, Linkage]:
        """Convenience: register both ends of a producer/consumer queue."""
        return (
            self.register(producer, channel, Role.PRODUCER),
            self.register(consumer, channel, Role.CONSUMER),
        )

    # ------------------------------------------------------------------
    # queries used by the controller's monitors
    # ------------------------------------------------------------------
    def linkages_for(self, thread: SimThread) -> list[Linkage]:
        """All linkages registered for ``thread`` (registration order)."""
        return list(self._by_thread.get(thread.tid, ()))

    def has_progress_metric(self, thread: SimThread) -> bool:
        """Whether ``thread`` has any registered progress metric (O(1))."""
        return bool(self._by_thread.get(thread.tid))

    def __len__(self) -> int:
        return len(self._linkages)


__all__ = ["Linkage", "SymbioticRegistry"]
