"""Sockets.

A simulated socket is a pair of kernel buffers, one per direction.  For
the scheduling experiments only the receive direction of the server
matters (a server is "essentially the consumer of a bounded buffer,
where the producer may or may not be on the same machine"), so
:class:`Socket` models only the receive buffer.
"""

from __future__ import annotations

from repro.ipc.bounded_buffer import Channel

#: Default socket buffer size (matches a common SO_RCVBUF default).
DEFAULT_SOCKET_CAPACITY = 32 * 1024


class Socket(Channel):
    """The receive side of a simulated socket."""

    KIND = "socket"

    def __init__(
        self, name: str, capacity_bytes: int = DEFAULT_SOCKET_CAPACITY
    ) -> None:
        super().__init__(name, capacity_bytes)


__all__ = ["DEFAULT_SOCKET_CAPACITY", "Socket"]
