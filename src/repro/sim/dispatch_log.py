"""The kernel's dispatch log, packed one fixed-width record per dispatch.

``Kernel(record_dispatches=True)`` records the full scheduling order:
every dispatch appends one :data:`RECORD` to :attr:`DispatchLog.records`
(a ``bytearray``), so a long run keeps no Python object per dispatch.
A record holds

========  =======  ==================================================
field     format   meaning
========  =======  ==================================================
start     ``q``    virtual time the dispatch began (microseconds)
cpu       ``H``    index of the CPU that ran it
tid       ``I``    :attr:`SimThread.tid` of the dispatched thread
outcome   ``B``    index into :data:`OUTCOMES`
consumed  ``q``    CPU the thread consumed (microseconds)
penalty   ``I``    migration penalty charged first (0 = none)
========  =======  ==================================================

Standard sizes with no padding make a record 27 bytes, and ``struct``
raises :class:`struct.error` for a value its field cannot hold instead
of wrapping it.

Reading is the only place tuples appear.  Iterating the log yields the
historical entries ``(start, cpu, thread_name, outcome, consumed)``,
with the penalty as a sixth element only when one was charged, so a
zero-penalty run reads exactly like a kernel without a topology.  Names
are resolved from ``tid`` through the kernel's thread list, which keeps
every exited thread.  :meth:`DispatchLog.fingerprint` hashes those
entries ``|``-joined and ``;``-terminated, the bytes every committed
digest was taken over.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.thread import SimThread

#: One dispatch: start, cpu, tid, outcome code, consumed, penalty.
RECORD = struct.Struct("<qHIBqI")

#: Outcome names by code; the kernel's dispatch outcomes.
OUTCOMES = ("preempted", "blocked", "sleeping", "yielded", "exited")
OUTCOME_CODE = {name: code for code, name in enumerate(OUTCOMES)}

DispatchEntry = Union[
    tuple[int, int, str, str, int], tuple[int, int, str, str, int, int]
]


class DispatchLog:
    """Packed dispatch records plus the thread list that names them.

    The kernel appends with ``records += RECORD.pack(...)``; readers use
    ``len()``, iteration or :meth:`fingerprint`.
    """

    __slots__ = ("records", "_threads")

    def __init__(self, threads: Sequence[SimThread]) -> None:
        self.records = bytearray()
        self._threads = threads

    def __len__(self) -> int:
        return len(self.records) // RECORD.size

    def __iter__(self) -> Iterator[DispatchEntry]:
        names = {thread.tid: thread.name for thread in self._threads}
        records = self.records
        unpack_from = RECORD.unpack_from
        # unpack_from holds no buffer export between entries, so the
        # kernel may keep appending while a reader is suspended.
        for offset in range(0, len(records), RECORD.size):
            start, cpu, tid, code, consumed, penalty = unpack_from(
                records, offset
            )
            if penalty:
                yield (start, cpu, names[tid], OUTCOMES[code], consumed, penalty)
            else:
                yield (start, cpu, names[tid], OUTCOMES[code], consumed)

    def fingerprint(self) -> str:
        """SHA-256 over the entries, ``|``-joined and ``;``-terminated."""
        digest = hashlib.sha256()
        for entry in self:
            digest.update("|".join(map(str, entry)).encode())
            digest.update(b";")
        return digest.hexdigest()


__all__ = ["OUTCOMES", "OUTCOME_CODE", "RECORD", "DispatchEntry", "DispatchLog"]
