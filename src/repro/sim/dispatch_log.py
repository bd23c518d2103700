"""The kernel's dispatch log, packed records kept in compressed chunks.

``Kernel(record_dispatches=True)`` records the full scheduling order:
every dispatch appends one :data:`RECORD` to :attr:`DispatchLog.records`,
a ``bytearray`` tail of at most :data:`FOLD_RECORDS` records.  When the
tail is full the kernel calls :meth:`DispatchLog.fold`, which moves it
into :attr:`DispatchLog.chunks` as one ``zlib`` stream at level
:data:`FOLD_LEVEL`.  A long run so keeps no Python object per dispatch,
and a fifth to a third of the raw record bytes.  A record holds

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

Reading is the only place tuples appear, one chunk at a time.
Iterating the log yields the historical entries ``(start, cpu,
thread_name, outcome, consumed)``, with the penalty as a sixth element
only when one was charged, so a zero-penalty run reads exactly like a
kernel without a topology.  Names are resolved from ``tid`` through the
kernel's name table (:attr:`Kernel.thread_names`), which keeps the name
of every thread ever added, long after the thread itself has retired;
each chunk looks up its own distinct tids once.
:meth:`DispatchLog.fingerprint` hashes those entries ``|``-joined and
``;``-terminated, the bytes every committed digest was taken over.

The name table is a :class:`NameTable`, packed the same way: the names'
UTF-8 bytes in one ``bytearray``, and two ``array`` columns, the tids
ascending and each name's end offset in that blob.  A thread costs its
name's bytes plus 8 bytes of columns, and no Python object; a lookup
bisects the tid column and decodes one slice.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from array import array
from bisect import bisect_left
from collections.abc import Iterator, Mapping
from itertools import chain
from operator import itemgetter
from typing import Union

#: One dispatch: start, cpu, tid, outcome code, consumed, penalty.
RECORD = struct.Struct("<qHIBqI")

#: Records the live tail holds before :meth:`DispatchLog.fold`
#: compresses it into a chunk, and that tail's size in bytes.
FOLD_RECORDS = 4096
FOLD_BYTES = FOLD_RECORDS * RECORD.size

#: ``zlib`` level of a folded chunk: the fastest, which already stores
#: a record in 4-8 bytes on the benchmark workloads.
FOLD_LEVEL = 1

#: Outcome names by code; the kernel's dispatch outcomes.
OUTCOMES = ("preempted", "blocked", "sleeping", "yielded", "exited")
OUTCOME_CODE = {name: code for code, name in enumerate(OUTCOMES)}

DispatchEntry = Union[
    tuple[int, int, str, str, int], tuple[int, int, str, str, int, int]
]

#: An entry's hashed text by its length: its fields ``|``-joined and
#: ``;``-terminated (``%d`` prints an int exactly as ``str`` does).
_TEXT = {5: "%d|%d|%s|%s|%d;", 6: "%d|%d|%s|%s|%d|%d;"}

#: A record's tid, from its unpacked tuple.
_TID = itemgetter(2)


class NameTable(Mapping[int, str]):
    """tid -> name of every thread a kernel ever added, in packed columns.

    :meth:`add`, called by ``Kernel.add_thread``, is the only writer;
    everyone else reads the table as a ``Mapping``.  Tids usually arrive in increasing order and are
    appended.  A thread built before one already added (tids come from
    one process-wide counter) is spliced in at its sorted place, which
    shifts the names and end offsets after it: time linear in the
    table, where an append takes constant time.
    """

    __slots__ = ("_tids", "_ends", "_blob")

    def __init__(self) -> None:
        #: Every tid added, ascending (``I``: the width of a record's
        #: tid field).
        self._tids = array("I")
        #: Offset in ``_blob`` just past each tid's name, in tid order.
        self._ends = array("I")
        #: The names, UTF-8 encoded and concatenated in tid order.
        self._blob = bytearray()

    def add(self, tid: int, name: str) -> None:
        """Name ``tid``; a tid already named raises ``ValueError`` and
        leaves the table as it was."""
        data = name.encode()
        tids, blob = self._tids, self._blob
        if not tids or tid > tids[-1]:
            tids.append(tid)
            blob += data
            self._ends.append(len(blob))
            return
        at = bisect_left(tids, tid)
        if tids[at] == tid:
            raise ValueError(f"tid {tid} is already named {self[tid]!r}")
        ends = self._ends
        start = ends[at - 1] if at else 0
        blob[start:start] = data
        ends[at:] = array("I", map(len(data).__add__, ends[at:]))
        tids.insert(at, tid)
        ends.insert(at, start + len(data))

    def __getitem__(self, tid: int) -> str:
        tids = self._tids
        at = bisect_left(tids, tid)
        if at == len(tids) or tids[at] != tid:
            raise KeyError(tid)
        ends = self._ends
        return self._blob[ends[at - 1] if at else 0:ends[at]].decode()

    def __iter__(self) -> Iterator[int]:
        return iter(self._tids)

    def __len__(self) -> int:
        return len(self._tids)


class DispatchLog:
    """Packed dispatch records plus the name table that names them.

    The kernel appends with ``records += RECORD.pack(...)`` and calls
    :meth:`fold` once ``records`` holds :data:`FOLD_BYTES`, so every
    chunk holds :data:`FOLD_RECORDS` records; readers use ``len()``,
    iteration or :meth:`fingerprint`.
    """

    __slots__ = ("records", "chunks", "_names")

    def __init__(self, names: Mapping[int, str]) -> None:
        #: Packed records not yet folded, oldest first.
        self.records = bytearray()
        #: Earlier records, ``zlib``-compressed, oldest chunk first.
        self.chunks: list[bytes] = []
        #: tid -> thread name, for every tid a record may hold.
        self._names = names

    def __len__(self) -> int:
        return FOLD_RECORDS * len(self.chunks) + len(self.records) // RECORD.size

    def fold(self) -> None:
        """Compress the full tail into a new chunk and start an empty one."""
        self.chunks.append(zlib.compress(self.records, FOLD_LEVEL))
        self.records = bytearray()

    def _decoded(self) -> Iterator[list[DispatchEntry]]:
        """The entries recorded so far, one list per chunk and one for
        the tail.

        The chunk list and the tail are copied at the first ``next()``,
        so the kernel may keep appending and folding while a reader is
        suspended; the reader sees the records present at that call.
        """
        table = self._names
        chunks = map(zlib.decompress, self.chunks[:])
        for chunk in chain(chunks, [bytes(self.records)]):
            rows = list(RECORD.iter_unpack(chunk))
            names = {tid: table[tid] for tid in dict.fromkeys(map(_TID, rows))}
            yield [
                (start, cpu, names[tid], OUTCOMES[code], consumed, penalty)
                if penalty
                else (start, cpu, names[tid], OUTCOMES[code], consumed)
                for start, cpu, tid, code, consumed, penalty in rows
            ]

    def __iter__(self) -> Iterator[DispatchEntry]:
        for entries in self._decoded():
            yield from entries

    def fingerprint(self) -> str:
        """SHA-256 over the entries, ``|``-joined and ``;``-terminated."""
        digest = hashlib.sha256()
        for entries in self._decoded():
            text = "".join([_TEXT[len(entry)] % entry for entry in entries])
            digest.update(text.encode())
        return digest.hexdigest()


__all__ = [
    "FOLD_BYTES",
    "FOLD_LEVEL",
    "FOLD_RECORDS",
    "OUTCOMES",
    "OUTCOME_CODE",
    "RECORD",
    "DispatchEntry",
    "DispatchLog",
    "NameTable",
]
