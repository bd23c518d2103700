"""Durable artifact writes: atomic replace and fsync'd appends.

Every artifact this repository commits to disk — experiment ``--json``
results, sweep manifests, golden corpora, rendered reports, and the
append-only orchestration journals — must survive a crash at any
instant without leaving a torn file behind.  Two primitives cover every case:

* :func:`write_atomic` — write the full text to a temporary file in
  the destination directory, fsync it, then :func:`os.replace` it over
  the target.  Readers observe either the old complete file or the new
  complete file, never a prefix.
* :class:`DurableAppender` — append-only JSONL logs cannot use replace
  (that would rewrite history); instead every appended line is flushed
  and fsync'd before the call returns, so a crash can tear at most the
  line being written — which the sweep journal's loader detects and
  drops.

The ``atomic-write`` check of ``python -m repro lint`` flags direct
write-mode ``open()`` calls elsewhere in the tree, so new artifact
writers are funnelled here by construction.  This module is the single
intentional home of raw write-mode ``open()``.
"""

from __future__ import annotations

import os
import tempfile
from types import TracebackType
from typing import Optional, TextIO, Union

_PathLike = Union[str, "os.PathLike[str]"]


def _fsync_directory(directory: str) -> None:
    """Best-effort fsync of a directory entry (durability of the rename).

    Not every filesystem supports opening directories (and Windows has
    no equivalent); failure to sync the directory never fails the
    write — the file itself is already durable.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_atomic(path: _PathLike, text: str, *, fsync: bool = True) -> None:
    """Atomically replace ``path`` with ``text`` (temp file + rename).

    The temporary file is created in the destination directory so the
    final :func:`os.replace` stays on one filesystem (rename is only
    atomic within a filesystem).  With ``fsync`` (the default) the data
    is forced to stable storage before the rename, and the directory
    entry is synced after it, so a crash leaves either the complete old
    content or the complete new content.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_directory(directory)


class DurableAppender:
    """An append-only text log whose every line survives a crash.

    Holds the file open across appends (a journal writes one line per
    completed grid point; reopening per line would thrash).  Each
    :meth:`append_line` flushes and fsyncs before returning, so once
    the call returns the line is on stable storage; a crash mid-call
    can tear at most the final line, which loaders must tolerate.
    """

    def __init__(self, path: _PathLike, *, fsync: bool = True) -> None:
        self.path = os.fspath(path)
        self._fsync = fsync
        self._handle: Optional[TextIO] = open(self.path, "a", encoding="utf-8")

    def append_line(self, text: str) -> None:
        """Append ``text`` plus a newline, durably."""
        if self._handle is None:
            raise ValueError(f"appender for {self.path!r} is closed")
        self._handle.write(text + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    @property
    def closed(self) -> bool:
        return self._handle is None

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
                if self._fsync:
                    os.fsync(self._handle.fileno())
            finally:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "DurableAppender":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


__all__ = [
    "DurableAppender",
    "write_atomic",
]
