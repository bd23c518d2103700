"""The append-only, fsync'd run journal behind ``sweep --resume``.

A journal is a JSONL file: one schema-versioned header line naming the
run it belongs to (its *run fingerprint*: experiment, grid, quick
flag), then one line per settled grid point — ``ok`` lines carry the
full result payload plus its dispatch fingerprint, ``failed`` lines
carry the failure taxonomy record.  Lines are appended through
:class:`repro.core.artifacts.DurableAppender`, so every line is on
stable storage before the runner moves on; a crash can tear at most
the line being written.

The loader is exactly as tolerant as that guarantee requires: a
**final** line without its trailing newline (or that fails to parse)
is a torn tail and is dropped — :meth:`Journal.resume` truncates it
away before appending, so the file never accumulates garbage — while
a corrupt line in the *middle* of the file means something other than
a crash happened and raises :class:`JournalError` rather than
silently resuming from a lie.

A resumed run takes its identity (experiment, grid, quick flag) from
the header fingerprint, so resume cannot change *what* runs; individual
points match by :func:`repro.experiments.registry.point_key`.
Within a journal, a later line for the same key supersedes an earlier
one — that is how ``--retry-failed`` records a success over an old
FAILED row without rewriting history.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

from repro._version import __version__
from repro.core.artifacts import DurableAppender

#: Version of the journal line format.
JOURNAL_SCHEMA_VERSION = 1

#: The ``kind`` stamp in a journal header line.
JOURNAL_KIND = "orchestration_journal"

#: The ``run_kind`` stamp in a journal header line.  Sweeps are the only
#: journaled runs; :meth:`Journal.resume` still checks the stamp because
#: the file it reads comes from outside the program.
RUN_KIND = "sweep"

_PathLike = Union[str, "os.PathLike[str]"]


class JournalError(Exception):
    """A journal could not be created, parsed, or matched to its run."""


def result_fingerprint(payload: Mapping[str, Any]) -> str:
    """Digest of the parts of a result that determinism fixes.

    Hashes the ``metrics`` and ``metadata`` sections (canonical JSON),
    which ``(experiment, params, seed)`` fully determine — envelope
    fields like ``repro_version`` stay out so a version bump does not
    read as nondeterminism.  Payloads without either section hash
    whole.  Computable even for payloads that fail schema validation,
    which is what lets a retry be compared against a corrupted earlier
    attempt.
    """
    if "metrics" in payload or "metadata" in payload:
        core: Any = {
            "metrics": payload.get("metrics"),
            "metadata": payload.get("metadata"),
        }
    else:
        core = dict(payload)
    text = json.dumps(core, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JournalEntry:
    """One settled point: an ``ok`` payload or a ``failed`` record."""

    status: str  # "ok" | "failed"
    key: str
    attempt: int
    fingerprint: str = ""
    payload: Optional[dict[str, Any]] = None
    error: Optional[dict[str, Any]] = None

    def as_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "status": self.status,
            "key": self.key,
            "attempt": self.attempt,
            "fingerprint": self.fingerprint,
        }
        if self.payload is not None:
            record["payload"] = self.payload
        if self.error is not None:
            record["error"] = self.error
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "JournalEntry":
        try:
            status = record["status"]
            key = record["key"]
            attempt = int(record["attempt"])
        except (KeyError, TypeError, ValueError) as error:
            raise JournalError(f"malformed journal entry: {error!r}") from error
        if status not in ("ok", "failed"):
            raise JournalError(f"unknown journal entry status {status!r}")
        return cls(
            status=status,
            key=key,
            attempt=attempt,
            fingerprint=str(record.get("fingerprint", "")),
            payload=record.get("payload"),
            error=record.get("error"),
        )


def load_journal(
    path: _PathLike,
) -> tuple[dict[str, Any], dict[str, JournalEntry], int]:
    """Read a journal: (header, latest entry per key, valid byte count).

    The valid byte count is the offset just past the last complete
    (newline-terminated, parseable) line; anything beyond it is a torn
    tail from a crash mid-append and should be truncated before the
    journal is appended to again.
    """
    try:
        with open(os.fspath(path), "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise JournalError(f"cannot read journal {path!r}: {error}") from error
    header: Optional[dict[str, Any]] = None
    entries: dict[str, JournalEntry] = {}
    offset = 0
    while True:
        newline = data.find(b"\n", offset)
        if newline < 0:
            break  # no terminator: torn tail (or clean EOF when empty)
        line = data[offset:newline]
        if line.strip():
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                if data.find(b"\n", newline + 1) < 0 and not data[newline + 1:].strip():
                    # A terminated-but-corrupt FINAL line: still a torn
                    # tail (the newline may survive a partial write of
                    # a longer buffer); drop it.
                    break
                raise JournalError(
                    f"journal {path!r} is corrupt mid-file at byte {offset}: "
                    f"{error}"
                ) from error
            if header is None:
                header = _validate_header(record, path)
            else:
                entry = JournalEntry.from_record(record)
                entries[entry.key] = entry
        offset = newline + 1
    if header is None:
        raise JournalError(f"journal {path!r} has no header line")
    return header, entries, offset


def _validate_header(record: Mapping[str, Any], path: _PathLike) -> dict[str, Any]:
    if record.get("kind") != JOURNAL_KIND:
        raise JournalError(
            f"{path!r} is not an orchestration journal "
            f"(kind={record.get('kind')!r})"
        )
    schema = record.get("schema_version")
    if schema != JOURNAL_SCHEMA_VERSION:
        raise JournalError(
            f"journal {path!r} has schema version {schema!r}; this build "
            f"reads version {JOURNAL_SCHEMA_VERSION}"
        )
    return dict(record)


class Journal:
    """An open journal being appended to by a run."""

    def __init__(
        self,
        path: _PathLike,
        header: dict[str, Any],
        appender: DurableAppender,
    ) -> None:
        self.path = os.fspath(path)
        self.header = header
        self._appender = appender
        self.recorded = 0

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: _PathLike,
        *,
        fingerprint: Mapping[str, Any],
    ) -> "Journal":
        """Start a fresh journal; refuses to clobber an existing one.

        A leftover journal means an earlier run was interrupted and its
        completed points are recoverable — silently overwriting it
        would destroy exactly the state this machinery exists to keep.
        """
        target = os.fspath(path)
        if os.path.exists(target):
            raise JournalError(
                f"journal {target!r} already exists; resume it with "
                f"--resume {target}, or delete it to start over"
            )
        header = {
            "kind": JOURNAL_KIND,
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "repro_version": __version__,
            "run_kind": RUN_KIND,
            "fingerprint": dict(fingerprint),
        }
        appender = DurableAppender(target)
        journal = cls(target, header, appender)
        appender.append_line(json.dumps(header, sort_keys=True))
        return journal

    @classmethod
    def resume(cls, path: _PathLike) -> tuple["Journal", dict[str, JournalEntry]]:
        """Reopen an interrupted journal and return its settled entries.

        Validates the header's ``run_kind``, truncates any torn tail,
        and reopens for appending.
        """
        header, entries, valid_bytes = load_journal(path)
        if header.get("run_kind") != RUN_KIND:
            raise JournalError(
                f"journal {os.fspath(path)!r} belongs to a "
                f"{header.get('run_kind')!r} run, not {RUN_KIND!r}"
            )
        target = os.fspath(path)
        if valid_bytes < os.path.getsize(target):
            os.truncate(target, valid_bytes)  # drop the torn tail
        journal = cls(target, header, DurableAppender(target))
        return journal, entries

    # ------------------------------------------------------------------
    def record(self, entry: JournalEntry) -> None:
        """Durably append one settled point."""
        self._appender.append_line(json.dumps(entry.as_record(), sort_keys=True))
        self.recorded += 1

    @property
    def closed(self) -> bool:
        return self._appender.closed

    def close(self) -> None:
        self._appender.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "JOURNAL_KIND",
    "JOURNAL_SCHEMA_VERSION",
    "Journal",
    "JournalEntry",
    "JournalError",
    "load_journal",
    "result_fingerprint",
]
