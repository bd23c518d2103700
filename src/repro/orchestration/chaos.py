"""Deterministic fault injection for the orchestration runner.

The crash-safety contract ("an interrupted sweep resumes to a
byte-identical artifact") is only as good as the failures it has been
proven against, so this module makes the failures *reproducible*: a
:class:`ChaosPlan` names, per grid-point index, exactly which fault to
inject, and the plan travels to the workers so the same spec string
replays the same fault sequence every run.

Worker-side modes (triggered on a point's first ``trigger_attempts``
attempts, so retries succeed and recovery is observable):

* ``kill``   — the worker SIGKILLs itself before running the point
  (exercises the :data:`~repro.orchestration.runner.CRASH` path);
* ``hang``   — the worker sleeps :data:`HANG_S` before running
  (exercises the per-point ``--timeout`` kill);
* ``raise``  — the point raises :class:`ChaosError` in the worker
  (the in-process crash flavour);
* ``corrupt``— the result payload is returned with its
  ``experiment_id`` stripped, so schema validation rejects it but the
  dispatch fingerprint still matches the clean retry
  (:data:`~repro.orchestration.runner.CORRUPTED_RESULT`, recoverable);
* ``nondet`` — like ``corrupt``, but the metrics are also perturbed,
  so the clean retry's fingerprint disagrees with the corrupted
  attempt's — the terminal
  :data:`~repro.orchestration.runner.FINGERPRINT_MISMATCH`.

Coordinator-side mode: ``abort=N`` stops the coordinator after ``N``
newly journaled points, simulating a mid-sweep crash of the
orchestrator itself (the run exits with the interrupted status and a
resume command, exactly like Ctrl-C).

Spec grammar (CLI ``--chaos``): comma-separated ``mode=index`` terms,
``":"`` separating multiple indices — ``"kill=1:3,hang=5,abort=4"``.

:func:`tear_journal_tail` is the disk-side fault: it truncates a
journal mid-last-line, simulating a crash between ``write`` and
``fsync``, for tests of the loader's torn-tail tolerance.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

#: Worker-side injection modes.
WORKER_MODES = ("kill", "hang", "raise", "corrupt", "nondet")

#: How long the ``hang`` mode stalls a worker: far past any per-point
#: timeout a test sets, so only the coordinator's kill ends it.
HANG_S = 30.0

_PathLike = Union[str, "os.PathLike[str]"]


class ChaosError(Exception):
    """Raised by the ``raise`` mode inside a worker, and for bad specs."""


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic fault schedule keyed by grid-point index."""

    modes: Mapping[int, str] = field(default_factory=dict)
    abort_after: Optional[int] = None
    trigger_attempts: int = 1

    @classmethod
    def parse(cls, spec: str, *, trigger_attempts: int = 1) -> "ChaosPlan":
        """Parse a ``--chaos`` spec string (see module docstring)."""
        modes: dict[int, str] = {}
        abort_after: Optional[int] = None
        for term in spec.split(","):
            term = term.strip()
            if not term:
                continue
            mode, sep, value = term.partition("=")
            if not sep:
                raise ChaosError(
                    f"chaos term {term!r} needs mode=index (e.g. kill=2)"
                )
            try:
                indices = [int(token) for token in value.split(":") if token]
            except ValueError:
                raise ChaosError(
                    f"chaos term {term!r}: indices must be integers"
                ) from None
            if mode == "abort":
                if len(indices) != 1:
                    raise ChaosError(f"chaos term {term!r}: abort takes one count")
                abort_after = indices[0]
            elif mode in WORKER_MODES:
                for index in indices:
                    modes[index] = mode
            else:
                raise ChaosError(
                    f"unknown chaos mode {mode!r}; "
                    f"known: {', '.join(WORKER_MODES + ('abort',))}"
                )
        return cls(
            modes=modes,
            abort_after=abort_after,
            trigger_attempts=trigger_attempts,
        )

    # ------------------------------------------------------------------
    def mode_for(self, index: int, attempt: int) -> Optional[str]:
        """The fault to inject for attempt number ``attempt`` (1-based)."""
        if attempt > self.trigger_attempts:
            return None
        return self.modes.get(index)

    def strike_pre(self, index: int, attempt: int) -> None:
        """Worker-side injection *before* the point runs."""
        mode = self.mode_for(index, attempt)
        if mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif mode == "hang":
            # Stall the worker; the coordinator's per-point timeout is
            # what ends this (time.sleep never touches simulated state).
            time.sleep(HANG_S)
        elif mode == "raise":
            raise ChaosError(
                f"injected failure at point {index} (attempt {attempt})"
            )

    def corrupt_payload(
        self, index: int, attempt: int, payload: dict
    ) -> dict:
        """Worker-side injection *after* the point ran."""
        mode = self.mode_for(index, attempt)
        if mode in ("corrupt", "nondet"):
            payload = dict(payload)
            payload.pop("experiment_id", None)
        if mode == "nondet":
            metrics = dict(payload.get("metrics") or {})
            metrics["__chaos_nondet__"] = float(attempt)
            payload["metrics"] = metrics
        return payload


def tear_journal_tail(path: _PathLike, *, keep_fraction: float = 0.5) -> int:
    """Truncate a journal mid-last-line; returns bytes removed.

    Simulates a crash between ``write(2)`` and the data reaching disk:
    the final line loses its newline and part of its body, which is
    exactly the damage :func:`~repro.orchestration.journal.load_journal`
    must shrug off.
    """
    target = os.fspath(path)
    if not os.path.exists(target):
        return 0
    with open(target, "rb") as handle:
        data = handle.read()
    body = data.rstrip(b"\n")
    if not body:
        return 0
    last_start = body.rfind(b"\n") + 1
    last_line = body[last_start:]
    keep = last_start + max(int(len(last_line) * keep_fraction), 1)
    os.truncate(target, keep)
    return len(data) - keep


__all__ = [
    "ChaosError",
    "ChaosPlan",
    "HANG_S",
    "WORKER_MODES",
    "tear_journal_tail",
]
