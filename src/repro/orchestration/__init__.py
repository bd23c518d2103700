"""Crash-safe experiment orchestration.

The harness-side counterpart of PR 8's simulated fault tolerance: the
machinery that produces artifacts must itself survive killed workers,
hangs, torn writes, and Ctrl-C without losing completed work or
emitting a subtly different artifact on the second try.

* :mod:`~repro.orchestration.journal` — the append-only, fsync'd
  ``*.partial.jsonl`` run journal and its torn-tail-tolerant loader;
* :mod:`~repro.orchestration.worker` — the subprocess task loop;
* :mod:`~repro.orchestration.runner` — the coordinator:
  :func:`~repro.orchestration.runner.orchestrate_sweep` (journaled,
  resumable, byte-identical sweeps), the failure taxonomy (crash,
  timeout, corrupted-result, fingerprint-mismatch-on-retry) and the
  immediate re-queue of a failed point;
* :mod:`~repro.orchestration.chaos` — deterministic fault injection that
  proves all of the above end-to-end.
"""

from repro.orchestration.chaos import ChaosError, ChaosPlan, tear_journal_tail
from repro.orchestration.journal import (
    JOURNAL_KIND,
    JOURNAL_SCHEMA_VERSION,
    Journal,
    JournalEntry,
    JournalError,
    load_journal,
    result_fingerprint,
)
from repro.orchestration.runner import (
    CORRUPTED_RESULT,
    CRASH,
    FINGERPRINT_MISMATCH,
    TIMEOUT,
    OrchestrationError,
    OrchestrationInterrupted,
    PointOutcome,
    SweepReport,
    orchestrate_sweep,
)

__all__ = [
    "CORRUPTED_RESULT",
    "CRASH",
    "ChaosError",
    "ChaosPlan",
    "FINGERPRINT_MISMATCH",
    "JOURNAL_KIND",
    "JOURNAL_SCHEMA_VERSION",
    "Journal",
    "JournalEntry",
    "JournalError",
    "OrchestrationError",
    "OrchestrationInterrupted",
    "PointOutcome",
    "SweepReport",
    "TIMEOUT",
    "load_journal",
    "orchestrate_sweep",
    "result_fingerprint",
    "tear_journal_tail",
]
