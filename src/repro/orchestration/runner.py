"""The crash-safe sweep coordinator and its resilient worker pool.

:func:`orchestrate_sweep` runs the CLI sweep's grid points over a pool
of worker processes, journaled: every settled grid point is durably
appended to the journal *before* the coordinator moves on, so a crash
— of a worker, of the coordinator, of the machine — loses at most the
points still in flight, and ``--resume`` replays none of the finished
work.  The merged artifact is built by the same
:func:`~repro.experiments.sweep.build_sweep_artifact` the serial path
uses, from payloads that are either fresh worker results or journal
lines (both JSON-round-trip stable), so an interrupted-then-resumed
sweep is **byte-identical** to an uninterrupted serial run.

Pool design: one :class:`multiprocessing.Process` per worker with a
private duplex :class:`~multiprocessing.Pipe`, not a shared queue.
Timeout enforcement and chaos testing both require SIGKILLing an
individual worker, and a kill mid-``queue.put`` can corrupt a shared
queue for every sibling; a private pipe confines the damage to the one
worker, whose pipe simply reads EOF.  Unexpected worker deaths are
absorbed by respawning up to :data:`MAX_WORKER_RESTARTS` times, after
which the pool gracefully degrades to fewer workers (never below one)
instead of thrashing on a poisoned host.

Every way a grid point can fail has a name (:data:`CRASH`,
:data:`TIMEOUT`, :data:`CORRUPTED_RESULT`, :data:`FINGERPRINT_MISMATCH`).
A failed point is re-queued at once, up to :data:`MAX_RETRIES` times,
then becomes a FAILED row.  A fingerprint mismatch ends the point at
once: the point is nondeterministic, and no number of retries can tell
which answer is right.  Points are local, deterministic simulations
that contend for no shared resource, so there is nothing to wait out
between attempts.

Wall-clock time appears in this module only to enforce the per-point
timeout of the *harness*; it never feeds simulated state, charged
costs, or artifact content.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Mapping, Optional

from repro.analysis.results import ExperimentResult
from repro.experiments.registry import REGISTRY, _jsonable, point_key
from repro.experiments.sweep import build_sweep_artifact, expand_grid
from repro.orchestration.chaos import ChaosPlan
from repro.orchestration.journal import (
    Journal,
    JournalEntry,
    JournalError,
    result_fingerprint,
)
from repro.orchestration.worker import worker_main

#: Worker process death or in-worker exception.
CRASH = "crash"

#: Per-point deadline exceeded; the coordinator killed the worker.
TIMEOUT = "timeout"

#: The returned payload failed result-schema validation; the fingerprint
#: it claimed is kept to cross-check the retry.
CORRUPTED_RESULT = "corrupted-result"

#: A retry's valid result disagrees with an earlier attempt (terminal).
FINGERPRINT_MISMATCH = "fingerprint-mismatch-on-retry"

#: Attempts beyond the first before a failing point becomes a FAILED row.
MAX_RETRIES = 2

#: Unexpected worker deaths absorbed by respawning before the pool
#: degrades to fewer workers.
MAX_WORKER_RESTARTS = 3

#: Ceiling on one blocking wait, so the loop re-checks deadlines and
#: stays responsive even if an event source misbehaves.
_MAX_WAIT_S = 1.0

#: Grace period for workers to exit after a ``stop`` message.
_STOP_GRACE_S = 2.0


def should_retry(kind: str, failures: int) -> bool:
    """Whether a point that has failed ``failures`` times is re-queued.

    A fingerprint mismatch is terminal: the point is nondeterministic,
    and another attempt cannot say which result is right.
    """
    return kind != FINGERPRINT_MISMATCH and failures <= MAX_RETRIES


class OrchestrationError(Exception):
    """The run could not be orchestrated (setup/configuration errors)."""


class OrchestrationInterrupted(Exception):
    """The run stopped early (SIGINT or injected abort); journal kept.

    Carries what the CLI needs to print the resume command: the
    journal path and how much of the grid had settled.
    """

    def __init__(self, journal_path: str, completed: int, total: int) -> None:
        self.journal_path = journal_path
        self.completed = completed
        self.total = total
        super().__init__(
            f"interrupted with {completed}/{total} point(s) settled in "
            f"{journal_path}"
        )


class _AbortInjected(Exception):
    """Internal: the chaos plan's ``abort=N`` tripped."""


def _now_s() -> float:
    # repro-lint: disable=determinism -- harness timeout deadlines only; never feeds simulated state or artifacts
    return time.monotonic()


@dataclass
class PointOutcome:
    """How one grid point settled."""

    index: int
    key: str
    params: dict[str, Any]
    status: str  # "ok" | "failed"
    attempts: int
    payload: Optional[dict[str, Any]] = None
    error: Optional[dict[str, Any]] = None
    resumed: bool = False


@dataclass
class SweepReport:
    """Everything :func:`orchestrate_sweep` knows at the end of a run."""

    experiment: str
    quick: bool
    artifact: dict[str, Any]
    outcomes: list[PointOutcome]
    journal_path: str
    resumed: int
    executed: int

    @property
    def failed(self) -> list[PointOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]


@dataclass
class _Task:
    index: int
    key: str
    params: dict[str, Any]
    attempt: int
    deadline: Optional[float] = None


class _Worker:
    """One pool process plus its private pipe."""

    def __init__(self, ctx: Any, chaos: Optional[ChaosPlan]) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=worker_main, args=(child_conn, chaos), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.task: Optional[_Task] = None

    @property
    def busy(self) -> bool:
        return self.task is not None

    def send_task(self, task: _Task, name: str, quick: bool) -> None:
        self.conn.send(
            ("task", task.index, task.attempt, name, task.params, quick)
        )
        self.task = task

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.conn.close()

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=_STOP_GRACE_S)
        self.kill()


@dataclass
class _PoolRunner:
    """The coordinator loop for one batch of pending tasks."""

    name: str
    quick: bool
    tasks: list[_Task]
    jobs: int
    timeout_s: Optional[float]
    chaos: Optional[ChaosPlan]
    journal: Journal
    already_done: int
    total: int
    on_event: Callable[[str], None]

    outcomes: dict[int, PointOutcome] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    fingerprints: dict[str, str] = field(default_factory=dict)
    workers: list[_Worker] = field(default_factory=list)
    deaths: int = 0

    def run(self) -> dict[int, PointOutcome]:
        self.ready = list(self.tasks)
        ctx = multiprocessing.get_context()
        n_workers = min(self.jobs, len(self.tasks))
        self.workers = [_Worker(ctx, self.chaos) for _ in range(n_workers)]
        try:
            self._loop()
        except (KeyboardInterrupt, _AbortInjected):
            self._shutdown(graceful=False)
            raise OrchestrationInterrupted(
                self.journal.path,
                self.already_done + len(self.outcomes),
                self.total,
            ) from None
        except BaseException:
            self._shutdown(graceful=False)
            raise
        self._shutdown(graceful=True)
        return self.outcomes

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while self.ready or any(w.busy for w in self.workers):
            now = _now_s()
            self._dispatch(now)
            busy = {w.conn: w for w in self.workers if w.busy}
            if busy:
                for conn in mp_connection.wait(list(busy), self._wait_timeout(now)):
                    self._drain(busy[conn])
            self._reap_timeouts(_now_s())

    def _dispatch(self, now: float) -> None:
        for worker in list(self.workers):
            if worker.busy or not self.ready:
                continue
            if not worker.process.is_alive():
                self._worker_died(worker)
                continue
            task = self.ready.pop(0)
            if self.timeout_s is not None:
                task.deadline = now + self.timeout_s
            try:
                worker.send_task(task, self.name, self.quick)
            except (BrokenPipeError, OSError):
                task.deadline = None
                self.ready.insert(0, task)
                self._worker_died(worker)

    def _wait_timeout(self, now: float) -> float:
        candidates = [_MAX_WAIT_S]
        for worker in self.workers:
            if worker.task is not None and worker.task.deadline is not None:
                candidates.append(worker.task.deadline - now)
        return max(min(candidates), 0.0)

    # ------------------------------------------------------------------
    def _drain(self, worker: _Worker) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._worker_died(worker)
            return
        task = worker.task
        worker.task = None
        if task is None:  # pragma: no cover — protocol violation
            return
        tag = message[0]
        if tag == "ok":
            self._handle_ok(task, message[3])
        else:
            detail = message[3]
            self._fail(
                task, CRASH, f"{detail.get('type')}: {detail.get('detail')}"
            )

    def _handle_ok(self, task: _Task, payload: dict[str, Any]) -> None:
        try:
            ExperimentResult.from_dict(payload)
            invalid: Optional[str] = None
        except Exception as error:  # noqa: BLE001 — any parse failure is corruption
            invalid = f"result failed schema validation: {error!r}"
        fingerprint = result_fingerprint(payload)
        if invalid is not None:
            # Remember what this attempt *claimed* so a clean retry can
            # be cross-checked against it.
            self.fingerprints.setdefault(task.key, fingerprint)
            self._fail(task, CORRUPTED_RESULT, invalid)
            return
        prior = self.fingerprints.get(task.key)
        if prior is not None and prior != fingerprint:
            self._fail(
                task,
                FINGERPRINT_MISMATCH,
                f"retry fingerprint {fingerprint[:12]} != earlier attempt's "
                f"{prior[:12]}: the point is not deterministic",
            )
            return
        self.outcomes[task.index] = PointOutcome(
            index=task.index,
            key=task.key,
            params=task.params,
            status="ok",
            attempts=task.attempt,
            payload=payload,
        )
        self.journal.record(
            JournalEntry(
                status="ok",
                key=task.key,
                attempt=task.attempt,
                fingerprint=fingerprint,
                payload=payload,
            )
        )
        self._after_record()

    def _fail(self, task: _Task, kind: str, detail: str) -> None:
        self.failures[task.key] = self.failures.get(task.key, 0) + 1
        n = self.failures[task.key]
        if should_retry(kind, n):
            self.on_event(
                f"point {task.index} {kind} on attempt {task.attempt}; "
                f"retry {n}/{MAX_RETRIES}"
            )
            self.ready.append(
                _Task(index=task.index, key=task.key, params=task.params,
                      attempt=n + 1)
            )
            return
        error = {"kind": kind, "detail": detail, "attempts": n}
        self.outcomes[task.index] = PointOutcome(
            index=task.index,
            key=task.key,
            params=task.params,
            status="failed",
            attempts=n,
            error=error,
        )
        self.journal.record(
            JournalEntry(
                status="failed", key=task.key, attempt=n, error=error
            )
        )
        self.on_event(
            f"point {task.index} FAILED ({kind}) after {n} attempt(s): {detail}"
        )
        self._after_record()

    def _after_record(self) -> None:
        if (
            self.chaos is not None
            and self.chaos.abort_after is not None
            and self.journal.recorded >= self.chaos.abort_after
        ):
            raise _AbortInjected()

    # ------------------------------------------------------------------
    def _reap_timeouts(self, now: float) -> None:
        for worker in list(self.workers):
            task = worker.task
            if task is None or task.deadline is None or now < task.deadline:
                continue
            worker.task = None
            worker.kill()
            self._replace(worker, deliberate=True)
            self._fail(
                task,
                TIMEOUT,
                f"no result within {self.timeout_s}s; worker killed",
            )

    def _worker_died(self, worker: _Worker) -> None:
        task = worker.task
        worker.task = None
        worker.kill()
        self.deaths += 1
        self._replace(worker, deliberate=False)
        if task is not None:
            code = worker.process.exitcode
            self._fail(task, CRASH, f"worker process died (exit code {code})")

    def _replace(self, worker: _Worker, *, deliberate: bool) -> None:
        """Respawn (or, past the restart budget, shrink) the pool.

        A deliberate kill (timeout enforcement) always respawns —
        the host is healthy, the *point* misbehaved.  Unexpected
        deaths respawn only within :data:`MAX_WORKER_RESTARTS`; beyond
        that the pool degrades, but never below one worker (the
        dead worker's task is about to be re-queued and someone must
        still run it — per-point retry limits bound the damage).
        """
        if worker in self.workers:
            self.workers.remove(worker)
        within_budget = deliberate or self.deaths <= MAX_WORKER_RESTARTS
        if within_budget or not self.workers:
            ctx = multiprocessing.get_context()
            self.workers.append(_Worker(ctx, self.chaos))
        else:
            self.on_event(
                f"worker died unexpectedly {self.deaths} times "
                f"(> MAX_WORKER_RESTARTS={MAX_WORKER_RESTARTS}); "
                f"degrading pool to {len(self.workers)} worker(s)"
            )

    def _shutdown(self, *, graceful: bool) -> None:
        for worker in self.workers:
            if graceful and not worker.busy:
                worker.stop()
            else:
                worker.kill()
        self.workers = []


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def orchestrate_sweep(
    name: Optional[str] = None,
    grid: Optional[Mapping[str, Any]] = None,
    *,
    journal_path: str,
    jobs: int = 1,
    quick: bool = False,
    resume: bool = False,
    retry_failed: bool = False,
    timeout_s: Optional[float] = None,
    chaos: Optional[ChaosPlan] = None,
    on_event: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Run (or resume) a journaled sweep; returns the merged report.

    Fresh runs need ``name`` and ``grid`` and refuse to overwrite an
    existing journal.  With ``resume=True`` the experiment, grid and
    quick flag are taken from the journal header — resume may change
    *how* the remaining points run (``jobs``, ``timeout_s``), but never
    *what* runs.  ``retry_failed`` re-runs points recorded as FAILED;
    everything else in the journal is skipped.  ``timeout_s`` of
    ``None`` disables the per-point deadline.

    Raises :class:`OrchestrationInterrupted` on SIGINT or an injected
    abort, with the journal intact and flushed.
    """
    if jobs < 1:
        raise OrchestrationError(f"jobs must be at least 1, got {jobs}")
    if timeout_s is not None and timeout_s <= 0:
        raise OrchestrationError(
            f"timeout must be a positive number of seconds, got {timeout_s}"
        )
    notify = on_event or (lambda message: None)
    done: dict[str, JournalEntry] = {}
    journal: Optional[Journal] = None
    if resume:
        journal, done = Journal.resume(journal_path)
        header_fp = journal.header.get("fingerprint") or {}
        try:
            name = header_fp["experiment"]
            quick = bool(header_fp["quick"])
            grid = header_fp["grid"]
        except KeyError as error:
            journal.close()
            raise JournalError(
                f"journal {journal_path!r} header lacks {error}; cannot resume"
            ) from error
    if name is None or grid is None:
        raise OrchestrationError("a fresh sweep needs an experiment and a grid")

    spec = REGISTRY.get(name)
    axes, points = expand_grid(spec, grid)
    if journal is None:
        fingerprint = {
            "experiment": name,
            "quick": quick,
            "grid": {
                axis: [_jsonable(value) for value in values]
                for axis, values in axes.items()
            },
        }
        journal = Journal.create(journal_path, fingerprint=fingerprint)

    keys = [point_key(point) for point in points]
    outcomes: dict[int, PointOutcome] = {}
    pending: list[_Task] = []
    for index, (key, params) in enumerate(zip(keys, points)):
        entry = done.get(key)
        if entry is not None and (entry.status == "ok" or not retry_failed):
            outcomes[index] = PointOutcome(
                index=index,
                key=key,
                params=dict(params),
                status=entry.status,
                attempts=entry.attempt,
                payload=entry.payload,
                error=entry.error,
                resumed=True,
            )
        else:
            pending.append(
                _Task(index=index, key=key, params=dict(params), attempt=1)
            )
    resumed = len(outcomes)
    if resumed:
        notify(f"resuming: {resumed}/{len(points)} point(s) already journaled")

    if pending:
        runner = _PoolRunner(
            name=name,
            quick=quick,
            tasks=pending,
            jobs=jobs,
            timeout_s=timeout_s,
            chaos=chaos,
            journal=journal,
            already_done=resumed,
            total=len(points),
            on_event=notify,
        )
        try:
            outcomes.update(runner.run())
        except BaseException:
            journal.close()
            raise
    journal.close()

    results = [outcomes[index].payload for index in range(len(points))]
    errors = {
        index: outcome.error
        for index, outcome in outcomes.items()
        if outcome.status == "failed" and outcome.error is not None
    }
    artifact = build_sweep_artifact(
        name, axes, points, results, quick=quick, errors=errors or None
    )
    return SweepReport(
        experiment=name,
        quick=quick,
        artifact=artifact,
        outcomes=[outcomes[index] for index in range(len(points))],
        journal_path=journal.path,
        resumed=resumed,
        executed=len(pending),
    )


__all__ = [
    "CORRUPTED_RESULT",
    "CRASH",
    "FINGERPRINT_MISMATCH",
    "MAX_RETRIES",
    "MAX_WORKER_RESTARTS",
    "OrchestrationError",
    "OrchestrationInterrupted",
    "PointOutcome",
    "SweepReport",
    "TIMEOUT",
    "orchestrate_sweep",
]
