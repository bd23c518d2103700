"""The subprocess side of the resilient worker pool.

One :func:`worker_main` loop runs per pool process, reading task
messages off its private pipe and answering with either a result
payload or a structured error.  The protocol is deliberately tiny:

* coordinator → worker: ``("task", index, attempt, name, params,
  quick)`` or ``("stop",)``
* worker → coordinator: ``("ok", index, attempt, payload)`` or
  ``("error", index, attempt, detail_dict)``

Design points that matter for crash-safety:

* **SIGINT is ignored** in the worker.  A terminal Ctrl-C delivers
  SIGINT to the whole foreground process group; only the coordinator
  may decide what an interrupt means (flush the journal, print the
  resume command), so workers must not race it to an exit.
* **Points run through** :func:`repro.experiments.sweep.run_point`,
  the same entry the serial :func:`~repro.experiments.sweep.run_sweep`
  uses, so both paths produce the same wire form.
* **Exceptions never kill the loop**: a raising point is reported as
  an ``error`` message and the worker stays warm for the next task.
  Only pipe loss (coordinator death) or a ``stop`` message ends it.
* The optional :class:`~repro.orchestration.chaos.ChaosPlan` strikes
  here — before the point runs (kill/hang/raise) or on its payload
  (corrupt/nondet) — because the whole purpose of the harness is to
  fail in the places real workers fail.
"""

from __future__ import annotations

import signal
from typing import Any, Optional

from repro.experiments.sweep import run_point
from repro.orchestration.chaos import ChaosPlan


def worker_main(conn: Any, chaos: Optional[ChaosPlan] = None) -> None:
    """Serve task messages on ``conn`` until ``stop`` or pipe loss."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover — non-main thread
        pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if not message or message[0] == "stop":
            break
        _, index, attempt, name, params, quick = message
        try:
            if chaos is not None:
                chaos.strike_pre(index, attempt)
            payload = run_point(name, params, quick)
            if chaos is not None:
                payload = chaos.corrupt_payload(index, attempt, payload)
        except Exception as error:  # noqa: BLE001 — reported, not swallowed
            detail = {"type": type(error).__name__, "detail": str(error)}
            try:
                conn.send(("error", index, attempt, detail))
            except (BrokenPipeError, OSError):
                break
            continue
        try:
            conn.send(("ok", index, attempt, payload))
        except (BrokenPipeError, OSError):
            break
    conn.close()


__all__ = ["worker_main"]
