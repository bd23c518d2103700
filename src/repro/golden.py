"""Behaviour corpus: every registered experiment, pinned.

``tests/golden/corpus.json`` holds, for every experiment in
:data:`~repro.experiments.registry.REGISTRY` at its default and at its
quick parameters, two digests:

* ``dispatch_fingerprint`` — the composite fingerprint the run stamps
  (one SHA-256 of a dispatch log per kernel it built, joined with
  ``"+"``), and
* ``artifact_sha256`` — the SHA-256 of the run's
  :meth:`~repro.analysis.results.ExperimentResult.to_dict` in canonical
  JSON (sorted keys, compact separators) without ``repro_version``.

The fingerprint pins every dispatch; the artifact digest pins every
metric, series, note and metadata value, the float metrics a
fingerprint cannot see included.  ``tests/test_golden.py`` re-runs one
corpus entry per case; the CLI re-runs them all::

    python -m repro golden --regen     # rewrite the corpus
    python -m repro golden             # verify it (CI does this too)

A mismatch names the experiment, the point and the first differing
fingerprint component, so the diverging kernel of a multi-kernel
experiment is known without a re-run by hand.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from repro.analysis.results import ExperimentResult
from repro.core.artifacts import write_atomic
from repro.experiments import REGISTRY

#: Version of the corpus file layout.
GOLDEN_SCHEMA_VERSION = 2

#: Corpus location (relative to the repository root).
DEFAULT_CORPUS_PATH = "tests/golden/corpus.json"

#: The parameter points pinned per experiment.
POINTS = ("default", "quick")


def artifact_sha256(result: ExperimentResult) -> str:
    """SHA-256 of ``result.to_dict()`` in canonical JSON, less the
    package version (a release bump is not a behaviour change)."""
    payload = result.to_dict()
    del payload["repro_version"]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_entry(name: str, point: str) -> dict[str, str]:
    """Run one experiment at one point; returns its corpus entry."""
    result = REGISTRY.run(name, quick=point == "quick")
    return {
        "dispatch_fingerprint": result.metadata["dispatch_fingerprint"],
        "artifact_sha256": artifact_sha256(result),
    }


def load_corpus(path: str = DEFAULT_CORPUS_PATH) -> dict:
    """Load and structurally validate a committed corpus file."""
    with open(path) as handle:
        corpus = json.load(handle)
    if corpus.get("kind") != "golden_corpus":
        raise ValueError(f"{path!r} is not a golden corpus")
    if corpus.get("schema_version") != GOLDEN_SCHEMA_VERSION:
        raise ValueError(
            f"{path!r} has schema version {corpus.get('schema_version')!r}, "
            f"expected {GOLDEN_SCHEMA_VERSION}"
        )
    return corpus


def write_corpus(path: str = DEFAULT_CORPUS_PATH) -> dict:
    """Run every registered experiment at every point and write the
    corpus to ``path``."""
    corpus = {
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "kind": "golden_corpus",
        "entries": {
            name: {point: run_entry(name, point) for point in POINTS}
            for name in REGISTRY.names()
        },
    }
    write_atomic(path, json.dumps(corpus, indent=2, sort_keys=True) + "\n")
    return corpus


def _divergence(expected: dict, fresh: dict) -> str:
    """Where a fresh entry first departs from the pinned one."""
    old = expected.get("dispatch_fingerprint", "").split("+")
    new = fresh["dispatch_fingerprint"].split("+")
    if old == new:
        return "artifact digest differs (dispatch fingerprint matches)"
    index = next(
        (i for i, (a, b) in enumerate(zip(old, new)) if a != b),
        min(len(old), len(new)),
    )
    detail = f"dispatch fingerprint component {index} differs"
    if len(old) != len(new):
        detail += f" ({len(old)} components pinned, {len(new)} now)"
    return detail


def verify_entry(corpus: dict, name: str, point: str) -> Optional[str]:
    """Re-run one entry against the corpus; ``None`` when it conforms."""
    expected = corpus.get("entries", {}).get(name, {}).get(point)
    if expected is None:
        return (
            f"{name} [{point}]: missing from corpus "
            "(run `python -m repro golden --regen`)"
        )
    fresh = run_entry(name, point)
    if fresh == expected:
        return None
    return f"{name} [{point}]: diverged, {_divergence(expected, fresh)}"


def verify_corpus(corpus: dict) -> list[str]:
    """Re-run every registered experiment at every point; returns the
    mismatch messages (empty = the corpus conforms)."""
    messages = []
    for name in REGISTRY.names():
        for point in POINTS:
            message = verify_entry(corpus, name, point)
            if message is not None:
                messages.append(message)
    for name, points in sorted(corpus.get("entries", {}).items()):
        if name not in REGISTRY:
            messages.append(f"{name}: corpus entry names no registered experiment")
            continue
        for point in sorted(set(points) - set(POINTS)):
            messages.append(f"{name} [{point}]: corpus entry names no known point")
    return messages


__all__ = [
    "DEFAULT_CORPUS_PATH",
    "GOLDEN_SCHEMA_VERSION",
    "POINTS",
    "artifact_sha256",
    "load_corpus",
    "run_entry",
    "verify_corpus",
    "verify_entry",
    "write_corpus",
]
