"""Behaviour conformance: fresh runs must match the committed corpus.

``tests/golden/corpus.json`` pins every registered experiment at its
default and quick parameters: the composite dispatch fingerprint and
the SHA-256 of the canonical artifact.  One case re-runs one corpus
entry; one more case per ``<scheduler>-<scenario>`` pair of the smoke
matrices re-runs that pair's cells alone against their components of
the smoke experiment's composite fingerprint, so a divergence names the
cell.  A failure here means behaviour changed: if intentional, refresh
the corpus with ``python -m repro golden --regen`` and commit the diff.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import pytest

from repro import golden
from repro.experiments import REGISTRY
from repro.experiments.registry import UnknownExperimentError
from repro.experiments.smoke import (
    GOLDEN_CPU_COUNTS,
    GOLDEN_SCHEDULERS,
    SMOKE_DURATION_US,
    _build_churn,
    _build_fault,
)
from repro.workloads.engine import dispatch_fingerprint

CORPUS_PATH = Path(__file__).parent / "golden" / "corpus.json"
CORPUS = golden.load_corpus(str(CORPUS_PATH))
ENTRIES = [
    (name, point)
    for name, points in sorted(CORPUS["entries"].items())
    for point in sorted(points)
]


#: The smoke scenarios and the experiment that pins each one's cells:
#: ``churn_smoke`` and ``fault_smoke`` are their own experiments, and
#: the ``topology_placement`` smoke scenario (not the experiment of that
#: name) is ``churn_smoke``'s penalised-topology cells; its 1-CPU cells
#: were byte-identical to ``churn_smoke``'s, so only the 4-CPU ones run.
SCENARIOS = {
    "churn_smoke": "churn_smoke",
    "fault_smoke": "fault_smoke",
    "topology_placement": "churn_smoke",
}


def _matrix(experiment: str) -> list[str]:
    """The cell keys of a smoke experiment, in fingerprint-component
    order (the order the experiment runs them)."""
    keys = [
        f"{scheduler}/cpu{n_cpus}"
        for scheduler in GOLDEN_SCHEDULERS
        for n_cpus in GOLDEN_CPU_COUNTS
    ]
    if experiment == "churn_smoke":
        keys += [f"{scheduler}/cpu4/topology" for scheduler in GOLDEN_SCHEDULERS]
    return keys


def _scenario_cells(scheduler: str, scenario: str) -> dict[str, Callable]:
    """``{cell key: kernel builder}`` for one scheduler's cells of one
    scenario."""
    if scenario == "fault_smoke":
        return {
            f"{scheduler}/cpu{n}": lambda n=n: _build_fault(scheduler, n)[0]
            for n in GOLDEN_CPU_COUNTS
        }
    if scenario == "topology_placement":
        return {
            f"{scheduler}/cpu4/topology":
                lambda: _build_churn(scheduler, 4, topology=True)[0]
        }
    return {
        f"{scheduler}/cpu{n}": lambda n=n: _build_churn(scheduler, n)[0]
        for n in GOLDEN_CPU_COUNTS
    }


def verify_cells(scheduler: str, scenario: str) -> Optional[str]:
    """Re-run one scheduler's cells of one smoke scenario, each alone,
    against their components of the experiment's pinned fingerprint at
    every point; ``None`` when they conform."""
    experiment = SCENARIOS[scenario]
    keys = _matrix(experiment)
    pinned = {
        point: CORPUS["entries"][experiment][point]["dispatch_fingerprint"].split("+")
        for point in golden.POINTS
    }
    for key, build in _scenario_cells(scheduler, scenario).items():
        kernel = build()
        kernel.run_for(SMOKE_DURATION_US)
        fresh = dispatch_fingerprint(kernel)
        index = keys.index(key)
        for point, components in pinned.items():
            if len(components) != len(keys) or components[index] != fresh:
                return (
                    f"{experiment} [{point}]: cell {key} "
                    f"(fingerprint component {index}) diverged"
                )
    return None


CASES = [
    pytest.param(
        partial(golden.verify_entry, CORPUS, name, point), id=f"{name}-{point}"
    )
    for name, point in ENTRIES
] + [
    pytest.param(
        partial(verify_cells, scheduler, scenario), id=f"{scheduler}-{scenario}"
    )
    for scenario in SCENARIOS
    for scheduler in GOLDEN_SCHEDULERS
]


@pytest.mark.parametrize("verify", CASES)
def test_golden_traces_conform(verify):
    message = verify()
    assert message is None, (
        f"behaviour divergence (intentional? run "
        f"`python -m repro golden --regen`): {message}"
    )


def test_corpus_covers_every_registered_experiment():
    """Every registered experiment has a default and a quick entry, and
    no entry names an experiment or point that does not exist."""
    assert {name: sorted(points) for name, points in CORPUS["entries"].items()} == {
        name: sorted(golden.POINTS) for name in REGISTRY.names()
    }


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_corpus_is_committed_and_complete(scenario):
    """Each smoke scenario's experiment is registered and pinned at
    every point, with one SHA-256 component per matrix cell."""
    experiment = SCENARIOS[scenario]
    assert experiment in REGISTRY
    keys = _matrix(experiment)
    for point in golden.POINTS:
        entry = CORPUS["entries"][experiment][point]
        assert set(entry) == {"dispatch_fingerprint", "artifact_sha256"}
        components = entry["dispatch_fingerprint"].split("+")
        assert len(components) == len(keys), (point, len(components))
        for digest in components + [entry["artifact_sha256"]]:
            assert len(digest) == 64 and int(digest, 16) >= 0, (point, digest)


def test_unknown_scenario_rejected():
    """A name no experiment registered is refused before anything runs,
    and is reported missing from the corpus."""
    with pytest.raises(UnknownExperimentError, match="no experiment named 'nope'"):
        golden.run_entry("nope", "default")
    assert golden.verify_entry(CORPUS, "nope", "default") == (
        "nope [default]: missing from corpus "
        "(run `python -m repro golden --regen`)"
    )


@pytest.fixture(scope="module")
def churn_metrics() -> dict:
    return REGISTRY.run("churn_smoke").metrics


@pytest.fixture(scope="module")
def fault_metrics() -> dict:
    return REGISTRY.run("fault_smoke").metrics


def _cells(metrics: dict) -> dict[str, dict[str, float]]:
    """``{cell: {count: value}}`` from ``<cell>.<count>`` metric names."""
    cells: dict[str, dict[str, float]] = {}
    for key, value in metrics.items():
        cell, count = key.rsplit(".", 1)
        cells.setdefault(cell, {})[count] = value
    return cells


def test_corpus_cells_exercise_churn(churn_metrics):
    """Every churn_smoke cell spawns, completes and kills jobs: a cell
    that stopped churning would silently weaken the pinned fingerprint."""
    cells = _cells(churn_metrics)
    assert len(cells) == 15
    for key, counts in cells.items():
        assert counts["spawned"] > 0, key
        assert counts["completed"] > 0, key
        assert counts["killed"] > 0, key
        assert counts["dispatches"] > 0, key


def test_fault_corpus_cells_stay_busy(fault_metrics):
    """Every fault_smoke cell keeps spawning and completing work around
    the injected faults (the hijacked victims themselves never complete)."""
    cells = _cells(fault_metrics)
    assert len(cells) == 10
    for key, counts in cells.items():
        assert counts["spawned"] > 0, key
        assert counts["completed"] > 0, key
        assert counts["dispatches"] > 0, key


def test_fault_scenario_exercises_faults(fault_metrics):
    """The runaway and the stall, each with its restore, actuate in every
    cell, and the CPU failure and recovery only on 4 CPUs (the last CPU
    cannot fail): guard against the recipe degenerating into churn."""
    for key, counts in _cells(fault_metrics).items():
        assert counts["faults_hit"] == (6 if key.endswith("/cpu4") else 4), key


def test_verify_reports_divergence(monkeypatch):
    """Corrupted, bogus and missing entries are reported, not accepted.

    ``run_entry`` is stubbed to echo the committed entries, so this
    exercises only the diff and reporting logic, not 46 more runs.
    """
    monkeypatch.setattr(
        golden, "run_entry",
        lambda name, point: dict(CORPUS["entries"][name][point]),
    )
    broken = json.loads(json.dumps(CORPUS))
    entry = broken["entries"]["churn_smoke"]["default"]
    components = entry["dispatch_fingerprint"].split("+")
    components[3] = "0" * 64
    entry["dispatch_fingerprint"] = "+".join(components)
    broken["entries"]["figure8"]["quick"]["artifact_sha256"] = "0" * 64
    broken["entries"]["bogus"] = {"default": {}}
    broken["entries"]["figure6"]["huge"] = {}
    messages = golden.verify_corpus(broken)
    assert messages == [
        "churn_smoke [default]: diverged, dispatch fingerprint component 3 differs",
        "figure8 [quick]: diverged, artifact digest differs "
        "(dispatch fingerprint matches)",
        "bogus: corpus entry names no registered experiment",
        "figure6 [huge]: corpus entry names no known point",
    ]
    # A pinned fingerprint with a different number of components.
    entry["dispatch_fingerprint"] = "+".join(components[:3])
    assert golden.verify_entry(broken, "churn_smoke", "default") == (
        "churn_smoke [default]: diverged, dispatch fingerprint component 3 "
        "differs (3 components pinned, 15 now)"
    )
    # A missing entry is reported too.
    del broken["entries"]["figure8"]["quick"]
    assert golden.verify_entry(broken, "figure8", "quick") == (
        "figure8 [quick]: missing from corpus "
        "(run `python -m repro golden --regen`)"
    )


def test_load_corpus_rejects_wrong_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "bench", "schema_version": 2}))
    with pytest.raises(ValueError, match="not a golden corpus"):
        golden.load_corpus(str(path))
    path.write_text(
        json.dumps({"kind": "golden_corpus", "schema_version": 99})
    )
    with pytest.raises(ValueError, match="schema version"):
        golden.load_corpus(str(path))


def test_write_corpus_roundtrip(monkeypatch, tmp_path):
    """``--regen`` writes the committed file byte for byte.

    ``run_entry`` echoes the committed entries (the conform cases above
    already re-ran every experiment), so this pins the file layout:
    the entry order, the key order and the indentation.
    """
    monkeypatch.setattr(
        golden, "run_entry",
        lambda name, point: dict(CORPUS["entries"][name][point]),
    )
    path = tmp_path / "fresh.json"
    written = golden.write_corpus(str(path))
    assert golden.load_corpus(str(path)) == written == CORPUS
    assert path.read_text() == CORPUS_PATH.read_text()
