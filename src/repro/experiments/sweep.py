"""Parameter-grid sweeps.

A sweep takes one registered experiment and a grid of parameter values
(``{"n_cpus": "1,2,4", "seed": "0,1,2"}``), expands the cartesian
product into points, runs every point and merges the per-point results
into one schema-versioned artifact.

:func:`run_sweep` runs the points one after another in this process.
It is the reference that the journaled, multi-process
:func:`~repro.orchestration.runner.orchestrate_sweep` (the CLI's
``repro sweep``) is held byte-identical to: results are merged as
:meth:`~repro.analysis.results.ExperimentResult.to_dict` dictionaries in
deterministic grid order and serialized with sorted keys, and the
simulation itself is deterministic, so workers only change *where* a
point runs, never its inputs.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional, Sequence

from repro._version import __version__
from repro.experiments.registry import (
    REGISTRY,
    ExperimentSpec,
    ParameterError,
    _jsonable,
)

#: Version of the merged sweep-artifact wire format.
SWEEP_SCHEMA_VERSION = 1


def expand_grid(
    spec: ExperimentSpec, grid: Mapping[str, Any]
) -> tuple[dict[str, list[Any]], list[dict[str, Any]]]:
    """Expand a raw grid into (parsed axes, cartesian product points).

    Each grid value may be a CLI string — split on ``","`` into sweep
    values, each parsed by the parameter's schema (so a list-typed
    parameter uses ``":"`` inside one value: ``n_cpus=1:2:4,8`` is two
    points) — or an already-typed sequence of sweep values.

    A value repeated on one axis (after parsing, so ``seed=0,00`` is
    a repeat) raises :class:`ParameterError`: it would run the same
    point twice under one point key.

    Points are emitted in deterministic order: the last-listed axis
    varies fastest, like nested loops in the order the axes were given.
    """
    axes: dict[str, list[Any]] = {}
    for name, raw in grid.items():
        param = spec.param(name)
        if isinstance(raw, str):
            tokens = [t for t in raw.split(",") if t.strip()]
            if not tokens:
                raise ParameterError(
                    f"parameter {name!r}: no sweep values in {raw!r}"
                )
            axes[name] = [param.parse(token) for token in tokens]
        elif isinstance(raw, Sequence):
            axes[name] = [param.parse(value) for value in raw]
        else:
            axes[name] = [param.parse(raw)]
        values = axes[name]
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ParameterError(
                f"parameter {name!r}: {repeated[0]!r} repeated in sweep "
                f"axis {tuple(values)}"
            )

    points: list[dict[str, Any]] = [{}]
    for name, values in axes.items():
        points = [
            {**point, name: value} for point in points for value in values
        ]
    return axes, points


def run_point(name: str, params: Mapping[str, Any], quick: bool) -> dict[str, Any]:
    """Worker entry: run one grid point, return its result's wire form.

    :func:`run_sweep` and the orchestration workers both call it.  It is
    top-level, so it pickles, and importing this module populates the
    registry (it lives in :mod:`repro.experiments`), so it works under
    both the ``fork`` and ``spawn`` start methods.
    """
    return REGISTRY.run(name, params, quick=quick).to_dict()


def run_sweep(
    name: str, grid: Mapping[str, Any], *, quick: bool = False
) -> dict[str, Any]:
    """Run every grid point in this process; return the merged artifact."""
    spec = REGISTRY.get(name)
    axes, points = expand_grid(spec, grid)
    results = [run_point(name, point, quick) for point in points]
    return build_sweep_artifact(name, axes, points, results, quick=quick)


def build_sweep_artifact(
    name: str,
    axes: Mapping[str, Sequence[Any]],
    points: Sequence[Mapping[str, Any]],
    results: "Sequence[Optional[dict[str, Any]]]",
    *,
    quick: bool = False,
    errors: Optional[Mapping[int, dict[str, Any]]] = None,
) -> dict[str, Any]:
    """Merge per-point result dicts into the sweep artifact structure.

    Shared by the in-process :func:`run_sweep` path and the journaled
    orchestration runner so both produce byte-identical artifacts for
    the same grid.  A point that permanently failed carries ``result:
    None`` plus an ``error`` object from ``errors`` (keyed by point
    index); all-success artifacts are byte-for-byte unchanged from the
    pre-orchestration format.
    """
    merged: list[dict[str, Any]] = []
    for index, (point, rd) in enumerate(zip(points, results)):
        entry: dict[str, Any] = {
            "params": {k: _jsonable(v) for k, v in point.items()},
            "result": rd,
        }
        if errors is not None and index in errors:
            entry["error"] = errors[index]
        merged.append(entry)
    return {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "repro_version": __version__,
        "kind": "sweep",
        "experiment": name,
        "quick": quick,
        "grid": {
            axis: [_jsonable(value) for value in values]
            for axis, values in axes.items()
        },
        "points": merged,
    }


def sweep_to_json(artifact: Mapping[str, Any], *, indent: Optional[int] = 2) -> str:
    """Deterministic JSON text for a merged sweep artifact."""
    return json.dumps(artifact, sort_keys=True, indent=indent)


__all__ = [
    "SWEEP_SCHEMA_VERSION",
    "build_sweep_artifact",
    "expand_grid",
    "run_point",
    "run_sweep",
    "sweep_to_json",
]
