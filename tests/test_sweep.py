"""Tests for grid expansion and the serial sweep runner."""

import pytest

import repro.experiments  # noqa: F401 — importing populates the registry
from repro.analysis.results import ExperimentResult
from repro.experiments.registry import REGISTRY, ParameterError
from repro.experiments.sweep import (
    SWEEP_SCHEMA_VERSION,
    expand_grid,
    run_sweep,
    sweep_to_json,
)

#: A deliberately tiny smp_scaling configuration so sweep tests stay fast.
SMALL_FARM = {
    "n_servers": "2",
    "requests_per_second": "60",
    "duration_s": "0.4",
}


class TestExpandGrid:
    def test_cartesian_product_last_axis_fastest(self):
        spec = REGISTRY.get("figure8")
        axes, points = expand_grid(
            spec, {"sim_seconds": "0.1,0.2", "seed": "1,2"}
        )
        assert axes == {"sim_seconds": [0.1, 0.2], "seed": [1, 2]}
        assert points == [
            {"sim_seconds": 0.1, "seed": 1},
            {"sim_seconds": 0.1, "seed": 2},
            {"sim_seconds": 0.2, "seed": 1},
            {"sim_seconds": 0.2, "seed": 2},
        ]

    def test_colon_builds_list_valued_points(self):
        spec = REGISTRY.get("smp_scaling")
        axes, points = expand_grid(spec, {"n_cpus": "1:2,4"})
        assert points == [{"n_cpus": (1, 2)}, {"n_cpus": (4,)}]

    def test_values_validated_against_schema(self):
        spec = REGISTRY.get("smp_scaling")
        with pytest.raises(ParameterError):
            expand_grid(spec, {"n_cpus": "0,2"})
        with pytest.raises(ParameterError):
            expand_grid(spec, {"bogus": "1"})

    @pytest.mark.parametrize(
        "name, axis, grid",
        [("figure8", "seed", {"seed": "0,1,0"}),
         ("figure8", "seed", {"seed": "0,00"}),
         ("figure8", "sim_seconds", {"sim_seconds": [0.1, 0.10]}),
         ("smp_scaling", "n_cpus", {"n_cpus": "1:2,4,1:2"})],
        ids=["int", "same-after-parsing", "typed-float", "list-valued"],
    )
    def test_repeated_axis_value_rejected(self, name, axis, grid):
        # A repeated value would run one point twice under one point key.
        with pytest.raises(ParameterError, match=f"{axis}.*repeated"):
            expand_grid(REGISTRY.get(name), grid)

    def test_typed_sequences_accepted(self):
        spec = REGISTRY.get("figure8")
        _, points = expand_grid(spec, {"sim_seconds": [0.1, 0.2]})
        assert points == [{"sim_seconds": 0.1}, {"sim_seconds": 0.2}]


class TestRunSweep:
    def test_artifact_shape_and_result_round_trip(self):
        artifact = run_sweep("smp_scaling", {"n_cpus": "1,2", **SMALL_FARM})
        assert artifact["schema_version"] == SWEEP_SCHEMA_VERSION
        assert artifact["experiment"] == "smp_scaling"
        assert artifact["kind"] == "sweep"
        assert artifact["grid"]["n_cpus"] == [[1], [2]]
        assert len(artifact["points"]) == 2
        for point in artifact["points"]:
            result = ExperimentResult.from_dict(point["result"])
            assert result.experiment_id == "smp_scaling"
            assert result.metadata["params"]["n_servers"] == 2

    def test_seed_axis_is_meaningful(self):
        """Different seeds jitter arrivals and therefore change the
        measured behaviour — sweeping seeds is not a no-op.  The farm
        is saturated (2 servers × 400 req/s × 1.5 ms ≈ 1.2 CPUs of
        demand on one CPU) so arrival timing shows up in the outcome."""
        grid = {
            "n_cpus": "1", "seed": "0,1", "n_servers": "2",
            "requests_per_second": "400", "duration_s": "0.5",
        }
        artifact = run_sweep("smp_scaling", grid)
        first, second = [point["result"] for point in artifact["points"]]
        assert first["metadata"]["seed"] == 0
        assert second["metadata"]["seed"] == 1
        assert first["metrics"] != second["metrics"]

    def test_same_seed_is_reproducible(self):
        grid = {"n_cpus": "1", "seed": "7", **SMALL_FARM}
        first = run_sweep("smp_scaling", grid)
        second = run_sweep("smp_scaling", grid)
        assert sweep_to_json(first) == sweep_to_json(second)
