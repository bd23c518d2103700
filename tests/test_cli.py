"""Smoke tests for the ``python -m repro`` command line."""

import json

import pytest

from repro._version import __version__
from repro.analysis.results import RESULT_SCHEMA_VERSION, ExperimentResult
from repro.cli import main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "figure5", "figure6", "figure7", "figure8", "taxonomy",
            "inversion", "smp_scaling", "ablation_period", "ablation_pid",
            "ablation_squish",
        ):
            assert name in out

    def test_tag_filter(self, capsys):
        assert main(["list", "--tag", "ablation"]) == 0
        out = capsys.readouterr().out
        assert "ablation_pid" in out
        assert "figure5" not in out

    def test_unknown_tag_fails(self, capsys):
        assert main(["list", "--tag", "nonesuch"]) == 1


class TestDescribe:
    def test_describe_shows_schema(self, capsys):
        assert main(["describe", "smp_scaling"]) == 0
        out = capsys.readouterr().out
        assert "n_cpus" in out
        assert "quick" in out
        assert "seed" in out

    def test_describe_unknown_experiment(self, capsys):
        assert main(["describe", "nope"]) == 2
        assert "no experiment named" in capsys.readouterr().err


class TestRun:
    def test_run_quick_with_json_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "figure8.json"
        code = main([
            "run", "figure8", "--quick", "--param", "seed=1",
            "--param", "sim_seconds=0.2", "--json", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[figure8]" in out
        data = json.loads(out_path.read_text())
        assert data["schema_version"] == RESULT_SCHEMA_VERSION
        assert data["repro_version"] == __version__
        assert data["metadata"]["params"]["seed"] == 1
        assert data["metadata"]["quick"] is True
        # The artifact reconstructs into a full result object.
        result = ExperimentResult.from_dict(data)
        assert result.metric("knee_frequency_hz") > 0

    def test_json_dash_writes_stdout(self, capsys):
        code = main([
            "run", "figure8", "--quick", "--param", "sim_seconds=0.2",
            "--json", "-",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["experiment_id"] == "figure8"

    def test_bad_param_name_is_an_error(self, capsys):
        assert main(["run", "figure8", "--param", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_bad_param_value_is_an_error(self, capsys):
        assert main(["run", "figure8", "--param", "sim_seconds=fast"]) == 2
        assert "not a valid float" in capsys.readouterr().err

    def test_malformed_param_flag_is_an_error(self, capsys):
        assert main(["run", "figure8", "--param", "sim_seconds"]) == 2
        assert "name=value" in capsys.readouterr().err

    def test_n_cpus_on_a_uniprocessor_experiment_is_an_error(self, capsys):
        assert main(["run", "figure8", "--param", "n_cpus=2"]) == 2
        assert "n_cpus" in capsys.readouterr().err

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2

    @pytest.mark.parametrize(
        "experiment, param, repeated",
        [
            ("ablation_squish", "importances=1,1,4", "1.0"),
            ("smp_scaling", "n_cpus=1,1", "1"),
        ],
        ids=["ablation_squish", "smp_scaling"],
    )
    def test_repeated_list_element_is_an_error(
        self, capsys, experiment, param, repeated
    ):
        # Metric keys are built from the elements, so a repeat would
        # silently collapse two runs into one set of metrics.
        assert main(["run", experiment, "--quick", "--param", param]) == 2
        err = capsys.readouterr().err
        assert repr(param.split("=")[0]) in err
        assert f"{repeated} repeated" in err


class TestSweep:
    def test_sweep_requires_a_grid(self, capsys):
        assert main(["sweep", "figure8"]) == 2
        assert "at least one --param" in capsys.readouterr().err

    def test_small_serial_sweep(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        code = main([
            "sweep", "figure8", "--quick",
            "--param", "sim_seconds=0.1,0.2", "--json", str(out_path),
        ])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["kind"] == "sweep"
        assert data["experiment"] == "figure8"
        assert [p["params"]["sim_seconds"] for p in data["points"]] == [0.1, 0.2]
