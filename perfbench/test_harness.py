"""End to end through the command line, in fresh processes."""

import json
import shutil
import subprocess
import sys

from perfbench.harness import PACKAGE, ROOT, SPEC_PATH, load_spec


def perfbench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_quick_run_prints_every_metric_and_fails_nothing(tmp_path):
    out = tmp_path / "quick.json"
    result = perfbench("run", "--quick", "--trace", "--out", str(out))
    assert result.returncode == 0, result.stdout + result.stderr
    spec = load_spec()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["name"] in result.stdout, metric["name"]
    artifact = json.loads(out.read_text())
    assert set(artifact["workloads"]) == {w["name"] for w in spec["workloads"]}
    for entry in artifact["workloads"].values():
        assert entry["run_failure_ratio"] == 0


def test_measure_without_simulator_source_fails_without_result(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    result = perfbench("measure", "--workload", "rbs_overload", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
