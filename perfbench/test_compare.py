"""``compare`` verdicts on synthetic run artifacts."""

import json
import subprocess
import sys

import pytest

from perfbench.harness import ARTIFACT_KIND, ROOT, compare_rows, load_spec

SPEC = load_spec()


def artifact(throughput, setup=(0.10,) * 9, rss=(50.0,) * 9, workload="w",
             quick=False, sim_us=1_000_000):
    return {
        "kind": ARTIFACT_KIND,
        "quick": quick,
        "workloads": {
            workload: {
                "sim_us": sim_us,
                "samples": {
                    "sim_us_per_ref_s": list(throughput),
                    "setup_s": list(setup),
                    "peak_rss_mib": list(rss),
                }
            }
        },
    }


def verdicts(base, new):
    return {r["metric"]: r["verdict"] for r in compare_rows(SPEC, base, new)}


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1]


@pytest.mark.parametrize(
    "scale, verdict",
    [(1.0, "within bound"), (0.95, "within bound"), (0.85, "worse"), (1.2, "better")],
)
def test_throughput_verdicts(scale, verdict):
    new = artifact([v * scale for v in STEADY])
    assert verdicts(artifact(STEADY), new)["sim_us_per_ref_s"] == verdict


def test_direction_follows_better():
    # Setup time is better lower: 30% more is worse, 30% less is better.
    base = artifact(STEADY)
    assert verdicts(base, artifact(STEADY, setup=(0.13,) * 9))["setup_s"] == "worse"
    assert verdicts(base, artifact(STEADY, setup=(0.07,) * 9))["setup_s"] == "better"


def test_noisy_side_is_unresolved():
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0, 100.0, 70.0, 130.0, 100.0]
    assert verdicts(artifact(STEADY), artifact(noisy))["sim_us_per_ref_s"] == "unresolved"


def compare_files(tmp_path, base, new):
    paths = tmp_path / "base.json", tmp_path / "new.json"
    for path, data in zip(paths, (base, new)):
        path.write_text(json.dumps(data))
    return subprocess.run(
        [sys.executable, "-m", "perfbench", "compare", *map(str, paths)],
        cwd=ROOT, capture_output=True, text=True,
    )


def test_missing_workload_and_cli_exit_codes(tmp_path):
    elsewhere = artifact(STEADY, workload="other")
    assert set(verdicts(artifact(STEADY), elsewhere).values()) == {"missing"}

    assert compare_files(tmp_path, artifact(STEADY), artifact(STEADY)).returncode == 0
    result = compare_files(tmp_path, artifact(STEADY), artifact([v * 0.5 for v in STEADY]))
    assert result.returncode == 1
    assert "worse" in result.stdout


@pytest.mark.parametrize("change", [{"quick": True}, {"sim_us": 2_000_000}])
def test_different_lengths_are_not_compared(tmp_path, change):
    result = compare_files(tmp_path, artifact(STEADY), artifact(STEADY, **change))
    assert result.returncode == 2
    assert "cannot compare" in result.stderr
    assert "verdict" not in result.stdout
