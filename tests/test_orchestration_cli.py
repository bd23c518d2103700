"""CLI-level behaviour of crash-safe sweeps.

Covers the exit-code contract (0 clean, 1 FAILED rows, 2 usage,
130 interrupted), journal lifecycle (created beside the artifact,
deleted only after full success), the resume flow, and — via a real
subprocess — Ctrl-C: SIGINT must flush the journal, print the resume
command, and exit 130, and the resumed run must produce an artifact
byte-identical to an uninterrupted serial one.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import EXIT_INTERRUPTED, main
from repro.experiments.sweep import run_sweep, sweep_to_json

REPO_SRC = Path(__file__).parent.parent / "src"

#: Small fast grid for in-process CLI tests (~8 ms/point).
FAST = ["--quick", "--param", "sim_seconds=0.1", "--param", "seed=0,1,2,3"]


def fast_reference() -> str:
    artifact = run_sweep(
        "figure8", {"sim_seconds": "0.1", "seed": "0,1,2,3"}, quick=True
    )
    return sweep_to_json(artifact) + "\n"


class TestSweepCli:
    def test_journal_deleted_after_full_success(self, tmp_path, capsys):
        out = tmp_path / "f8.json"
        assert main(["sweep", "figure8", *FAST, "--json", str(out)]) == 0
        assert out.read_text() == fast_reference()
        assert not (tmp_path / "f8.partial.jsonl").exists()

    def test_resume_forbids_experiment_and_params(self, tmp_path, capsys):
        code = main(
            ["sweep", "figure8", "--resume", str(tmp_path / "j.partial.jsonl")]
        )
        assert code == 2
        assert "journal header" in capsys.readouterr().err

    def test_resume_forbids_quick(self, tmp_path, capsys):
        # --quick is pinned by the journal header like the grid; taking
        # it on resume would write an artifact the header contradicts.
        out = tmp_path / "f8.json"
        journal = tmp_path / "f8.partial.jsonl"
        args = ["sweep", "figure8", *FAST, "--json", str(out)]
        assert main([*args, "--chaos", "abort=2"]) == EXIT_INTERRUPTED
        capsys.readouterr()
        code = main(
            ["sweep", "--resume", str(journal), "--quick", "--json", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--quick" in err
        assert journal.exists()
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, word",
        [("--timeout", "0", "timeout"), ("--timeout", "-1", "timeout"),
         ("--jobs", "0", "jobs")],
        ids=["timeout-zero", "timeout-negative", "jobs-zero"],
    )
    def test_bad_pool_settings_are_usage_errors(
        self, tmp_path, capsys, flag, value, word
    ):
        out = tmp_path / "f8.json"
        code = main(
            ["sweep", "figure8", *FAST, "--json", str(out), flag, value]
        )
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert word in lines[0]
        assert captured.out == ""
        assert not (tmp_path / "f8.partial.jsonl").exists()

    @pytest.mark.parametrize(
        "extra, word",
        [(["--retry-failed"], "--resume"),
         (["--param", "seed=0,0"], "repeated")],
        ids=["retry-failed-without-resume", "repeated-axis-value"],
    )
    def test_sweep_usage_errors_print_one_line(
        self, tmp_path, capsys, extra, word
    ):
        out = tmp_path / "f8.json"
        code = main(["sweep", "figure8", "--quick", "--param", "sim_seconds=0.1",
                     *extra, "--json", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert word in lines[0]
        assert captured.out == ""
        assert not out.exists()
        assert not (tmp_path / "f8.partial.jsonl").exists()

    def test_existing_journal_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "f8.json"
        args = ["sweep", "figure8", *FAST, "--json", str(out)]
        assert main([*args, "--chaos", "abort=2"]) == EXIT_INTERRUPTED
        assert main(args) == 2
        assert "--resume" in capsys.readouterr().err

    def test_chaos_abort_exits_130_then_resume_heals(self, tmp_path, capsys):
        out = tmp_path / "f8.json"
        journal = tmp_path / "f8.partial.jsonl"
        code = main(
            ["sweep", "figure8", *FAST, "--json", str(out), "--chaos", "abort=2"]
        )
        assert code == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert f"--resume {journal}" in err
        assert journal.exists()
        assert not out.exists()

        assert main(["sweep", "--resume", str(journal), "--json", str(out)]) == 0
        assert out.read_text() == fast_reference()
        assert not journal.exists()  # success deletes the journal

    def test_failed_points_exit_1_and_keep_journal(self, tmp_path, capsys):
        out = tmp_path / "f8.json"
        journal = tmp_path / "f8.partial.jsonl"
        code = main([
            "sweep", "figure8", *FAST, "--json", str(out),
            "--chaos", "nondet=0",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "--retry-failed" in captured.err
        assert journal.exists()
        data = json.loads(out.read_text())
        assert data["points"][0]["result"] is None
        assert (
            data["points"][0]["error"]["kind"] == "fingerprint-mismatch-on-retry"
        )
        # --retry-failed re-runs the failed point; without chaos it heals
        code = main([
            "sweep", "--resume", str(journal), "--retry-failed",
            "--json", str(out),
        ])
        assert code == 0
        assert out.read_text() == fast_reference()

    def test_bad_chaos_spec_is_a_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "figure8", *FAST, "--chaos", "explode=1"])
        assert code == 2
        assert "unknown chaos mode" in capsys.readouterr().err


class TestSweepSigint:
    def test_sigint_flushes_journal_and_resume_is_byte_identical(
        self, tmp_path
    ):
        """The acceptance test: interrupt a real `python -m repro sweep`
        subprocess with SIGINT mid-run, then resume to a byte-identical
        artifact."""
        out = tmp_path / "f8.json"
        journal = tmp_path / "f8.partial.jsonl"
        grid = {"sim_seconds": "2", "seed": ",".join(str(s) for s in range(10))}
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "sweep", "figure8", "--quick",
                "--param", f"sim_seconds={grid['sim_seconds']}",
                "--param", f"seed={grid['seed']}",
                "--jobs", "1", "--json", str(out),
            ],
            env=env,
            cwd=tmp_path,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if journal.exists() and journal.read_bytes().count(b"\n") >= 2:
                    break  # header + at least one settled point
                if proc.poll() is not None:
                    pytest.fail(
                        f"sweep finished before it could be interrupted: "
                        f"{proc.communicate()}"
                    )
                time.sleep(0.01)
            else:
                pytest.fail("journal never accumulated a settled point")
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        assert proc.returncode == EXIT_INTERRUPTED, stderr
        assert "interrupted" in stderr
        assert f"--resume {journal}" in stderr
        assert journal.exists()
        assert not out.exists()

        # resume in-process and compare bytes against the serial run
        assert main(["sweep", "--resume", str(journal), "--json", str(out)]) == 0
        reference = sweep_to_json(run_sweep("figure8", grid, quick=True)) + "\n"
        assert out.read_text() == reference
        assert not journal.exists()
