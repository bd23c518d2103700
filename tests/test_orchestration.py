"""Tests for the crash-safe orchestration layer (repro.orchestration).

The contract under test: an interrupted, chaos-battered, retried sweep
must converge to an artifact **byte-identical** to an uninterrupted
serial run — and when it cannot (a genuinely nondeterministic point),
it must say so with an explicit FAILED row rather than a quietly
different artifact.
"""

import json

import pytest

import repro.experiments  # noqa: F401 — importing populates the registry
from repro.experiments.sweep import run_sweep, sweep_to_json
from repro.orchestration import (
    CRASH,
    FINGERPRINT_MISMATCH,
    ChaosError,
    ChaosPlan,
    JOURNAL_KIND,
    JOURNAL_SCHEMA_VERSION,
    Journal,
    JournalEntry,
    JournalError,
    OrchestrationError,
    OrchestrationInterrupted,
    load_journal,
    orchestrate_sweep,
    result_fingerprint,
    tear_journal_tail,
)
from repro.orchestration.runner import (
    MAX_RETRIES,
    MAX_WORKER_RESTARTS,
    TIMEOUT,
    should_retry,
)

#: One small, fast grid reused across the end-to-end tests (~8 ms/point).
GRID = {"sim_seconds": "0.1", "seed": "0,1,2,3"}


def serial_reference() -> str:
    return sweep_to_json(run_sweep("figure8", GRID, quick=True))


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.partial.jsonl")
        journal = Journal.create(path, fingerprint={"experiment": "x"})
        journal.record(
            JournalEntry(status="ok", key="k1", attempt=1,
                         fingerprint="f1", payload={"a": 1})
        )
        journal.record(
            JournalEntry(status="failed", key="k2", attempt=3,
                         error={"kind": CRASH, "detail": "boom", "attempts": 3})
        )
        journal.close()
        header, entries, _ = load_journal(path)
        assert header["run_kind"] == "sweep"
        assert header["fingerprint"] == {"experiment": "x"}
        assert entries["k1"].payload == {"a": 1}
        assert entries["k2"].status == "failed"
        assert entries["k2"].error["kind"] == CRASH

    def test_create_refuses_existing_journal(self, tmp_path):
        path = str(tmp_path / "run.partial.jsonl")
        Journal.create(path, fingerprint={}).close()
        with pytest.raises(JournalError, match="--resume"):
            Journal.create(path, fingerprint={})

    def test_later_entry_supersedes_earlier(self, tmp_path):
        path = str(tmp_path / "run.partial.jsonl")
        journal = Journal.create(path, fingerprint={})
        journal.record(
            JournalEntry(status="failed", key="k", attempt=1,
                         error={"kind": CRASH, "detail": "", "attempts": 1})
        )
        journal.record(
            JournalEntry(status="ok", key="k", attempt=2,
                         fingerprint="f", payload={"fixed": True})
        )
        journal.close()
        _, entries, _ = load_journal(path)
        assert entries["k"].status == "ok"

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "run.partial.jsonl")
        journal = Journal.create(path, fingerprint={})
        journal.record(
            JournalEntry(status="ok", key="k1", attempt=1,
                         fingerprint="f", payload={"a": 1})
        )
        journal.record(
            JournalEntry(status="ok", key="k2", attempt=1,
                         fingerprint="f", payload={"b": 2})
        )
        journal.close()
        removed = tear_journal_tail(path)
        assert removed > 0
        _, entries, _ = load_journal(path)
        assert set(entries) == {"k1"}  # only the torn tail is lost

    def test_corruption_mid_file_is_an_error(self, tmp_path):
        path = tmp_path / "run.partial.jsonl"
        journal = Journal.create(str(path), fingerprint={})
        journal.record(
            JournalEntry(status="ok", key="k1", attempt=1,
                         fingerprint="f", payload={"a": 1})
        )
        journal.close()
        lines = path.read_text().splitlines()
        lines.insert(1, "{definitely not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="mid-file"):
            load_journal(str(path))

    def test_resume_truncates_torn_tail_and_appends(self, tmp_path):
        path = str(tmp_path / "run.partial.jsonl")
        journal = Journal.create(path, fingerprint={})
        journal.record(
            JournalEntry(status="ok", key="k1", attempt=1,
                         fingerprint="f", payload={"a": 1})
        )
        journal.record(
            JournalEntry(status="ok", key="k2", attempt=1,
                         fingerprint="f", payload={"b": 2})
        )
        journal.close()
        tear_journal_tail(path)
        journal, entries = Journal.resume(path)
        assert set(entries) == {"k1"}
        journal.record(
            JournalEntry(status="ok", key="k3", attempt=1,
                         fingerprint="f", payload={"c": 3})
        )
        journal.close()
        _, entries, _ = load_journal(path)
        assert set(entries) == {"k1", "k3"}

    def test_resume_rejects_a_foreign_run_kind(self, tmp_path):
        path = tmp_path / "foreign.partial.jsonl"
        header = {
            "kind": JOURNAL_KIND,
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "run_kind": "bench",
            "fingerprint": {},
        }
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(JournalError, match="belongs to a 'bench' run"):
            Journal.resume(str(path))


class TestResultFingerprint:
    def test_ignores_key_order(self):
        a = {"metrics": {"x": 1.0, "y": 2.0}, "metadata": {"m": 1}}
        b = {"metadata": {"m": 1}, "metrics": {"y": 2.0, "x": 1.0}}
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_covers_only_semantic_payload(self):
        base = {"metrics": {"x": 1.0}, "metadata": {}, "experiment_id": "e1"}
        stripped = {"metrics": {"x": 1.0}, "metadata": {}}
        perturbed = {"metrics": {"x": 1.5}, "metadata": {}}
        assert result_fingerprint(base) == result_fingerprint(stripped)
        assert result_fingerprint(base) != result_fingerprint(perturbed)


# ----------------------------------------------------------------------
# chaos plan
# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_parse_grammar(self):
        plan = ChaosPlan.parse("kill=1:3,hang=5,abort=4")
        assert plan.modes == {1: "kill", 3: "kill", 5: "hang"}
        assert plan.abort_after == 4

    def test_parse_rejects_unknown_modes_and_bad_indices(self):
        with pytest.raises(ChaosError):
            ChaosPlan.parse("explode=1")
        with pytest.raises(ChaosError):
            ChaosPlan.parse("kill=one")
        with pytest.raises(ChaosError):
            ChaosPlan.parse("kill")

    def test_faults_only_trigger_on_early_attempts(self):
        plan = ChaosPlan.parse("raise=0", trigger_attempts=1)
        with pytest.raises(ChaosError):
            plan.strike_pre(0, 1)
        plan.strike_pre(0, 2)  # retry attempt: no injection
        plan.strike_pre(1, 1)  # other point: no injection

    def test_corrupt_vs_nondet_fingerprints(self):
        payload = {"metrics": {"x": 1.0}, "metadata": {}, "experiment_id": "e"}
        corrupt = ChaosPlan.parse("corrupt=0").corrupt_payload(0, 1, payload)
        nondet = ChaosPlan.parse("nondet=0").corrupt_payload(0, 1, payload)
        assert "experiment_id" not in corrupt
        # corrupt keeps the semantic fingerprint -> retry can be verified
        assert result_fingerprint(corrupt) == result_fingerprint(payload)
        # nondet perturbs the metrics -> retry mismatch is detectable
        assert result_fingerprint(nondet) != result_fingerprint(payload)


# ----------------------------------------------------------------------
# retry decision
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_terminal_kinds_never_retry(self):
        assert should_retry(CRASH, 1)
        assert should_retry(TIMEOUT, MAX_RETRIES)
        assert not should_retry(CRASH, MAX_RETRIES + 1)
        assert not should_retry(FINGERPRINT_MISMATCH, 1)


# ----------------------------------------------------------------------
# end-to-end orchestration
# ----------------------------------------------------------------------
class TestOrchestrateSweep:
    def test_parallel_orchestration_byte_identical_to_serial(self, tmp_path):
        report = orchestrate_sweep(
            "figure8", GRID, quick=True, jobs=2,
            journal_path=str(tmp_path / "run.partial.jsonl"),
        )
        assert report.failed == []
        assert sweep_to_json(report.artifact) == serial_reference()

    def test_recovers_from_kill_raise_and_corrupt(self, tmp_path):
        report = orchestrate_sweep(
            "figure8", GRID, quick=True, jobs=2,
            journal_path=str(tmp_path / "run.partial.jsonl"),
            chaos=ChaosPlan.parse("kill=1,raise=2,corrupt=3"),
        )
        assert report.failed == []
        attempts = {o.index: o.attempts for o in report.outcomes}
        assert attempts[1] > 1 and attempts[2] > 1 and attempts[3] > 1
        assert sweep_to_json(report.artifact) == serial_reference()

    def test_abort_then_resume_is_byte_identical(self, tmp_path):
        journal_path = str(tmp_path / "run.partial.jsonl")
        with pytest.raises(OrchestrationInterrupted) as info:
            orchestrate_sweep(
                "figure8", GRID, quick=True,
                journal_path=journal_path,
                chaos=ChaosPlan.parse("abort=2"),
            )
        assert info.value.completed == 2
        assert info.value.total == 4
        report = orchestrate_sweep(journal_path=journal_path, resume=True)
        assert report.resumed == 2
        assert report.executed == 2
        assert sweep_to_json(report.artifact) == serial_reference()

    def test_resume_after_torn_tail_is_byte_identical(self, tmp_path):
        journal_path = str(tmp_path / "run.partial.jsonl")
        with pytest.raises(OrchestrationInterrupted):
            orchestrate_sweep(
                "figure8", GRID, quick=True,
                journal_path=journal_path,
                chaos=ChaosPlan.parse("abort=3"),
            )
        assert tear_journal_tail(journal_path) > 0
        report = orchestrate_sweep(journal_path=journal_path, resume=True)
        assert report.resumed == 2  # the torn third point re-runs
        assert sweep_to_json(report.artifact) == serial_reference()

    def test_nondeterministic_point_becomes_failed_row(self, tmp_path):
        report = orchestrate_sweep(
            "figure8", GRID, quick=True,
            journal_path=str(tmp_path / "run.partial.jsonl"),
            chaos=ChaosPlan.parse("nondet=0"),
        )
        assert [o.index for o in report.failed] == [0]
        error = report.failed[0].error
        assert error["kind"] == FINGERPRINT_MISMATCH
        # Terminal: the corrupted first attempt and the mismatching
        # second end the point, with retries to spare.
        assert error["attempts"] == 2
        point = report.artifact["points"][0]
        assert point["result"] is None
        assert point["error"]["kind"] == FINGERPRINT_MISMATCH
        # the healthy points are still byte-for-byte the serial ones
        reference = json.loads(serial_reference())
        assert report.artifact["points"][1:] == reference["points"][1:]

    def test_exhausted_retries_become_failed_row(self, tmp_path):
        report = orchestrate_sweep(
            "figure8", GRID, quick=True,
            journal_path=str(tmp_path / "run.partial.jsonl"),
            chaos=ChaosPlan(modes={0: "raise"}, trigger_attempts=99),
        )
        assert [o.index for o in report.failed] == [0]
        error = report.failed[0].error
        assert error["kind"] == CRASH
        assert error["attempts"] == MAX_RETRIES + 1

    def test_retry_failed_reruns_failed_rows(self, tmp_path):
        journal_path = str(tmp_path / "run.partial.jsonl")
        orchestrate_sweep(
            "figure8", GRID, quick=True,
            journal_path=journal_path,
            chaos=ChaosPlan(modes={0: "raise"}, trigger_attempts=99),
        )
        # without --retry-failed the FAILED row is kept as-is
        report = orchestrate_sweep(journal_path=journal_path, resume=True)
        assert [o.index for o in report.failed] == [0]
        assert report.executed == 0
        # with it, the point re-runs (chaos gone) and the sweep heals
        report = orchestrate_sweep(
            journal_path=journal_path, resume=True, retry_failed=True
        )
        assert report.failed == []
        assert sweep_to_json(report.artifact) == serial_reference()

    def test_timeout_kills_hung_worker_and_retries(self, tmp_path):
        report = orchestrate_sweep(
            "figure8", GRID, quick=True,
            journal_path=str(tmp_path / "run.partial.jsonl"),
            timeout_s=1.0,
            chaos=ChaosPlan.parse("hang=1"),
        )
        assert report.failed == []
        timed_out = [o for o in report.outcomes if o.index == 1]
        assert timed_out[0].attempts > 1
        assert sweep_to_json(report.artifact) == serial_reference()

    def test_pool_degrades_but_finishes_after_repeated_deaths(self, tmp_path):
        # Four kills, one past the respawn budget of three.
        assert MAX_WORKER_RESTARTS == 3
        events = []
        report = orchestrate_sweep(
            "figure8", GRID, quick=True, jobs=2,
            journal_path=str(tmp_path / "run.partial.jsonl"),
            chaos=ChaosPlan.parse("kill=0:1:2:3"),
            on_event=events.append,
        )
        assert report.failed == []
        assert any("degrading pool" in event for event in events)
        assert sweep_to_json(report.artifact) == serial_reference()

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        journal_path = str(tmp_path / "run.partial.jsonl")
        orchestrate_sweep(
            "figure8", GRID, quick=True, journal_path=journal_path
        )
        with pytest.raises(JournalError, match="--resume"):
            orchestrate_sweep(
                "figure8", GRID, quick=True, journal_path=journal_path
            )

    def test_rejects_nonsense_configuration(self, tmp_path):
        journal_path = tmp_path / "run.partial.jsonl"
        with pytest.raises(OrchestrationError, match="jobs"):
            orchestrate_sweep(
                "figure8", GRID, quick=True, jobs=0,
                journal_path=str(journal_path),
            )
        for timeout_s in (0.0, -1.0):
            with pytest.raises(OrchestrationError, match="timeout"):
                orchestrate_sweep(
                    "figure8", GRID, quick=True, timeout_s=timeout_s,
                    journal_path=str(journal_path),
                )
        assert not journal_path.exists()
