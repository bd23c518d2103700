"""Serialization and table-rendering tests for ExperimentResult."""

import json

import pytest

from repro._version import __version__
from repro.analysis.results import (
    NO_PAPER_VALUE,
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
    format_table,
)


def full_result() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="demo",
        title="a demo result",
        metrics={"a": 1.0, "b": 2.5},
        paper_values={"a": 1.1},
        notes=["first note", "second note"],
        metadata={"experiment": "demo", "params": {"seed": 3, "xs": [1, 2]}},
    )
    result.add_series("curve", [0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
    return result


class TestRoundTrip:
    def test_dict_round_trip_is_equal(self):
        result = full_result()
        assert ExperimentResult.from_dict(result.to_dict()) == result

    def test_json_round_trip_is_equal(self):
        result = full_result()
        assert ExperimentResult.from_json(result.to_json()) == result

    def test_series_survive_with_values(self):
        restored = ExperimentResult.from_json(full_result().to_json())
        assert restored.series["curve"] == ([0.0, 1.0, 2.0], [5.0, 6.0, 7.0])

    def test_artifact_is_stamped_with_versions(self):
        data = full_result().to_dict()
        assert data["schema_version"] == RESULT_SCHEMA_VERSION
        assert data["repro_version"] == __version__
        # The journal re-reads this form: bump RESULT_SCHEMA_VERSION when these key sets change.
        assert set(data) == {
            "experiment_id", "metadata", "metrics", "notes", "paper_values",
            "repro_version", "schema_version", "series", "title",
        }
        assert set(data["series"]["curve"]) == {"times", "values"}

    def test_to_json_is_deterministic(self):
        result = full_result()
        assert result.to_json() == result.to_json()
        # Keys are sorted so artifacts diff cleanly.
        data = json.loads(result.to_json())
        assert list(data) == sorted(data)

    def test_unsupported_schema_version_rejected(self):
        data = full_result().to_dict()
        data["schema_version"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            ExperimentResult.from_dict(data)

    def test_missing_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema version"):
            ExperimentResult.from_dict({"experiment_id": "x", "title": "t"})


class TestFormatTableAbsentPaperValues:
    def test_absent_paper_value_renders_em_dash(self):
        table = format_table([("m", None, 0.5)])
        assert NO_PAPER_VALUE in table
        assert "None" not in table

    def test_em_dash_aligns_with_numeric_column(self):
        table = format_table(
            [("long_metric_name", 0.125, 2.0), ("m2", None, 0.5)]
        )
        lines = table.splitlines()
        value_row = next(line for line in lines if "0.125" in line)
        dash_row = next(line for line in lines if NO_PAPER_VALUE in line)
        # Values are right-justified, so the dash ends in the same
        # column as the numeric paper value above it.
        paper_value_end = value_row.index("0.125") + len("0.125") - 1
        assert dash_row.index(NO_PAPER_VALUE) == paper_value_end

    def test_mixed_rows_keep_column_count(self):
        table = format_table([("a", 1.0, 2.0), ("b", None, 3.0)])
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows

    def test_summary_uses_em_dash_for_unmatched_metrics(self):
        result = ExperimentResult(
            "x", "t", metrics={"a": 1.0, "b": 2.0}, paper_values={"a": 1.0}
        )
        summary = result.summary()
        assert NO_PAPER_VALUE in summary
