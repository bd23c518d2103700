"""Experiment result records, serialization and text-table rendering.

Every experiment driver returns an :class:`ExperimentResult` carrying
the figure/table identifier, the headline metrics, the paper's reported
values for comparison, and the raw series needed to draw the figure.

Results round-trip through JSON (``to_dict``/``from_dict``/``to_json``/
``from_json``) so that sweep workers can return them across process
boundaries and so that ``python -m repro run --json`` can emit versioned
artifacts.  The wire format is schema-versioned
(:data:`RESULT_SCHEMA_VERSION`) and stamped with the package version.

``format_table`` renders a list of ``(label, paper, measured)`` rows as
a plain-text table for the examples and the CLI summaries; rows whose
paper value is absent render an em dash aligned with the numeric
column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro._version import __version__

#: Version of the ``ExperimentResult`` wire format.  Bump when the
#: shape of :meth:`ExperimentResult.to_dict` changes incompatibly.
RESULT_SCHEMA_VERSION = 1

#: Placeholder rendered when a row has no paper-reported value.
NO_PAPER_VALUE = "—"  # em dash


@dataclass
class ExperimentResult:
    """A reproduced experiment's outputs."""

    experiment_id: str
    title: str
    metrics: dict[str, float] = field(default_factory=dict)
    paper_values: dict[str, float] = field(default_factory=dict)
    series: dict[str, tuple[list[float], list[float]]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    def metric(self, name: str) -> float:
        """Look up a metric, with a clear error when missing."""
        if name not in self.metrics:
            raise KeyError(
                f"experiment {self.experiment_id!r} has no metric {name!r}; "
                f"available: {sorted(self.metrics)}"
            )
        return self.metrics[name]

    def add_series(self, name: str, times: Sequence[float], values: Sequence[float]) -> None:
        """Store a (times, values) series for later plotting/inspection."""
        self.series[name] = (list(times), list(values))

    def comparison_rows(self) -> list[tuple[str, Optional[float], float]]:
        """Rows of (metric, paper value or None, measured value)."""
        rows: list[tuple[str, Optional[float], float]] = []
        for name, measured in self.metrics.items():
            rows.append((name, self.paper_values.get(name), measured))
        return rows

    def summary(self) -> str:
        """Human-readable one-block summary."""
        lines = [f"[{self.experiment_id}] {self.title}"]
        lines.append(format_table(self.comparison_rows()))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The JSON-safe wire form of this result.

        Includes the schema version and the producing package version so
        artifacts on disk identify themselves.
        """
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "repro_version": __version__,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "metrics": dict(self.metrics),
            "paper_values": dict(self.paper_values),
            "series": {
                name: {"times": list(times), "values": list(values)}
                for name, (times, values) in self.series.items()
            },
            "notes": list(self.notes),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        schema = data.get("schema_version")
        if schema != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported result schema version {schema!r} "
                f"(this library reads version {RESULT_SCHEMA_VERSION})"
            )
        return cls(
            experiment_id=data["experiment_id"],
            title=data["title"],
            metrics=dict(data.get("metrics", {})),
            paper_values=dict(data.get("paper_values", {})),
            series={
                name: (list(entry["times"]), list(entry["values"]))
                for name, entry in data.get("series", {}).items()
            },
            notes=list(data.get("notes", [])),
            metadata=dict(data.get("metadata", {})),
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """Deterministic JSON text (sorted keys) for artifact files."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return NO_PAPER_VALUE
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    rows: Sequence[tuple[str, Optional[float], float]],
    headers: tuple[str, str, str] = ("metric", "paper", "measured"),
) -> str:
    """Render (label, paper, measured) rows as an aligned text table.

    The label column is left-justified; the two value columns are
    right-justified so numbers line up, and an absent paper value
    renders as an em dash in the same right-aligned column.
    """
    table_rows = [headers] + [
        (label, _format_value(paper), _format_value(measured))
        for label, paper, measured in rows
    ]
    widths = [max(len(str(row[col])) for row in table_rows) for col in range(3)]
    lines = []
    for i, row in enumerate(table_rows):
        cells = [
            str(cell).ljust(widths[col]) if col == 0 else str(cell).rjust(widths[col])
            for col, cell in enumerate(row)
        ]
        lines.append("  " + "  ".join(cells))
        if i == 0:
            lines.append("  " + "  ".join("-" * w for w in widths))
    return "\n".join(lines)


__all__ = [
    "ExperimentResult",
    "NO_PAPER_VALUE",
    "RESULT_SCHEMA_VERSION",
    "format_table",
]
