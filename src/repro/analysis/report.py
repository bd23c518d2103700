"""Markdown report rendering for result-JSON artifacts.

``python -m repro report artifact.json`` turns the schema-versioned
JSON written by ``run --json`` / ``sweep --json`` into a human-readable
markdown report: the metrics table, per-tag exact-rank sojourn
percentiles, the latency-vs-offered-load response curve (with its knee
and a unicode sparkline "plot"), the SLO-vs-PID controller comparison,
and sparklines of every recorded time series.

Everything is rendered from the artifact alone — no simulation state —
so a report is reproducible from a file checked in years ago, and a
fixed seed produces byte-identical markdown (sections and rows are
emitted in deterministic order, numbers through one fixed formatter).
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional, Sequence

from repro.analysis.series import find_knee, sparkline
from repro.analysis.sojourn import response_curve_series

#: Placeholder for absent values (no completions, no paper figure).
_ABSENT = "—"

#: Width of sparkline "plots" in rendered reports.
_SPARK_WIDTH = 48


class ReportError(Exception):
    """An artifact that cannot be rendered (bad file, unknown shape)."""


def _fmt(value: Any) -> str:
    """One deterministic number format for every report cell."""
    if value is None:
        return _ABSENT
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def _fmt_us_as_ms(value: Optional[float]) -> str:
    """Microsecond latency cell rendered in milliseconds."""
    if value is None:
        return _ABSENT
    return _fmt(float(value) / 1_000.0)


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    """A GitHub-markdown table as a list of lines."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _metrics_section(data: Mapping[str, Any]) -> list[str]:
    metrics = data.get("metrics") or {}
    if not metrics:
        return []
    paper = data.get("paper_values") or {}
    lines = ["## Metrics", ""]
    if paper:
        rows = [
            [name, _fmt(paper.get(name)), _fmt(metrics[name])]
            for name in sorted(metrics)
        ]
        lines += _table(("metric", "paper", "measured"), rows)
    else:
        rows = [[name, _fmt(metrics[name])] for name in sorted(metrics)]
        lines += _table(("metric", "value"), rows)
    return lines + [""]


_PERCENTILE_HEADERS = (
    "tag", "completed", "killed", "rejected",
    "mean ms", "p50 ms", "p95 ms", "p99 ms", "p99.9 ms",
)


def _percentile_row(stats: Mapping[str, Any]) -> list[str]:
    return [
        str(stats["tag"]),
        _fmt(stats["completed"]),
        _fmt(stats["killed"]),
        _fmt(stats["rejected"]),
        _fmt_us_as_ms(stats.get("mean_us")),
        _fmt_us_as_ms(stats.get("p50_us")),
        _fmt_us_as_ms(stats.get("p95_us")),
        _fmt_us_as_ms(stats.get("p99_us")),
        _fmt_us_as_ms(stats.get("p999_us")),
    ]


def _sojourn_section(metadata: Mapping[str, Any]) -> list[str]:
    percentiles = metadata.get("sojourn_percentiles")
    if not percentiles:
        return []
    # The "all" aggregate leads; tags follow in sorted order.
    tags = sorted(tag for tag in percentiles if tag != "all")
    ordered = (["all"] if "all" in percentiles else []) + tags
    rows = [_percentile_row(percentiles[tag]) for tag in ordered]
    return (
        ["## Sojourn percentiles by tag", "",
         "Exact-rank (nearest-rank) percentiles over completed jobs; "
         "killed and rejected jobs are counted but never contribute a "
         "latency sample.", ""]
        + _table(_PERCENTILE_HEADERS, rows)
        + [""]
    )


def _response_curve_section(metadata: Mapping[str, Any]) -> list[str]:
    points = metadata.get("response_curve")
    if not points:
        return []
    headers = ("offered/s", "completed", "rejected",
               "p50 ms", "p95 ms", "p99 ms", "p99.9 ms")
    rows = [
        [
            _fmt(point["offered_per_s"]),
            _fmt(point["completed"]),
            _fmt(point["rejected"]),
            _fmt_us_as_ms(point.get("p50_us")),
            _fmt_us_as_ms(point.get("p95_us")),
            _fmt_us_as_ms(point.get("p99_us")),
            _fmt_us_as_ms(point.get("p999_us")),
        ]
        for point in points
    ]
    lines = ["## Response curve", ""] + _table(headers, rows) + [""]
    xs, p99_ms = response_curve_series(points, field="p99_us")
    if len(xs) >= 3:
        knee = find_knee(xs, p99_ms)
        lines.append(f"Knee of the p99 curve: **{_fmt(knee)} jobs/s** "
                     f"(max distance from chord).")
        lines.append("")
    if p99_ms:
        lines.append(f"p99 vs load: `{sparkline(p99_ms, _SPARK_WIDTH)}`")
        lines.append("")
    return lines


_CONTROLLER_ROWS = (
    ("completed jobs", "completed", _fmt),
    ("rejected arrivals", "rejected", _fmt),
    ("admit ratio", "admit_ratio", _fmt),
    ("deadline misses", "deadline_misses", _fmt),
    ("final per-job ppt", "final_job_ppt", _fmt),
    ("SLO adjustments", "slo_adjustments", _fmt),
    ("SLO violation ticks", "slo_violation_ticks", _fmt),
)


def _controllers_section(metadata: Mapping[str, Any]) -> list[str]:
    controllers = metadata.get("controllers")
    if not controllers:
        return []
    names = sorted(controllers)
    lines = ["## Controller comparison", "",
             "Same workload, same seed; the passes differ only in the "
             "controller stack.", ""]
    rows = []
    for label, key, fmt in _CONTROLLER_ROWS:
        values = [controllers[name].get(key) for name in names]
        if all(value is None for value in values):
            continue
        rows.append([label] + [fmt(value) for value in values])
    for stat_key, stat_label in (
        ("mean_us", "mean sojourn ms"),
        ("p50_us", "p50 sojourn ms"),
        ("p95_us", "p95 sojourn ms"),
        ("p99_us", "p99 sojourn ms"),
        ("p999_us", "p99.9 sojourn ms"),
    ):
        rows.append(
            [stat_label]
            + [
                _fmt_us_as_ms((controllers[name].get("stats") or {}).get(stat_key))
                for name in names
            ]
        )
    lines += _table(["measure"] + names, rows)
    lines.append("")
    fingerprints = {
        name: controllers[name].get("dispatch_fingerprint") for name in names
    }
    if all(fingerprints.values()):
        for name in names:
            lines.append(f"- `{name}` dispatch fingerprint: "
                         f"`{fingerprints[name]}`")
        lines.append("")
    return lines


def _series_section(data: Mapping[str, Any]) -> list[str]:
    series = data.get("series") or {}
    if not series:
        return []
    lines = ["## Series", ""]
    for name in sorted(series):
        entry = series[name]
        values = entry["values"] if isinstance(entry, Mapping) else entry[1]
        if not values:
            continue
        lines.append(
            f"- `{name}` ({len(values)} samples, "
            f"min {_fmt(min(values))}, max {_fmt(max(values))}): "
            f"`{sparkline(values, _SPARK_WIDTH)}`"
        )
    lines.append("")
    return lines


def _notes_section(data: Mapping[str, Any]) -> list[str]:
    notes = data.get("notes") or []
    if not notes:
        return []
    return ["## Notes", ""] + [f"- {note}" for note in notes] + [""]


def _meta_lines(data: Mapping[str, Any]) -> list[str]:
    metadata = data.get("metadata") or {}
    lines = []
    for label, value in (
        ("experiment", data.get("experiment_id")),
        ("schema version", data.get("schema_version")),
        ("repro version", data.get("repro_version")),
        ("seed", metadata.get("seed")),
    ):
        if value is not None:
            lines.append(f"- {label}: `{value}`")
    fingerprint = metadata.get("dispatch_fingerprint")
    if fingerprint:
        lines.append(f"- dispatch fingerprint: `{fingerprint}`")
    return lines


def render_result_report(data: Mapping[str, Any]) -> str:
    """Render one experiment result dict (``ExperimentResult.to_dict``)."""
    if "experiment_id" not in data:
        raise ReportError(
            "not an experiment result artifact (no 'experiment_id'); "
            "expected the JSON written by `python -m repro run --json`"
        )
    lines = [f"# {data.get('title') or data['experiment_id']}", ""]
    lines += _meta_lines(data)
    lines.append("")
    lines += _metrics_section(data)
    lines += _sojourn_section(data.get("metadata") or {})
    lines += _response_curve_section(data.get("metadata") or {})
    lines += _controllers_section(data.get("metadata") or {})
    lines += _series_section(data)
    lines += _notes_section(data)
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


def render_sweep_report(artifact: Mapping[str, Any]) -> str:
    """Render a merged sweep artifact (``sweep --json``) point by point."""
    points = artifact.get("points") or []
    grid = artifact.get("grid") or {}
    lines = [f"# Sweep: {artifact.get('experiment', '?')}", ""]
    lines.append(f"- points: `{len(points)}`")
    for axis in sorted(grid):
        values = ", ".join(_fmt(v) for v in grid[axis])
        lines.append(f"- axis `{axis}`: {values}")
    lines.append("")
    for point in points:
        params = ", ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(point["params"].items())
        )
        lines.append(f"---")
        lines.append("")
        lines.append(f"## Point: {params}")
        lines.append("")
        body = render_result_report(point["result"])
        # Demote the point report's headings one level under the point.
        for body_line in body.splitlines():
            if body_line.startswith("#"):
                body_line = "#" + body_line
            lines.append(body_line)
        lines.append("")
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


def render_report(artifact: Mapping[str, Any]) -> str:
    """Render any supported artifact (single result or sweep)."""
    if not isinstance(artifact, Mapping):
        raise ReportError(
            f"artifact must be a JSON object, got {type(artifact).__name__}"
        )
    if artifact.get("kind") == "sweep" or "points" in artifact:
        return render_sweep_report(artifact)
    return render_result_report(artifact)


def load_report_artifact(path: str) -> dict[str, Any]:
    """Read an artifact file (``'-'`` reads stdin) with clear errors."""
    import sys

    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as handle:
                text = handle.read()
    except OSError as error:
        raise ReportError(f"cannot read artifact {path!r}: {error}") from error
    try:
        artifact = json.loads(text)
    except json.JSONDecodeError as error:
        raise ReportError(
            f"artifact {path!r} is not valid JSON: {error}"
        ) from error
    if not isinstance(artifact, dict):
        raise ReportError(
            f"artifact {path!r} must contain a JSON object, "
            f"got {type(artifact).__name__}"
        )
    return artifact


__all__ = [
    "ReportError",
    "load_report_artifact",
    "render_report",
    "render_result_report",
    "render_sweep_report",
]
