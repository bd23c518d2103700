"""Analysis utilities.

Turn the tracer's raw ``(time, value)`` series into the quantities the
paper reports: linear fits with R² (Figure 5), progress rates from
cumulative byte counters and step-response times (Figure 6), overhead
fractions and knee locations (Figure 8), plus small helpers for
rendering results as text tables and ASCII sparklines so the examples
can show the figures' shapes without a plotting dependency.
"""

from repro.analysis.regression import LinearFit, linear_fit
from repro.analysis.report import (
    ReportError,
    load_report_artifact,
    render_report,
)
from repro.analysis.response import StepResponse, step_response
from repro.analysis.results import ExperimentResult, format_table
from repro.analysis.series import (
    find_knee,
    mean_absolute_deviation,
    rate_from_cumulative,
    sparkline,
)
from repro.analysis.sojourn import (
    SLO_PERCENTILES,
    ResponseCurvePoint,
    SojournStats,
    exact_rank_percentile,
    response_curve_series,
    sojourn_stats,
    sojourn_stats_by_tag,
)

__all__ = [
    "ExperimentResult",
    "LinearFit",
    "ReportError",
    "ResponseCurvePoint",
    "SLO_PERCENTILES",
    "SojournStats",
    "StepResponse",
    "exact_rank_percentile",
    "find_knee",
    "format_table",
    "linear_fit",
    "load_report_artifact",
    "mean_absolute_deviation",
    "rate_from_cumulative",
    "render_report",
    "response_curve_series",
    "sojourn_stats",
    "sojourn_stats_by_tag",
    "sparkline",
    "step_response",
]
