"""Tail-latency analysis of job-completion records.

The paper's feedback controller targets proportion error; production
systems are judged on *tail latency* — p99 sojourn under offered load.
The workload engine records one :class:`~repro.workloads.engine.JobRecord`
per job that leaves the system; this module turns those records into
the SLO quantities: **exact-rank** p50/p95/p99/p99.9 sojourn
percentiles per tag, and latency-vs-offered-load response-curve points
(sweep the arrival rate until the knee).

Exact rank, not interpolation: with ``n`` sorted samples the ``p``-th
percentile is the ``ceil(p/100 * n)``-th order statistic — an actual
observed latency, never a value between two samples.  Interpolated
percentiles understate the tail exactly where SLOs look, and exact
rank keeps every figure bit-reproducible across platforms (no float
blending of integer microsecond samples).

Everything here consumes the *wire form* of a record (the dict written
by ``JobRecord.to_dict``), so the same functions serve live
``WorkloadEngine`` objects and result-JSON artifacts read back by
``python -m repro report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

#: The percentiles every SLO table reports, in order.
SLO_PERCENTILES = (50.0, 95.0, 99.0, 99.9)

#: Keys used for the percentile fields of :meth:`SojournStats.to_dict`.
_PERCENTILE_KEYS = ("p50_us", "p95_us", "p99_us", "p999_us")


def exact_rank_percentile(sorted_values: Sequence[float], percent: float) -> float:
    """The exact-rank (nearest-rank) ``percent``-th percentile.

    ``sorted_values`` must be sorted ascending and non-empty.  The
    result is always one of the input samples: the
    ``ceil(percent/100 * n)``-th smallest (the standard nearest-rank
    definition, so p100 is the maximum and p0 clamps to the minimum).
    """
    if not sorted_values:
        raise ValueError("cannot take a percentile of an empty sample set")
    if not 0 <= percent <= 100:
        raise ValueError(f"percent must be in [0, 100], got {percent}")
    rank = math.ceil(percent / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


@dataclass(frozen=True)
class SojournStats:
    """Exact-rank sojourn summary of one tag's completed jobs.

    Counts cover every outcome seen for the tag; the latency fields
    summarize only the ``completed`` records (killed jobs never
    finished, rejected arrivals never ran).  When ``completed == 0``
    the latency fields are ``None`` — deliberately distinguishable
    from a true zero-latency tag.
    """

    tag: str
    completed: int
    killed: int
    rejected: int
    mean_us: Optional[float]
    min_us: Optional[int]
    max_us: Optional[int]
    p50_us: Optional[int]
    p95_us: Optional[int]
    p99_us: Optional[int]
    p999_us: Optional[int]

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (stored in result metadata, read by reports)."""
        return {
            "tag": self.tag,
            "completed": self.completed,
            "killed": self.killed,
            "rejected": self.rejected,
            "mean_us": self.mean_us,
            "min_us": self.min_us,
            "max_us": self.max_us,
            "p50_us": self.p50_us,
            "p95_us": self.p95_us,
            "p99_us": self.p99_us,
            "p999_us": self.p999_us,
        }


def sojourn_stats(
    records: Sequence[Mapping[str, Any]], tag: str = "all"
) -> SojournStats:
    """Summarize record dicts (``JobRecord.to_dict`` form) as one tag."""
    completed = [r for r in records if r["outcome"] == "completed"]
    killed = sum(1 for r in records if r["outcome"] == "killed")
    rejected = sum(1 for r in records if r["outcome"] == "rejected")
    if not completed:
        return SojournStats(
            tag=tag, completed=0, killed=killed, rejected=rejected,
            mean_us=None, min_us=None, max_us=None,
            p50_us=None, p95_us=None, p99_us=None, p999_us=None,
        )
    sojourns = sorted(int(r["sojourn_us"]) for r in completed)
    percentiles = {
        key: exact_rank_percentile(sojourns, percent)
        for key, percent in zip(_PERCENTILE_KEYS, SLO_PERCENTILES)
    }
    return SojournStats(
        tag=tag,
        completed=len(sojourns),
        killed=killed,
        rejected=rejected,
        mean_us=sum(sojourns) / len(sojourns),
        min_us=sojourns[0],
        max_us=sojourns[-1],
        **percentiles,
    )


def sojourn_stats_by_tag(
    records: Sequence[Mapping[str, Any]],
) -> dict[str, SojournStats]:
    """Per-tag exact-rank summaries, plus an ``"all"`` aggregate.

    Tags are emitted in sorted order with the cross-tag aggregate
    first, so tables render deterministically.
    """
    by_tag: dict[str, list[Mapping[str, Any]]] = {}
    for record in records:
        by_tag.setdefault(str(record["tag"]), []).append(record)
    out: dict[str, SojournStats] = {}
    if records:
        out["all"] = sojourn_stats(records, tag="all")
    for tag in sorted(by_tag):
        out[tag] = sojourn_stats(by_tag[tag], tag=tag)
    return out


@dataclass(frozen=True)
class ResponseCurvePoint:
    """One offered-load level of a latency-response sweep."""

    offered_per_s: float
    stats: SojournStats

    def to_dict(self) -> dict[str, Any]:
        return {"offered_per_s": self.offered_per_s, **self.stats.to_dict()}


def response_curve_series(
    points: Sequence[Mapping[str, Any]], field: str = "p99_us"
) -> tuple[list[float], list[float]]:
    """``(offered rates, latency ms)`` from response-curve point dicts.

    Points whose ``field`` is ``None`` (no completions at that load —
    the far side of saturation) are skipped, so the series stays
    plottable and knee-findable.
    """
    rates: list[float] = []
    values: list[float] = []
    for point in points:
        value = point.get(field)
        if value is None:
            continue
        rates.append(float(point["offered_per_s"]))
        values.append(float(value) / 1_000.0)
    return rates, values


__all__ = [
    "ResponseCurvePoint",
    "SLO_PERCENTILES",
    "SojournStats",
    "exact_rank_percentile",
    "response_curve_series",
    "sojourn_stats",
    "sojourn_stats_by_tag",
]
