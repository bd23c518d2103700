"""Latency-vs-offered-load response curves.

Classic queueing methodology the paper never plots: sweep the offered
arrival rate across a range, run the identical open-system workload at
each level, and watch the sojourn percentiles walk up the hockey
stick.  Each sweep level is a *fresh* deterministic system (same seed,
same templates), so neighbouring points differ only in the Poisson
rate — the curve is a property of the scheduler, not of carried-over
state.  The knee (max distance from the chord of the p99 curve) marks
where the machine stops absorbing load and the tail takes off.

Three workload shapes cover the taxonomy's interesting corners:
``batch`` (pure compute under the controller), ``io`` (compute
interleaved with simulated I/O), and ``rt`` (per-arrival admission of
real-time reservations — past the knee this one *rejects* rather than
queues, which is the paper's philosophy showing up as a flat curve
with a falling admit ratio).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.results import ExperimentResult
from repro.analysis.sojourn import (
    ResponseCurvePoint,
    response_curve_series,
    sojourn_stats,
)
from repro.analysis.series import find_knee
from repro.core.taxonomy import ThreadSpec
from repro.experiments.params import stamp_reproducibility
from repro.experiments.registry import Param, experiment
from repro.sim.clock import seconds
from repro.sim.kernel import Kernel
from repro.system import build_real_rate_system
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.engine import JobTemplate, WorkloadEngine

#: Default sweep levels (arrivals per second).
DEFAULT_RATES = (20.0, 40.0, 80.0, 120.0, 160.0, 240.0)


def _make_template(workload: str, job_cpu_us: int) -> JobTemplate:
    """The per-arrival job shape for one sweep workload."""
    if workload == "batch":
        return JobTemplate(
            "batch",
            total_cpu_us=job_cpu_us,
            burst_us=1_500,
            think_us=0,
            spec=ThreadSpec(),
        )
    if workload == "io":
        return JobTemplate(
            "io",
            total_cpu_us=job_cpu_us,
            burst_us=1_000,
            think_us=0,
            io_latency_us=1_200,
            spec=ThreadSpec(),
        )
    if workload == "rt":
        return JobTemplate(
            "rt",
            total_cpu_us=job_cpu_us,
            burst_us=800,
            think_us=500,
            spec=ThreadSpec(proportion_ppt=80, period_us=10_000),
        )
    raise ValueError(f"unknown workload {workload!r}")


def _run_level(
    *,
    rate_per_s: float,
    workload: str,
    n_cpus: int,
    job_cpu_us: int,
    duration_s: float,
    seed: Optional[int],
) -> tuple[ResponseCurvePoint, float, Kernel]:
    """One sweep level; returns (curve point, admit ratio, kernel)."""
    system = build_real_rate_system(
        n_cpus=n_cpus, record_dispatches=True
    )
    churn = WorkloadEngine(system.kernel, allocator=system.allocator)
    template = _make_template(workload, job_cpu_us)
    stream = churn.add_stream(
        "sweep", PoissonArrivals(rate_per_s, seed=seed or 0), template
    )
    churn.start()
    system.run_for(seconds(duration_s))

    records = [record.to_dict() for record in stream.records]
    stats = sojourn_stats(records, tag=template.name)
    arrivals_total = stream.spawned + stream.rejected
    admit_ratio = stream.spawned / arrivals_total if arrivals_total else 0.0
    point = ResponseCurvePoint(offered_per_s=rate_per_s, stats=stats)
    return point, admit_ratio, system.kernel


@experiment(
    name="response_curve",
    description="Sojourn-percentile response curve over an offered-load sweep",
    tags=("churn", "slo", "sweep"),
    params=(
        Param("rates", kind="float_list", default=DEFAULT_RATES, minimum=0.1,
              help="offered arrival rates to sweep (jobs/s)"),
        Param("workload", kind="str", default="batch",
              choices=("batch", "io", "rt"),
              help="per-arrival job shape (rt adds admission control)"),
        Param("n_cpus", kind="int", default=1, minimum=1, maximum=64),
        Param("job_cpu_us", kind="int", default=3_000, minimum=1),
        Param("duration_s", kind="float", default=1.5, minimum=0.05,
              help="simulated seconds per sweep level"),
        Param("seed", kind="int", default=41),
    ),
    quick={"duration_s": 0.4, "rates": (30.0, 90.0, 180.0)},
)
def response_curve_experiment(
    *,
    rates: Sequence[float],
    workload: str,
    n_cpus: int,
    job_cpu_us: int,
    duration_s: float,
    seed: Optional[int],
) -> ExperimentResult:
    """Sweep the arrival rate; report percentile latency vs offered load.

    Every level runs a fresh system from the same seed, so the points
    are independently reproducible and the whole sweep carries one
    composite dispatch fingerprint (the per-level fingerprints joined
    in sweep order).
    """
    levels = sorted(float(rate) for rate in rates)
    points: list[ResponseCurvePoint] = []
    admit_ratios: list[float] = []
    kernels: list[Kernel] = []
    for rate in levels:
        point, admit_ratio, kernel = _run_level(
            rate_per_s=rate,
            workload=workload,
            n_cpus=n_cpus,
            job_cpu_us=job_cpu_us,
            duration_s=duration_s,
            seed=seed,
        )
        points.append(point)
        admit_ratios.append(admit_ratio)
        kernels.append(kernel)

    result = ExperimentResult(
        experiment_id="response_curve",
        title=f"Latency response curve ({workload} jobs, {n_cpus} CPU)",
    )
    point_dicts = [point.to_dict() for point in points]
    xs, p99_ms = response_curve_series(point_dicts, field="p99_us")
    _, p50_ms = response_curve_series(point_dicts, field="p50_us")
    if xs:
        result.add_series("p99_sojourn_ms", xs, p99_ms)
        result.add_series("p50_sojourn_ms", xs, p50_ms)
        result.metrics["max_p99_sojourn_ms"] = max(p99_ms)
    if len(xs) >= 3:
        knee = find_knee(xs, p99_ms)
        result.metrics["knee_offered_per_s"] = knee
    result.add_series("admit_ratio", levels, admit_ratios)
    result.metrics["levels"] = float(len(levels))
    completed_total = sum(point.stats.completed for point in points)
    result.metrics["jobs_completed_total"] = float(completed_total)

    result.metadata["response_curve"] = point_dicts
    result.metadata["workload"] = workload
    stamp_reproducibility(result, *kernels)
    result.notes.append(
        "each sweep level is a fresh system with the same seed, so points "
        "differ only in offered rate; knee = max distance from the chord of "
        "the p99 curve (saturation onset)."
    )
    return result


__all__ = ["DEFAULT_RATES", "response_curve_experiment"]
