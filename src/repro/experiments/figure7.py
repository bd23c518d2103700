"""Figure 7 — controller response under competing load.

"This figure shows the same pipeline run concurrently with a CPU hog.
Since the total desired allocation exceeds the capacity of the CPU, the
controller must squish the load and consumer threads.  It cannot squish
the producer since the producer has specified a fixed reservation."

The reproduction adds a miscellaneous CPU hog to the Figure 6 pipeline
and reports, in addition to the Figure 6 series, the hog's and the
producer's allocations, the total allocation (which must stay at or
below the overload threshold), and the anti-correlation between the
consumer's and the hog's allocations (the "high frequency oscillation
in allocation between the load and the consumer" the paper describes).
"""

# float-order: exact — the consumer/hog correlation is a pinned artifact
# metric; its sums are left folds, never the builtin sum().

from __future__ import annotations

from typing import Optional

from repro.analysis.regression import centered_moments
from repro.analysis.results import ExperimentResult
from repro.experiments.figure6 import _collect, _instrument, pulse_schedule
from repro.experiments.params import stamp_reproducibility
from repro.experiments.registry import Param, experiment
from repro.sim.clock import seconds
from repro.system import build_real_rate_system
from repro.workloads.cpu_hog import CpuHog
from repro.workloads.pulse import PulseParameters, PulsePipeline


def _correlation(xs: list[float], ys: list[float]) -> float:
    """Pearson correlation coefficient (0.0 when degenerate)."""
    n = min(len(xs), len(ys))
    if n < 2:
        return 0.0
    _mean_x, _mean_y, sxx, syy, sxy = centered_moments(xs[:n], ys[:n])
    if sxx == 0 or syy == 0:
        return 0.0
    return sxy / (sxx * syy) ** 0.5


@experiment(
    name="figure7",
    description="Controller response under load (pulse pipeline + CPU hog)",
    tags=("figure", "responsiveness", "overload"),
    params=(
        Param(
            "small_schedule", kind="bool", default=False,
            help="use a single shortened rising/falling pulse pair",
        ),
        Param("hog_importance", kind="float", default=1.0, minimum=0.0,
              help="importance weight of the competing hog"),
        Param(
            "extra_seconds", kind="float", default=1.0, minimum=0.0,
            help="tail simulated past the end of the pulse schedule",
        ),
        Param("n_cpus", kind="int", default=1, minimum=1, maximum=64,
              help="CPUs in the simulated kernel"),
        Param("seed", kind="int", default=None,
              help="seeds the hog's burst-length jitter"),
    ),
    quick={"small_schedule": True},
)
def figure7_experiment(
    *,
    small_schedule: bool,
    hog_importance: float,
    extra_seconds: float,
    n_cpus: int,
    seed: Optional[int],
) -> ExperimentResult:
    """Reproduce Figure 7: the pulse pipeline with a competing CPU hog."""
    params = PulseParameters()
    schedule = pulse_schedule(params, small_schedule)
    system = build_real_rate_system(n_cpus=n_cpus, record_dispatches=True)
    pipeline = PulsePipeline.attach(system, schedule=schedule, params=params)
    hog = CpuHog.attach(system, importance=hog_importance, seed=seed)
    _instrument(system, pipeline)
    tracer = system.kernel.tracer
    hog_alloc = tracer.watch(f"alloc:{hog.thread.name}")
    producer_alloc = tracer.watch(f"alloc:{pipeline.producer.name}")
    system.run_for(schedule.end_us() + seconds(extra_seconds))

    result = ExperimentResult(
        experiment_id="figure7",
        title="Controller response under load (pulse pipeline + CPU hog)",
    )
    _collect(system, pipeline, schedule, result)

    consumer_alloc = tracer.series(f"alloc:{pipeline.consumer.name}")
    result.add_series(
        "hog_allocation_ppt", hog_alloc.times_s(), hog_alloc.values()
    )
    result.add_series(
        "producer_allocation_ppt", producer_alloc.times_s(), producer_alloc.values()
    )

    threshold = system.allocator.config.overload_threshold_ppt
    n = min(len(consumer_alloc), len(hog_alloc), len(producer_alloc))
    totals = [
        consumer_alloc[i].value + hog_alloc[i].value + producer_alloc[i].value
        for i in range(n)
    ]
    result.metrics["max_total_allocation_ppt"] = max(totals) if totals else 0.0
    result.metrics["overload_threshold_ppt"] = float(threshold)
    result.metrics["producer_allocation_min_ppt"] = (
        min(producer_alloc.values()) if len(producer_alloc) else 0.0
    )
    result.metrics["producer_allocation_max_ppt"] = (
        max(producer_alloc.values()) if len(producer_alloc) else 0.0
    )
    result.metrics["hog_cpu_fraction"] = (
        hog.thread.accounting.total_us / system.now if system.now else 0.0
    )
    result.metrics["consumer_cpu_fraction"] = (
        pipeline.consumer.accounting.total_us / system.now if system.now else 0.0
    )
    result.metrics["consumer_hog_allocation_correlation"] = _correlation(
        consumer_alloc.values()[: n], hog_alloc.values()[: n]
    )
    stamp_reproducibility(result, system.kernel)
    result.notes.append(
        "the hog's allocation mirrors the consumer's (strongly negative "
        "correlation): when the producer speeds up, the consumer's growing "
        "pressure takes allocation away from the constant-pressure hog, which "
        "is the behaviour Figure 7 illustrates."
    )
    return result


__all__ = ["figure7_experiment"]
