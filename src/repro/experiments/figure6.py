"""Figure 6 — controller responsiveness on an otherwise idle system.

"The producer generated rising pulses of various widths, doubling its
rate of production in bytes/cycle for a period of time before falling
back to the original rate. […] the allocation roughly follows the
square wave set by the production rate, and the fill level changes more
drastically the farther it is from 1/2.  The effect on fill level from
pulses with smaller width is smaller […] From our data, it takes the
controller roughly 1/3 of a second to respond to the doubling in
production rate."

The reproduction runs the pulse pipeline (producer with a fixed
reservation, consumer under real-rate control) through the paper's
rising/falling pulse schedule and reports:

* the producer's and consumer's progress rates over time (top graph of
  Figure 6),
* the queue fill level over time (bottom graph),
* the controller's response time to the widest rising pulse, and
* the tracking error between producer and consumer progress rates.
"""

# float-order: exact — the rate averages below are pinned artifact
# metrics; sums are left folds, never the builtin sum().

from __future__ import annotations

from typing import Optional

from repro.analysis.regression import fold_mean, fold_sum
from repro.analysis.response import step_response
from repro.analysis.results import ExperimentResult
from repro.analysis.series import mean_absolute_deviation, rate_from_cumulative
from repro.experiments.params import stamp_reproducibility
from repro.experiments.registry import Param, experiment
from repro.sim.clock import seconds
from repro.system import RealRateSystem, build_real_rate_system
from repro.workloads.pulse import PulseParameters, PulsePipeline, PulseSchedule

#: The paper's headline responsiveness number (seconds).
PAPER_RESPONSE_TIME_S = 1.0 / 3.0

#: Sampling period for the reported progress-rate series (microseconds).
RATE_SAMPLE_PERIOD_US = 200_000

#: Sampling period for the fill-level series (microseconds).
FILL_SAMPLE_PERIOD_US = 50_000


def pulse_schedule(params: PulseParameters, small: bool) -> PulseSchedule:
    """The paper's Figure 6 pulse schedule or, when ``small``, one
    shortened rising/falling pulse pair for quick-mode runs and tests."""
    base_rate = params.base_rate_bytes_per_cpu_us
    if not small:
        return PulseSchedule.paper_figure6(base_rate)
    return PulseSchedule.paper_figure6(
        base_rate,
        rising_widths_s=(1.5,),
        falling_widths_s=(1.5,),
        gap_s=1.5,
        start_s=2.0,
        tail_s=1.0,
    )


def _instrument(system: RealRateSystem, pipeline: PulsePipeline) -> None:
    tracer = system.kernel.tracer
    tracer.watch(f"alloc:{pipeline.consumer.name}")
    tracer.add_sampler(
        system.kernel.events, FILL_SAMPLE_PERIOD_US, "fill",
        lambda now: pipeline.queue.fill_level(),
    )
    tracer.add_sampler(
        system.kernel.events, RATE_SAMPLE_PERIOD_US, "put_bytes",
        lambda now: pipeline.queue.total_put_bytes,
    )
    tracer.add_sampler(
        system.kernel.events, RATE_SAMPLE_PERIOD_US, "get_bytes",
        lambda now: pipeline.queue.total_get_bytes,
    )


def _collect(
    system: RealRateSystem,
    pipeline: PulsePipeline,
    schedule: PulseSchedule,
    result: ExperimentResult,
) -> None:
    """Shared post-processing between Figures 6 and 7."""
    tracer = system.kernel.tracer

    put = tracer.series("put_bytes")
    get = tracer.series("get_bytes")
    producer_times, producer_rates = rate_from_cumulative(
        put.times_s(), put.values()
    )
    consumer_times, consumer_rates = rate_from_cumulative(
        get.times_s(), get.values()
    )
    fill = tracer.series("fill")
    alloc = tracer.series(f"alloc:{pipeline.consumer.name}")

    result.add_series("producer_rate_bytes_per_s", producer_times, producer_rates)
    result.add_series("consumer_rate_bytes_per_s", consumer_times, consumer_rates)
    result.add_series("queue_fill_level", fill.times_s(), fill.values())
    result.add_series("consumer_allocation_ppt", alloc.times_s(), alloc.values())

    # Response time of the consumer's allocation to the widest rising pulse.
    widest = max(
        (w for w in schedule.pulse_windows if w[2]),
        key=lambda w: w[1] - w[0],
    )
    response = step_response(
        alloc.times_s(),
        alloc.values(),
        widest[0] / 1_000_000,
        measure_window_s=min(2.5, (widest[1] - widest[0]) / 1_000_000),
    )
    result.metrics["response_time_s"] = (
        response.rise_time_s if response.rise_time_s is not None else float("inf")
    )
    result.metrics["response_overshoot"] = response.overshoot_fraction

    # Tracking: mean absolute difference between producer and consumer
    # progress rates after the initial fill of the queue.
    mismatches = [
        abs(p - c)
        for t, p, c in zip(producer_times, producer_rates, consumer_rates)
        if t > 2.0
    ]
    mean_rate = (
        fold_sum(r for t, r in zip(producer_times, producer_rates) if t > 2.0)
        / max(1, len(mismatches))
    )
    result.metrics["mean_rate_mismatch_bytes_per_s"] = (
        fold_mean(mismatches) if mismatches else 0.0
    )
    result.metrics["mean_producer_rate_bytes_per_s"] = mean_rate
    result.metrics["tracking_error_fraction"] = (
        result.metrics["mean_rate_mismatch_bytes_per_s"] / mean_rate
        if mean_rate > 0
        else 0.0
    )

    # Fill-level behaviour: deviation from the 1/2 set point, and the
    # per-pulse peak deviation (wider pulses push the fill further).
    steady_fill = [p.value for p in fill if p.time_s > 2.0]
    result.metrics["fill_mean_abs_deviation"] = mean_absolute_deviation(
        steady_fill, 0.5
    )
    rising = [w for w in schedule.pulse_windows if w[2]]
    for index, (start_us, end_us, _) in enumerate(rising):
        window = fill.window(start_us, end_us + 1_500_000)
        if window:
            peak = max(abs(p.value - 0.5) for p in window)
            result.metrics[f"fill_peak_deviation_pulse{index}"] = peak
    result.metrics["quality_exceptions"] = float(
        len(system.allocator.quality_exceptions)
    )


@experiment(
    name="figure6",
    description="Controller responsiveness on an otherwise idle system",
    tags=("figure", "responsiveness"),
    params=(
        Param(
            "small_schedule", kind="bool", default=False,
            help="use a single shortened rising/falling pulse pair",
        ),
        Param(
            "extra_seconds", kind="float", default=1.0, minimum=0.0,
            help="tail simulated past the end of the pulse schedule",
        ),
        Param("n_cpus", kind="int", default=1, minimum=1, maximum=64,
              help="CPUs in the simulated kernel"),
        Param("seed", kind="int", default=None, help="RNG seed (recorded; "
              "the pulse pipeline is fully deterministic)"),
    ),
    quick={"small_schedule": True},
)
def figure6_experiment(
    *,
    small_schedule: bool,
    extra_seconds: float,
    n_cpus: int,
    seed: Optional[int],
) -> ExperimentResult:
    """Reproduce Figure 6: the pulse pipeline on an otherwise idle system."""
    params = PulseParameters()
    schedule = pulse_schedule(params, small_schedule)
    system = build_real_rate_system(n_cpus=n_cpus, record_dispatches=True)
    pipeline = PulsePipeline.attach(system, schedule=schedule, params=params)
    _instrument(system, pipeline)
    system.run_for(schedule.end_us() + seconds(extra_seconds))

    result = ExperimentResult(
        experiment_id="figure6",
        title="Controller responsiveness (idle system)",
        paper_values={"response_time_s": PAPER_RESPONSE_TIME_S},
    )
    _collect(system, pipeline, schedule, result)
    stamp_reproducibility(result, system.kernel)
    result.notes.append(
        "byte rates depend on the simulated CPU's quantisation overrun and so "
        "differ in absolute value from the paper's; the reproduced claims are "
        "the square-wave tracking, the sub-second response time and the "
        "fill-level excursions growing with pulse width."
    )
    return result


__all__ = [
    "PAPER_RESPONSE_TIME_S",
    "figure6_experiment",
    "pulse_schedule",
    "_collect",
    "_instrument",
]
