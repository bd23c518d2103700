"""Open-system churn scenarios.

Five experiments drive the :class:`~repro.workloads.engine.WorkloadEngine`
through production-shaped traffic — jobs arriving, changing their needs
and exiting while the feedback controller adapts:

* ``churn_webfarm`` — a persistent web farm sharing the machine with a
  Poisson stream of short-lived batch jobs (arrival-driven spawn and
  reclaim-on-exit under the controller);
* ``tidal_pipeline`` — I/O-staged jobs whose arrival rate follows a
  phase-scripted tide (rate retiming of a live arrival process);
* ``thundering_herd`` — waves of simultaneous arrivals from a replayed
  trace (run-queue and placement stress at the spike);
* ``flash_crowd_rt`` — real-time jobs with per-arrival admission
  control facing a 10x flash crowd (admission-on-arrival, capacity
  reclaimed the instant a job exits);
* ``trace_replay`` — a tagged arrival trace (built-in sample or
  ``trace_file=...``) mixing web, batch and real-time job classes.

Every scenario stamps its dispatch fingerprint (the SHA-256 of the
full dispatch log), so any two runs can be diffed bit-for-bit.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.results import ExperimentResult
from repro.analysis.sojourn import sojourn_stats_by_tag
from repro.core.taxonomy import ThreadSpec
from repro.experiments.params import stamp_reproducibility
from repro.experiments.registry import Param, experiment
from repro.sim.clock import seconds
from repro.system import RealRateSystem, build_real_rate_system
from repro.workloads.arrivals import PoissonArrivals, TraceArrivals
from repro.workloads.engine import (
    JobTemplate,
    PhaseScript,
    WorkloadEngine,
)
from repro.workloads.webfarm import WebFarm

#: Sampling period for the live-thread-count trace series.
_LIVE_SAMPLE_US = 10_000


def _sample_live(system: RealRateSystem, engine: WorkloadEngine) -> None:
    """Trace the number of live churn jobs every 10 ms."""
    system.kernel.tracer.add_sampler(
        system.kernel.events,
        _LIVE_SAMPLE_US,
        "churn:live",
        lambda now: float(engine.live_total()),
    )


def _churn_metrics(
    result: ExperimentResult, system: RealRateSystem, engine: WorkloadEngine
) -> None:
    """Fold the engine's churn bookkeeping into the result.

    Alongside the counts, the per-job completion records are stamped
    into ``metadata["job_records"]`` (the wire form ``python -m repro
    report`` reads) and summarized as exact-rank sojourn percentiles
    per tag in ``metadata["sojourn_percentiles"]``; the headline
    percentiles also land in ``metrics``.  Latency metrics are only
    emitted when at least one job completed — a run with no
    completions has *no* sojourn figures, not zero-latency ones.
    """
    result.metrics["jobs_spawned"] = float(engine.spawned_total())
    result.metrics["jobs_completed"] = float(engine.completed_total())
    result.metrics["jobs_rejected"] = float(engine.rejected_total())
    result.metrics["jobs_killed"] = float(engine.killed_total())
    result.metrics["jobs_live_at_end"] = float(engine.live_total())
    records = [record.to_dict() for record in engine.records()]
    stats = sojourn_stats_by_tag(records)
    overall = stats.get("all")
    if overall is not None and overall.completed > 0:
        result.metrics["mean_sojourn_ms"] = overall.mean_us / 1_000.0
        result.metrics["sojourn_p50_ms"] = overall.p50_us / 1_000.0
        result.metrics["sojourn_p95_ms"] = overall.p95_us / 1_000.0
        result.metrics["sojourn_p99_ms"] = overall.p99_us / 1_000.0
        result.metrics["sojourn_p999_ms"] = overall.p999_us / 1_000.0
    result.metadata["job_records"] = records
    result.metadata["sojourn_percentiles"] = {
        tag: tag_stats.to_dict() for tag, tag_stats in stats.items()
    }
    live = system.kernel.tracer.series("churn:live")
    if len(live):
        result.metrics["peak_live_jobs"] = max(live.values())
        result.add_series("live_jobs", live.times_s(), live.values())
    stamp_reproducibility(result, system.kernel)


# ----------------------------------------------------------------------
# churn_webfarm
# ----------------------------------------------------------------------
@experiment(
    name="churn_webfarm",
    description="Web farm sharing the machine with Poisson batch-job churn",
    tags=("churn", "smp", "controller"),
    params=(
        Param("n_cpus", kind="int", default=4, minimum=1, maximum=64),
        Param("n_servers", kind="int", default=2, minimum=1,
              help="persistent web servers (the farm)"),
        Param("requests_per_second", kind="float", default=150.0, minimum=1.0,
              help="offered load per server"),
        Param("jobs_per_second", kind="float", default=60.0, minimum=0.1,
              help="Poisson arrival rate of churn jobs"),
        Param("job_cpu_us", kind="int", default=5_000, minimum=1,
              help="CPU demand per churn job"),
        Param("think_us", kind="int", default=800, minimum=0,
              help="sleep between job compute bursts"),
        Param("duration_s", kind="float", default=2.0, minimum=0.05),
        Param("seed", kind="int", default=17),
    ),
    quick={"duration_s": 0.3, "jobs_per_second": 40.0},
)
def churn_webfarm_experiment(
    *,
    n_cpus: int,
    n_servers: int,
    requests_per_second: float,
    jobs_per_second: float,
    job_cpu_us: int,
    think_us: int,
    duration_s: float,
    seed: Optional[int],
) -> ExperimentResult:
    """A web farm keeps serving while batch jobs churn around it.

    The farm's servers are persistent real-rate threads; the churn
    stream spawns finite miscellaneous jobs under the controller, so
    every arrival re-runs classification and every exit reclaims its
    allocation on the next tick.  The interesting observable is that
    the farm's throughput tracks the offered load despite the churn.
    """
    system = build_real_rate_system(
        n_cpus=n_cpus, record_dispatches=True
    )
    farm = WebFarm.attach(
        system,
        n_servers=n_servers,
        requests_per_second=requests_per_second,
        service_cpu_us=1_500,
        seed=seed,
    )
    churn = WorkloadEngine(system.kernel, allocator=system.allocator)
    template = JobTemplate(
        "batch",
        total_cpu_us=job_cpu_us,
        burst_us=1_500,
        think_us=think_us,
        spec=ThreadSpec(),
    )
    churn.add_stream(
        "churn", PoissonArrivals(jobs_per_second, seed=seed or 0), template
    )
    _sample_live(system, churn)
    churn.start()
    system.run_for(seconds(duration_s))

    result = ExperimentResult(
        experiment_id="churn_webfarm",
        title="Web farm under arrival-driven batch churn",
    )
    result.metrics["served_rps"] = farm.served_rps(system.now)
    result.metrics["offered_rps"] = n_servers * float(requests_per_second)
    _churn_metrics(result, system, churn)
    result.notes.append(
        "open-system extension: the paper's closed workloads never exercise "
        "admission/reclaim under churn; the farm's served rate tracking the "
        "offered load shows the controller re-converging across arrivals."
    )
    return result


# ----------------------------------------------------------------------
# tidal_pipeline
# ----------------------------------------------------------------------
@experiment(
    name="tidal_pipeline",
    description="I/O-staged jobs under a phase-scripted tidal arrival rate",
    tags=("churn", "controller", "phases"),
    params=(
        Param("n_cpus", kind="int", default=1, minimum=1, maximum=64),
        Param("low_rps", kind="float", default=40.0, minimum=0.1),
        Param("high_rps", kind="float", default=160.0, minimum=0.1),
        Param("phase_s", kind="float", default=0.5, minimum=0.01,
              help="half-period of the tide (low->high switch interval)"),
        Param("job_cpu_us", kind="int", default=3_000, minimum=1),
        Param("io_latency_us", kind="int", default=1_200, minimum=0),
        Param("duration_s", kind="float", default=2.0, minimum=0.05),
        Param("seed", kind="int", default=23),
    ),
    quick={"duration_s": 0.4, "phase_s": 0.1},
)
def tidal_pipeline_experiment(
    *,
    n_cpus: int,
    low_rps: float,
    high_rps: float,
    phase_s: float,
    job_cpu_us: int,
    io_latency_us: int,
    duration_s: float,
    seed: Optional[int],
) -> ExperimentResult:
    """Arrival rate rises and falls like a tide while jobs flow through.

    Jobs interleave compute bursts with simulated I/O (a two-stage
    pipeline per job); a :class:`PhaseScript` flips the Poisson rate
    between ``low_rps`` and ``high_rps`` every ``phase_s`` seconds and
    halves the per-job compute demand at mid-run (a live retime that
    also reshapes jobs already in flight).
    """
    system = build_real_rate_system(
        n_cpus=n_cpus, record_dispatches=True
    )
    churn = WorkloadEngine(system.kernel, allocator=system.allocator)
    template = JobTemplate(
        "stage",
        total_cpu_us=job_cpu_us,
        burst_us=1_000,
        io_latency_us=io_latency_us,
        spec=ThreadSpec(),
    )
    arrivals = PoissonArrivals(low_rps, seed=seed or 0)
    stream = churn.add_stream("tide", arrivals, template)
    script = PhaseScript()
    phase_us = seconds(phase_s)
    duration_us = seconds(duration_s)
    high = False
    for at_us in range(phase_us, duration_us, phase_us):
        high = not high
        script.set_rate(at_us, arrivals, high_rps if high else low_rps)
    script.retime(duration_us // 2, template, total_cpu_us=max(1, job_cpu_us // 2))
    _sample_live(system, churn)
    churn.start(script)
    system.run_for(duration_us)

    result = ExperimentResult(
        experiment_id="tidal_pipeline",
        title="Tidal arrival-rate pipeline churn",
    )
    result.metrics["low_rps"] = float(low_rps)
    result.metrics["high_rps"] = float(high_rps)
    _churn_metrics(result, system, churn)
    result.metrics["throughput_jps"] = (
        stream.completed * 1_000_000 / system.now if system.now else 0.0
    )
    result.notes.append(
        "phase scripts retime a live arrival process and live jobs "
        "(mid-run demand halving) — the controller must track both tides."
    )
    return result


# ----------------------------------------------------------------------
# thundering_herd
# ----------------------------------------------------------------------
@experiment(
    name="thundering_herd",
    description="Waves of simultaneous job arrivals (herd spikes)",
    tags=("churn", "smp", "controller"),
    params=(
        Param("n_cpus", kind="int", default=2, minimum=1, maximum=64),
        Param("herd_size", kind="int", default=40, minimum=1,
              help="jobs arriving at the same instant per wave"),
        Param("n_waves", kind="int", default=4, minimum=1),
        Param("wave_interval_s", kind="float", default=0.5, minimum=0.01),
        Param("job_cpu_us", kind="int", default=3_000, minimum=1),
        Param("duration_s", kind="float", default=2.2, minimum=0.05),
        Param("seed", kind="int", default=None, help="RNG seed (recorded; "
              "the herd trace is fully deterministic)"),
    ),
    quick={"herd_size": 15, "n_waves": 2, "wave_interval_s": 0.15,
           "duration_s": 0.5},
)
def thundering_herd_experiment(
    *,
    n_cpus: int,
    herd_size: int,
    n_waves: int,
    wave_interval_s: float,
    job_cpu_us: int,
    duration_s: float,
    seed: Optional[int],
) -> ExperimentResult:
    """Every wave drops ``herd_size`` jobs on the system at one instant.

    The herd is a replayed trace with repeated timestamps — the
    calendar fires ``herd_size`` spawn events back to back at the same
    virtual time, so the scheduler's add path, the placement round and
    the controller's next tick all see the spike at once.
    """
    wave_us = seconds(wave_interval_s)
    trace = TraceArrivals.from_times(
        w * wave_us for w in range(n_waves) for _ in range(herd_size)
    )
    system = build_real_rate_system(
        n_cpus=n_cpus, record_dispatches=True
    )
    churn = WorkloadEngine(system.kernel, allocator=system.allocator)
    template = JobTemplate(
        "herd",
        total_cpu_us=job_cpu_us,
        burst_us=1_000,
        think_us=300,
        spec=ThreadSpec(),
    )
    churn.add_stream("herd", trace, template)
    _sample_live(system, churn)
    churn.start()
    system.run_for(seconds(duration_s))

    result = ExperimentResult(
        experiment_id="thundering_herd",
        title="Thundering-herd arrival waves",
    )
    result.metrics["herd_size"] = float(herd_size)
    result.metrics["n_waves"] = float(n_waves)
    _churn_metrics(result, system, churn)
    result.notes.append(
        "all arrivals of a wave share one virtual timestamp; the spike is "
        "absorbed by the run-queue and drained before the next wave iff "
        "capacity allows (compare peak_live_jobs across waves)."
    )
    return result


# ----------------------------------------------------------------------
# flash_crowd_rt
# ----------------------------------------------------------------------
def build_flash_crowd_workload(
    *,
    n_cpus: int,
    base_rps: float,
    flash_rps: float,
    flash_start_s: float,
    flash_end_s: float,
    rt_ppt: int,
    job_cpu_us: int,
    seed: Optional[int],
):
    """Assemble the flash-crowd scenario, ready to start.

    Shared between ``flash_crowd_rt`` and the SLO-controller
    head-to-head (``slo_flash_crowd``), so the two experiments drive
    bit-identical workloads: same system wiring, same templates, same
    phase script, same tracer samplers.  Returns ``(system, churn,
    stream, template, script)`` — the caller starts the engine (after
    attaching any extra controller) and runs the kernel.
    """
    if flash_end_s < flash_start_s:
        raise ValueError(
            f"flash_end_s ({flash_end_s}) must not precede flash_start_s "
            f"({flash_start_s})"
        )
    system = build_real_rate_system(
        n_cpus=n_cpus, record_dispatches=True
    )
    churn = WorkloadEngine(system.kernel, allocator=system.allocator)
    template = JobTemplate(
        "rt",
        total_cpu_us=job_cpu_us,
        burst_us=800,
        think_us=500,
        spec=ThreadSpec(proportion_ppt=rt_ppt, period_us=10_000),
    )
    arrivals = PoissonArrivals(base_rps, seed=seed or 0)
    stream = churn.add_stream("crowd", arrivals, template)
    script = PhaseScript()
    script.set_rate(seconds(flash_start_s), arrivals, flash_rps)
    script.set_rate(seconds(flash_end_s), arrivals, base_rps)
    scheduler = system.scheduler
    system.kernel.tracer.add_sampler(
        system.kernel.events,
        _LIVE_SAMPLE_US,
        "churn:reserved_ppt",
        lambda now: float(scheduler.total_reserved_ppt()),
    )
    _sample_live(system, churn)
    return system, churn, stream, template, script


@experiment(
    name="flash_crowd_rt",
    description="Real-time jobs with admission control under a flash crowd",
    tags=("churn", "admission", "real-time"),
    params=(
        Param("n_cpus", kind="int", default=1, minimum=1, maximum=64),
        Param("base_rps", kind="float", default=30.0, minimum=0.1),
        Param("flash_rps", kind="float", default=300.0, minimum=0.1),
        Param("flash_start_s", kind="float", default=0.6, minimum=0.0),
        Param("flash_end_s", kind="float", default=1.2, minimum=0.0),
        Param("rt_ppt", kind="int", default=80, minimum=1, maximum=1000,
              help="reserved proportion per job (parts per thousand)"),
        Param("job_cpu_us", kind="int", default=4_000, minimum=1),
        Param("duration_s", kind="float", default=2.0, minimum=0.05),
        Param("seed", kind="int", default=29),
    ),
    quick={"duration_s": 0.5, "flash_start_s": 0.15, "flash_end_s": 0.3},
)
def flash_crowd_rt_experiment(
    *,
    n_cpus: int,
    base_rps: float,
    flash_rps: float,
    flash_start_s: float,
    flash_end_s: float,
    rt_ppt: int,
    job_cpu_us: int,
    duration_s: float,
    seed: Optional[int],
) -> ExperimentResult:
    """A flash crowd of real-time jobs hits per-arrival admission.

    Every arrival asks for a hard reservation (``rt_ppt`` over a 10 ms
    period) and passes through
    :meth:`ProportionAllocator.would_admit` — the same partitioned
    test ``register`` enforces, so during the flash most arrivals are
    *rejected* rather than degrading admitted jobs.  Capacity freed by
    a completing job is reusable by the very next arrival.
    """
    system, churn, _stream, _template, script = build_flash_crowd_workload(
        n_cpus=n_cpus,
        base_rps=base_rps,
        flash_rps=flash_rps,
        flash_start_s=flash_start_s,
        flash_end_s=flash_end_s,
        rt_ppt=rt_ppt,
        job_cpu_us=job_cpu_us,
        seed=seed,
    )
    churn.start(script)
    system.run_for(seconds(duration_s))

    result = ExperimentResult(
        experiment_id="flash_crowd_rt",
        title="Flash crowd of real-time reservations",
    )
    _churn_metrics(result, system, churn)
    arrivals_total = churn.spawned_total() + churn.rejected_total()
    result.metrics["admit_ratio"] = (
        churn.spawned_total() / arrivals_total if arrivals_total else 0.0
    )
    reserved = system.kernel.tracer.series("churn:reserved_ppt")
    if len(reserved):
        result.metrics["peak_reserved_ppt"] = max(reserved.values())
        result.add_series("reserved_ppt", reserved.times_s(), reserved.values())
    result.notes.append(
        "admission-on-arrival: the flash crowd is shed by rejecting "
        "reservations the partitioned test cannot place, never by squishing "
        "admitted real-time jobs; exits free capacity immediately."
    )
    return result


# ----------------------------------------------------------------------
# trace_replay
# ----------------------------------------------------------------------
def _default_trace() -> str:
    """The built-in sample trace: web+batch+rt arrivals over ~0.75 s."""
    entries: list[tuple[int, str]] = []
    entries += [(k * 18_000, "web") for k in range(40)]
    entries += [(5_000 + k * 90_000, "batch") for k in range(8)]
    entries += [(240_000 + k * 4_000, "rt") for k in range(12)]
    entries.sort()
    lines = ["# built-in sample trace: offset_us tag"]
    lines += [f"{offset} {tag}" for offset, tag in entries]
    return "\n".join(lines) + "\n"


DEFAULT_TRACE = _default_trace()


@experiment(
    name="trace_replay",
    description="Replay a tagged arrival trace (web/batch/rt job mix)",
    tags=("churn", "trace"),
    params=(
        Param("trace_file", kind="str", default="",
              help="trace path ('' = the built-in sample trace); lines are "
                   "'offset_us tag' with tags web, batch, rt"),
        Param("n_cpus", kind="int", default=1, minimum=1, maximum=64),
        Param("duration_s", kind="float", default=1.0, minimum=0.05),
        Param("seed", kind="int", default=None, help="RNG seed (recorded; "
              "trace replay is fully deterministic)"),
    ),
    quick={"duration_s": 0.4},
)
def trace_replay_experiment(
    *,
    trace_file: str,
    n_cpus: int,
    duration_s: float,
    seed: Optional[int],
) -> ExperimentResult:
    """Drive the system with a recorded arrival trace.

    Tags select the job class per arrival: ``web`` (short interactive-
    sized), ``batch`` (long compute) and ``rt`` (admission-controlled
    reservations).  With ``trace_file=''`` a built-in sample trace is
    replayed; any file in the same ``offset_us tag`` format works.
    """
    if trace_file:
        trace = TraceArrivals.from_file(trace_file)
    else:
        trace = TraceArrivals.parse(DEFAULT_TRACE)
    system = build_real_rate_system(
        n_cpus=n_cpus, record_dispatches=True
    )
    churn = WorkloadEngine(system.kernel, allocator=system.allocator)
    templates = {
        "web": JobTemplate(
            "web", total_cpu_us=1_200, burst_us=400, think_us=400,
            spec=ThreadSpec(),
        ),
        "batch": JobTemplate(
            "batch", total_cpu_us=12_000, burst_us=2_000, spec=ThreadSpec(),
        ),
        "rt": JobTemplate(
            "rt", total_cpu_us=5_000, burst_us=1_000, think_us=1_000,
            spec=ThreadSpec(proportion_ppt=100, period_us=10_000),
        ),
    }
    churn.add_stream("trace", trace, templates["web"], templates=templates)
    _sample_live(system, churn)
    churn.start()
    system.run_for(seconds(duration_s))

    result = ExperimentResult(
        experiment_id="trace_replay",
        title="Tagged arrival-trace replay",
    )
    result.metrics["trace_arrivals"] = float(len(trace.entries))
    _churn_metrics(result, system, churn)
    result.metadata["trace_file"] = trace_file or "<built-in>"
    result.notes.append(
        "replayed traces make production traffic shapes reproducible "
        "bit-for-bit."
    )
    return result


__all__ = [
    "DEFAULT_TRACE",
    "build_flash_crowd_workload",
    "churn_webfarm_experiment",
    "flash_crowd_rt_experiment",
    "thundering_herd_experiment",
    "tidal_pipeline_experiment",
    "trace_replay_experiment",
]
