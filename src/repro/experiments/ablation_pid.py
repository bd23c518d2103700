"""Ablation — PID gain sensitivity.

The paper asserts that PID control gives "error reduction together with
acceptable stability and damping" but does not explore the gain space.
This ablation sweeps the proportional and integral gains around the
library defaults and reports, for each setting, the pulse workload's
response time, overshoot and steady-state fill deviation, showing the
classic trade-off: higher gains respond faster but overshoot and become
noisy, lower gains are smooth but slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.response import step_response
from repro.analysis.results import ExperimentResult
from repro.analysis.series import mean_absolute_deviation
from repro.core.config import ControllerConfig, PIDGains
from repro.experiments.params import stamp_reproducibility
from repro.experiments.registry import Param, experiment
from repro.sim.clock import seconds
from repro.sim.kernel import Kernel
from repro.system import build_real_rate_system
from repro.workloads.pulse import PulseParameters, PulsePipeline, PulseSchedule

#: The gain settings swept by default: (label, kp, ki, kd).
DEFAULT_GAIN_SETTINGS: tuple[tuple[str, float, float, float], ...] = (
    ("low", 0.1, 0.3, 0.0),
    ("default", 0.25, 0.8, 0.005),
    ("high", 0.8, 3.0, 0.01),
    ("integral_only", 0.0, 1.0, 0.0),
)


@dataclass(frozen=True)
class GainOutcome:
    """Metrics for one gain setting."""

    label: str
    kp: float
    ki: float
    kd: float
    response_time_s: float
    overshoot: float
    fill_mad: float


#: Labels of the default gain settings (the schema's choices).
DEFAULT_GAIN_LABELS = tuple(label for label, _, _, _ in DEFAULT_GAIN_SETTINGS)


def _evaluate(
    kp: float, ki: float, kd: float, *, pulse_at_s: float = 3.0,
    sim_seconds: float = 8.0,
) -> tuple[float, float, float, Kernel]:
    config = ControllerConfig(pid_gains=PIDGains(kp=kp, ki=ki, kd=kd))
    system = build_real_rate_system(
        config, record_dispatches=True
    )
    params = PulseParameters()
    schedule = PulseSchedule.paper_figure6(
        params.base_rate_bytes_per_cpu_us,
        rising_widths_s=(3.0,),
        falling_widths_s=(),
        gap_s=1.0,
        start_s=pulse_at_s,
        tail_s=0.5,
    )
    pipeline = PulsePipeline.attach(system, schedule=schedule, params=params)
    tracer = system.kernel.tracer
    alloc = tracer.watch(f"alloc:{pipeline.consumer.name}")
    tracer.add_sampler(
        system.kernel.events, 50_000, "fill",
        lambda now: pipeline.queue.fill_level(),
    )
    system.run_for(seconds(sim_seconds))

    response = step_response(
        alloc.times_s(), alloc.values(), pulse_at_s, measure_window_s=2.5
    )
    fill = tracer.series("fill")
    fill_mad = mean_absolute_deviation(
        [p.value for p in fill if p.time_s > 2.0], 0.5
    )
    rise = response.rise_time_s if response.rise_time_s is not None else float("inf")
    return rise, response.overshoot_fraction, fill_mad, system.kernel


@experiment(
    name="ablation_pid",
    description="PID gain sensitivity (pulse workload)",
    tags=("ablation", "pid"),
    params=(
        Param(
            "labels", kind="str_list", default=DEFAULT_GAIN_LABELS,
            choices=DEFAULT_GAIN_LABELS,
            help="which of the default gain settings to sweep",
        ),
        Param("sim_seconds", kind="float", default=8.0, minimum=1.0,
              help="virtual seconds simulated per gain setting"),
        Param("seed", kind="int", default=None, help="RNG seed (recorded; "
              "the pulse workload is fully deterministic)"),
    ),
    quick={"labels": ("low", "high"), "sim_seconds": 6.0},
)
def ablation_pid_experiment(
    *,
    labels: Sequence[str],
    sim_seconds: float,
    seed: Optional[int],
) -> ExperimentResult:
    """Sweep the chosen default PID gain settings on the pulse workload."""
    by_label = {setting[0]: setting for setting in DEFAULT_GAIN_SETTINGS}
    outcomes: list[GainOutcome] = []
    kernels = []
    for label, kp, ki, kd in (by_label[label] for label in labels):
        rise, overshoot, fill_mad, kernel = _evaluate(
            kp, ki, kd, sim_seconds=sim_seconds
        )
        kernels.append(kernel)
        outcomes.append(
            GainOutcome(
                label=label, kp=kp, ki=ki, kd=kd,
                response_time_s=rise, overshoot=overshoot, fill_mad=fill_mad,
            )
        )

    result = ExperimentResult(
        experiment_id="ablation_pid",
        title="PID gain sensitivity (pulse workload)",
    )
    for outcome in outcomes:
        result.metrics[f"response_time_s:{outcome.label}"] = outcome.response_time_s
        result.metrics[f"overshoot:{outcome.label}"] = outcome.overshoot
        result.metrics[f"fill_mad:{outcome.label}"] = outcome.fill_mad
    result.add_series(
        "response_time_by_setting",
        list(range(len(outcomes))),
        [o.response_time_s for o in outcomes],
    )
    stamp_reproducibility(result, *kernels)
    result.notes.append(
        "settings: " + ", ".join(
            f"{o.label}(kp={o.kp}, ki={o.ki}, kd={o.kd})" for o in outcomes
        )
    )
    return result


__all__ = [
    "DEFAULT_GAIN_LABELS",
    "DEFAULT_GAIN_SETTINGS",
    "GainOutcome",
    "ablation_pid_experiment",
]
