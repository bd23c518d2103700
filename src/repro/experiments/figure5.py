"""Figure 5 — overhead of the controller vs. number of controlled processes.

"This figure shows the overhead of our user-level controller.  Our
experimental results are linear, y = .00066x + .00057, with a
coefficient of determination of .999. […] For 40 jobs (x = 40), the
overhead is 2.7% of CPU capacity."

The reproduction runs the controller at the paper's 10 ms period over a
population of dummy controlled processes that consume no CPU but are
scheduled, monitored and controlled, sweeping the population size.  Each
point reports the **modelled** overhead: the calibrated linear cost
model charged to the simulation (what the rest of the experiments see).
The artifact holds no host-clock figure, so two runs are byte-identical;
the wall cost of this Python controller's update is perfbench's
``core.allocator.update`` span.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.regression import linear_fit
from repro.analysis.results import ExperimentResult
from repro.core.config import ControllerConfig
from repro.core.taxonomy import ThreadSpec
from repro.experiments.params import stamp_reproducibility
from repro.experiments.registry import Param, experiment
from repro.sim.clock import seconds
from repro.sim.requests import Sleep
from repro.system import build_real_rate_system

#: Paper-reported values, shown beside the measured ones in the summary.
PAPER_SLOPE = 0.00066
PAPER_INTERCEPT = 0.00057
PAPER_R_SQUARED = 0.999
PAPER_OVERHEAD_AT_40 = 0.027

#: Default population sweep (the paper's x axis runs 0–40 jobs).
DEFAULT_PROCESS_COUNTS = (0, 5, 10, 15, 20, 25, 30, 35, 40)


def _dummy_body(env):
    """A controlled process that consumes (almost) no CPU.

    The paper's dummies "consume no CPU but are scheduled, monitored,
    and controlled"; sleeping in long stretches reproduces that.
    """
    while True:
        yield Sleep(1_000_000)


@experiment(
    name="figure5",
    description="Controller overhead vs. number of controlled processes",
    tags=("figure", "overhead"),
    params=(
        Param(
            "process_counts", kind="int_list", default=DEFAULT_PROCESS_COUNTS,
            minimum=0, help="population sizes swept",
        ),
        Param(
            "controller_period_us", kind="int", default=10_000, minimum=1_000,
            help="controller invocation period",
        ),
        Param(
            "sim_seconds", kind="float", default=2.0, minimum=0.05,
            help="virtual seconds simulated per point",
        ),
        Param("seed", kind="int", default=None, help="RNG seed (recorded; "
              "this driver's dummy population is fully deterministic)"),
    ),
    quick={"process_counts": (0, 10, 20, 30), "sim_seconds": 0.5},
)
def figure5_experiment(
    *,
    process_counts: Sequence[int],
    controller_period_us: int,
    sim_seconds: float,
    seed: Optional[int],
) -> ExperimentResult:
    """Reproduce Figure 5: controller overhead vs. controlled processes."""
    counts: list[float] = []
    modeled_overheads: list[float] = []
    kernels = []

    for count in process_counts:
        system = build_real_rate_system(
            ControllerConfig(controller_period_us=controller_period_us),
            charge_dispatch_overhead=False,
            record_dispatches=True,
        )
        kernels.append(system.kernel)
        for index in range(count):
            system.spawn_controlled(
                f"dummy{index}", _dummy_body, spec=ThreadSpec()
            )
        system.run_for(seconds(sim_seconds))
        counts.append(float(count))
        modeled_overheads.append(system.driver.modeled_overhead_fraction())

    modeled_fit = linear_fit(counts, modeled_overheads)

    result = ExperimentResult(
        experiment_id="figure5",
        title="Controller overhead vs. number of controlled processes",
        metrics={
            "slope_overhead_per_process": modeled_fit.slope,
            "intercept_overhead": modeled_fit.intercept,
            "r_squared": modeled_fit.r_squared,
            "overhead_at_40_processes": modeled_fit.predict(40.0),
        },
        paper_values={
            "slope_overhead_per_process": PAPER_SLOPE,
            "intercept_overhead": PAPER_INTERCEPT,
            "r_squared": PAPER_R_SQUARED,
            "overhead_at_40_processes": PAPER_OVERHEAD_AT_40,
        },
    )
    result.add_series("modeled_overhead_vs_processes", counts, modeled_overheads)
    stamp_reproducibility(result, *kernels)
    result.notes.append(
        "modeled overhead uses the per-process/fixed cost calibrated from the "
        "paper (6.6 us + 5.7 us at a 10 ms period)."
    )
    return result


__all__ = [
    "DEFAULT_PROCESS_COUNTS",
    "PAPER_INTERCEPT",
    "PAPER_OVERHEAD_AT_40",
    "PAPER_SLOPE",
    "figure5_experiment",
]
