"""Figure 8 — dispatch overhead vs. dispatcher frequency.

"We measured the amount of CPU available to applications by running a
program that attempts to use as much CPU as it can. […] The number
plotted is the amount of CPU the program was able to grab, normalized
to the amount it can grab on a kernel with a time-slice of 10 msec.
The graph shows the results of the higher overhead for smaller quanta,
with a knee around 4000 Hz (250 µsec).  At this point the overhead is
around 2.7%."

The reproduction sweeps the simulator's dispatch interval, runs a
CPU-grabber thread under each setting with the calibrated per-dispatch
cost charged, and reports the normalised available-CPU curve, the knee
frequency (maximum distance from the chord on a log-frequency axis, the
same visual criterion one applies to the paper's plot) and the overhead
at the knee.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.analysis.results import ExperimentResult
from repro.analysis.series import find_knee
from repro.experiments.params import stamp_reproducibility
from repro.experiments.registry import Param, experiment
from repro.sim.clock import US_PER_SEC, seconds
from repro.sim.cpu import CPUModel
from repro.sim.kernel import Kernel
from repro.sim.requests import Compute
from repro.sched.rbs import ReservationScheduler
from repro.sim.thread import SchedulingPolicy, SimThread

#: Paper-reported values.
PAPER_KNEE_HZ = 4_000.0
PAPER_OVERHEAD_AT_KNEE = 0.027

#: The frequencies swept (the paper's x axis runs from 100 Hz to 10 kHz).
DEFAULT_FREQUENCIES_HZ = (100, 200, 500, 1_000, 2_000, 4_000, 6_000, 8_000, 10_000)

#: The normalisation baseline: a 10 ms time slice (100 Hz).
BASELINE_FREQUENCY_HZ = 100

#: Dispatch-cost model calibrated to the paper's curve: 2.7% overhead at
#: 4 kHz and roughly 15% at 10 kHz (the curve degrades super-linearly
#: above the knee because tiny quanta thrash the cache).
CALIBRATED_BASE_COST_US = 5.18
CALIBRATED_QUADRATIC_COST_US = 0.098


def _grabber_body(env):
    """A program that attempts to use as much CPU as it can."""
    while True:
        yield Compute(50_000)


def _available_fraction(
    frequency_hz: float, sim_seconds: float, cpu: CPUModel
) -> tuple[float, Kernel]:
    """Fraction of the CPU a greedy thread obtains at a dispatch frequency."""
    dispatch_interval_us = max(1, int(round(US_PER_SEC / frequency_hz)))
    scheduler = ReservationScheduler()
    kernel = Kernel(
        scheduler,
        cpu=cpu,
        dispatch_interval_us=dispatch_interval_us,
        charge_dispatch_overhead=True,
        record_dispatches=True,
    )
    grabber = SimThread("grabber", _grabber_body, policy=SchedulingPolicy.BEST_EFFORT)
    kernel.add_thread(grabber)
    kernel.run_for(seconds(sim_seconds))
    return grabber.accounting.total_us / kernel.now, kernel


@experiment(
    name="figure8",
    description="Dispatch overhead vs. dispatcher frequency",
    tags=("figure", "overhead"),
    params=(
        Param(
            "frequencies_hz", kind="float_list", default=DEFAULT_FREQUENCIES_HZ,
            minimum=1.0, help="dispatcher frequencies swept",
        ),
        Param("sim_seconds", kind="float", default=2.0, minimum=0.05,
              help="virtual seconds simulated per frequency"),
        Param("dispatch_cost_us", kind="float", default=CALIBRATED_BASE_COST_US,
              minimum=0.0, help="fixed per-dispatch cost"),
        Param(
            "dispatch_cost_quadratic_us", kind="float",
            default=CALIBRATED_QUADRATIC_COST_US, minimum=0.0,
            help="super-linear per-dispatch cost term",
        ),
        Param("seed", kind="int", default=None, help="RNG seed (recorded; "
              "the grabber workload is fully deterministic)"),
    ),
    quick={
        "frequencies_hz": (100, 1_000, 2_000, 4_000, 8_000, 10_000),
        "sim_seconds": 0.5,
    },
)
def figure8_experiment(
    *,
    frequencies_hz: Sequence[float],
    sim_seconds: float,
    dispatch_cost_us: float,
    dispatch_cost_quadratic_us: float,
    seed: Optional[int],
) -> ExperimentResult:
    """Reproduce Figure 8: available CPU vs. dispatcher frequency."""
    if BASELINE_FREQUENCY_HZ not in frequencies_hz:
        frequencies_hz = (BASELINE_FREQUENCY_HZ, *frequencies_hz)
    cpu = CPUModel(
        dispatch_cost_us=dispatch_cost_us,
        dispatch_cost_quadratic_us=dispatch_cost_quadratic_us,
    )

    fractions: dict[float, float] = {}
    kernels = []
    for frequency in frequencies_hz:
        fractions[frequency], kernel = _available_fraction(
            frequency, sim_seconds, cpu
        )
        kernels.append(kernel)

    baseline = fractions[BASELINE_FREQUENCY_HZ]
    frequencies = sorted(fractions)
    normalised = [fractions[f] / baseline for f in frequencies]

    knee_log = find_knee([math.log10(f) for f in frequencies], normalised)
    knee_hz = 10 ** knee_log
    knee_index = min(
        range(len(frequencies)), key=lambda i: abs(frequencies[i] - knee_hz)
    )
    overhead_at_knee = 1.0 - fractions[frequencies[knee_index]]

    result = ExperimentResult(
        experiment_id="figure8",
        title="Dispatch overhead vs. dispatcher frequency",
        metrics={
            "knee_frequency_hz": knee_hz,
            "overhead_at_knee": overhead_at_knee,
            "available_at_10khz_normalised": normalised[-1],
            "available_at_baseline": baseline,
        },
        paper_values={
            "knee_frequency_hz": PAPER_KNEE_HZ,
            "overhead_at_knee": PAPER_OVERHEAD_AT_KNEE,
        },
    )
    result.add_series(
        "available_cpu_normalised_vs_hz", list(frequencies), normalised
    )
    result.add_series(
        "available_cpu_fraction_vs_hz",
        list(frequencies),
        [fractions[f] for f in frequencies],
    )
    stamp_reproducibility(result, *kernels)
    result.notes.append(
        "per-dispatch cost calibrated so a 4 kHz dispatcher loses ~2.7% of "
        "the CPU (the paper's knee) and a 10 kHz dispatcher ~15%; the "
        "reproduced claim is the shape of the curve and the knee's location "
        "on a log-frequency axis."
    )
    return result


__all__ = [
    "DEFAULT_FREQUENCIES_HZ",
    "PAPER_KNEE_HZ",
    "PAPER_OVERHEAD_AT_KNEE",
    "figure8_experiment",
]
