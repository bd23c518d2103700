#!/usr/bin/env python3
"""Regenerate every figure of the paper's evaluation section.

Resolves the experiment drivers through the declarative registry
(``repro.experiments.registry``), runs Figures 5–8 plus the taxonomy
and priority-inversion extension experiments, prints a
paper-vs-measured table for each, and renders the key time series as
ASCII sparklines.

Run with::

    python examples/reproduce_figures.py

or reproduce an individual figure with the CLI::

    python -m repro run figure6 --json figure6.json
"""

import time

import repro.experiments  # noqa: F401 — importing populates the registry
from repro.analysis.series import sparkline
from repro.experiments.registry import REGISTRY

#: (experiment name, banner, series to sparkline) in presentation order.
FIGURES = (
    (
        "figure5",
        "Figure 5: controller overhead vs. number of controlled processes",
        ("modeled_overhead_vs_processes",),
    ),
    (
        "figure6",
        "Figure 6: controller responsiveness (idle system)",
        (
            "producer_rate_bytes_per_s",
            "consumer_rate_bytes_per_s",
            "queue_fill_level",
            "consumer_allocation_ppt",
        ),
    ),
    (
        "figure7",
        "Figure 7: controller response under load (pulse pipeline + CPU hog)",
        (
            "consumer_allocation_ppt",
            "hog_allocation_ppt",
            "queue_fill_level",
        ),
    ),
    (
        "figure8",
        "Figure 8: dispatch overhead vs. dispatcher frequency",
        ("available_cpu_normalised_vs_hz",),
    ),
    (
        "taxonomy",
        "Figure 2 (behavioural): the controller's four thread classes",
        (),
    ),
    (
        "inversion",
        "Extension: priority inversion (Mars Pathfinder scenario)",
        (),
    ),
)


def _show(result, series_to_plot=()) -> None:
    print(result.summary())
    for name in series_to_plot:
        if name in result.series:
            _, values = result.series[name]
            print(f"  {name}:")
            print("    " + sparkline(values, 68))
    print()


def main() -> None:
    start = time.time()

    for name, banner, series in FIGURES:
        print("=" * 78)
        print(banner)
        print("=" * 78)
        _show(REGISTRY.run(name), series)

    print(f"total wall-clock time: {time.time() - start:.1f} s")


if __name__ == "__main__":
    main()
