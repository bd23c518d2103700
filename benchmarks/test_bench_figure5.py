"""Figure 5 — controller overhead vs. number of controlled processes.

Paper: linear with slope .00066 and intercept .00057 (R² = .999);
2.7 % of the CPU at 40 controlled processes.
"""

import pytest

from benchmarks.conftest import run_experiment, show


@pytest.mark.benchmark(group="figure5")
def test_figure5_controller_overhead(benchmark):
    result = run_experiment(benchmark, "figure5")
    show(result)

    # Linearity of the modelled overhead (the paper's headline claim).
    assert result.metric("r_squared") > 0.99
    assert result.metric("slope_overhead_per_process") == pytest.approx(
        0.00066, rel=0.05
    )
    assert result.metric("intercept_overhead") == pytest.approx(0.00057, rel=0.15)
    assert result.metric("overhead_at_40_processes") == pytest.approx(0.027, rel=0.1)


@pytest.mark.benchmark(group="figure5")
def test_figure5_overhead_grows_monotonically(benchmark):
    result = run_experiment(
        benchmark, "figure5", process_counts=(0, 10, 20, 30, 40), sim_seconds=1.0
    )
    _, overheads = result.series["modeled_overhead_vs_processes"]
    assert overheads == sorted(overheads)
    assert overheads[0] < 0.001
