"""Ablation — overload squish policies and importance weighting.

The paper extends plain proportional squishing to a weighted fair share
where an *importance* weight "determines the likelihood that a thread
will get its desired allocation", while insisting that "a more-
important job cannot starve a less important job".

This ablation saturates the CPU with several miscellaneous hogs of
different importances and measures the CPU share each obtains under

* plain fair-share squishing (importance ignored), and
* weighted fair-share squishing,

verifying both the proportionality of the weighted shares and the
no-starvation guarantee.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.results import ExperimentResult
from repro.core.config import ControllerConfig
from repro.core.overload import FairShareSquish, WeightedFairShareSquish
from repro.experiments.params import stamp_reproducibility
from repro.experiments.registry import Param, experiment
from repro.sim.clock import seconds
from repro.system import build_real_rate_system
from repro.workloads.cpu_hog import CpuHog

#: Importances of the competing hogs.
DEFAULT_IMPORTANCES = (1.0, 2.0, 4.0)


def _run_with_policy(
    policy_name: str,
    importances: Sequence[float],
    sim_seconds: float,
    seed: Optional[int],
    kernels: list,
) -> dict[str, float]:
    cfg = ControllerConfig()
    if policy_name == "fair":
        policy = FairShareSquish(cfg.min_proportion_ppt)
    elif policy_name == "weighted":
        policy = WeightedFairShareSquish(cfg.min_proportion_ppt)
    else:
        raise ValueError(f"unknown squish policy {policy_name!r}")
    system = build_real_rate_system(
        cfg, squish_policy=policy, record_dispatches=True
    )
    kernels.append(system.kernel)
    hogs = [
        CpuHog.attach(
            system,
            name=f"hog.i{importance:g}",
            importance=importance,
            seed=None if seed is None else seed + index,
        )
        for index, importance in enumerate(importances)
    ]
    system.run_for(seconds(sim_seconds))
    elapsed = system.now
    return {
        f"{policy_name}_share_i{importance:g}": hog.thread.accounting.total_us
        / elapsed
        for importance, hog in zip(importances, hogs)
    }


@experiment(
    name="ablation_squish",
    description="Overload squishing: fair share vs. weighted fair share",
    tags=("ablation", "overload"),
    params=(
        Param("importances", kind="float_list", default=DEFAULT_IMPORTANCES,
              minimum=0.1, help="importance weights of the competing hogs"),
        Param("sim_seconds", kind="float", default=8.0, minimum=0.5,
              help="virtual seconds simulated per policy"),
        Param("seed", kind="int", default=None,
              help="seeds the hogs' burst-length jitter"),
    ),
    quick={"sim_seconds": 4.0},
)
def ablation_squish_experiment(
    *,
    importances: Sequence[float],
    sim_seconds: float,
    seed: Optional[int],
) -> ExperimentResult:
    """Compare fair-share and weighted-fair-share squishing."""
    result = ExperimentResult(
        experiment_id="ablation_squish",
        title="Overload squishing: fair share vs. weighted fair share",
    )
    kernels: list = []
    for policy_name in ("fair", "weighted"):
        result.metrics.update(
            _run_with_policy(
                policy_name, importances, sim_seconds, seed, kernels
            )
        )

    # Convenience ratios used by the benchmarks.
    base = importances[0]
    top = importances[-1]
    fair_base = result.metrics[f"fair_share_i{base:g}"]
    fair_top = result.metrics[f"fair_share_i{top:g}"]
    weighted_base = result.metrics[f"weighted_share_i{base:g}"]
    weighted_top = result.metrics[f"weighted_share_i{top:g}"]
    result.metrics["fair_top_to_base_ratio"] = (
        fair_top / fair_base if fair_base > 0 else float("inf")
    )
    result.metrics["weighted_top_to_base_ratio"] = (
        weighted_top / weighted_base if weighted_base > 0 else float("inf")
    )
    result.metrics["importance_ratio"] = top / base
    stamp_reproducibility(result, *kernels)
    result.notes.append(
        "under plain fair share equally-greedy hogs end up with equal shares "
        "regardless of importance; under weighted fair share the shares "
        "follow the importance ratio, but the least important hog still gets "
        "a non-zero share (no starvation)."
    )
    return result


__all__ = [
    "DEFAULT_IMPORTANCES",
    "ablation_squish_experiment",
]
