"""Experiment drivers and the declarative experiment registry.

One module per reproduced figure of the paper, plus extension /
ablation experiments.  Every driver declares itself to the registry
with the :func:`repro.experiments.registry.experiment` decorator,
producing an :class:`~repro.experiments.registry.ExperimentSpec` —
name, description, typed parameter schema with defaults and bounds,
and quick-mode overrides.  Importing this package registers every
experiment (the paper reproductions and ablations, the churn, fault,
SLO and topology extensions, and the churn and fault smoke matrices);
run them through :data:`~repro.experiments.registry.REGISTRY`
(``REGISTRY.run(name, overrides, quick=...)``) or the ``python -m
repro`` command line
(``list`` / ``describe`` / ``run`` / ``sweep``).  That is the only way
to run one: the registry resolves the parameters, stamps the seed and
checks the dispatch fingerprint.

Every experiment returns an
:class:`repro.analysis.results.ExperimentResult` containing

* the headline metrics (with the paper's reported values alongside,
  where the paper gives them),
* the raw time series needed to redraw the figure, and
* notes about any deviation from the paper's setup.

The benchmark suite (``benchmarks/``) runs the experiments through
the registry and asserts the *shape* properties the paper claims; the
examples print their summaries.
"""

from repro.experiments.ablation_period import ablation_period_experiment
from repro.experiments.ablation_pid import ablation_pid_experiment
from repro.experiments.ablation_squish import ablation_squish_experiment
from repro.experiments.churn import (
    churn_webfarm_experiment,
    flash_crowd_rt_experiment,
    thundering_herd_experiment,
    tidal_pipeline_experiment,
    trace_replay_experiment,
)
from repro.experiments.faults import (
    cpu_failover_experiment,
    runaway_quarantine_experiment,
    sensor_dropout_experiment,
)
from repro.experiments.figure5 import figure5_experiment
from repro.experiments.figure6 import figure6_experiment
from repro.experiments.figure7 import figure7_experiment
from repro.experiments.figure8 import figure8_experiment
from repro.experiments.inversion import inversion_experiment
from repro.experiments.registry import (
    REGISTRY,
    DuplicateExperimentError,
    ExperimentRegistry,
    ExperimentSpec,
    Param,
    ParameterError,
    UnknownExperimentError,
    experiment,
)
from repro.experiments.response_curve import response_curve_experiment
from repro.experiments.slo import slo_flash_crowd_experiment
from repro.experiments.smoke import churn_smoke_experiment, fault_smoke_experiment
from repro.experiments.smp_scaling import smp_scaling_experiment
from repro.experiments.taxonomy import taxonomy_experiment
from repro.experiments.topology import topology_placement_experiment

__all__ = [
    "DuplicateExperimentError",
    "ExperimentRegistry",
    "ExperimentSpec",
    "Param",
    "ParameterError",
    "REGISTRY",
    "UnknownExperimentError",
    "ablation_period_experiment",
    "ablation_pid_experiment",
    "ablation_squish_experiment",
    "churn_smoke_experiment",
    "churn_webfarm_experiment",
    "cpu_failover_experiment",
    "experiment",
    "fault_smoke_experiment",
    "flash_crowd_rt_experiment",
    "thundering_herd_experiment",
    "tidal_pipeline_experiment",
    "trace_replay_experiment",
    "figure5_experiment",
    "figure6_experiment",
    "figure7_experiment",
    "figure8_experiment",
    "inversion_experiment",
    "response_curve_experiment",
    "runaway_quarantine_experiment",
    "sensor_dropout_experiment",
    "slo_flash_crowd_experiment",
    "smp_scaling_experiment",
    "taxonomy_experiment",
    "topology_placement_experiment",
]
