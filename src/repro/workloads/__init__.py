"""Workloads.

Simulated applications used by the examples, experiments and
benchmarks.  Each corresponds to an application class the paper
discusses:

* :mod:`repro.workloads.pulse` — the variable-rate producer/consumer
  pipeline used for the responsiveness experiments (Figures 6 and 7);
* :mod:`repro.workloads.cpu_hog` — the miscellaneous CPU-bound
  competitor ("the load") of Figure 7;
* :mod:`repro.workloads.pipeline` — a multi-stage multimedia pipeline
  with an expensive decoder stage (Section 4.4's example);
* :mod:`repro.workloads.webserver` — a server consuming requests from a
  socket (the "server" class of Section 3.2);
* :mod:`repro.workloads.webfarm` — many such servers on a
  multiprocessor kernel (the SMP scaling scenario);
* :mod:`repro.workloads.interactive` — a tty-driven interactive job;
* :mod:`repro.workloads.inversion` — the Mars-Pathfinder-style priority
  inversion scenario from Section 2;
* :mod:`repro.workloads.arrivals` / :mod:`repro.workloads.engine` — the
  open-system workload engine: arrival processes (Poisson,
  deterministic, trace replay) inject finite-demand jobs into a running
  kernel, and phase scripts retime/retarget live threads (the churn
  scenarios and the golden-trace corpus).
"""

from repro.workloads.arrivals import (
    ArrivalError,
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.workloads.cpu_hog import CpuHog
from repro.workloads.engine import (
    JobRecord,
    JobStream,
    JobTemplate,
    PhaseScript,
    WorkloadEngine,
    WorkloadError,
    dispatch_fingerprint,
)
from repro.workloads.interactive import InteractiveJob, InteractiveUser
from repro.workloads.inversion import InversionResult, InversionScenario
from repro.workloads.pipeline import MultimediaPipeline, PipelineStageSpec
from repro.workloads.pulse import (
    PulsePipeline,
    PulseSchedule,
    RateSegment,
)
from repro.workloads.webfarm import WebFarm
from repro.workloads.webserver import WebServer

__all__ = [
    "ArrivalError",
    "ArrivalProcess",
    "CpuHog",
    "DeterministicArrivals",
    "JobRecord",
    "JobStream",
    "JobTemplate",
    "PhaseScript",
    "PoissonArrivals",
    "TraceArrivals",
    "WorkloadEngine",
    "WorkloadError",
    "dispatch_fingerprint",
    "InteractiveJob",
    "InteractiveUser",
    "InversionResult",
    "InversionScenario",
    "MultimediaPipeline",
    "PipelineStageSpec",
    "PulsePipeline",
    "PulseSchedule",
    "RateSegment",
    "WebFarm",
    "WebServer",
]
