"""Project-specific static analysis (``python -m repro lint``).

Four AST checkers prove the contracts the dynamic suites can only
sample: hot-path determinism (:mod:`.determinism`), exact float
evaluation order in annotated controller modules (:mod:`.floatorder`),
versioned wire formats (:mod:`.wire`) and crash-safe artifact writes
(:mod:`.atomicwrite`).  The experiment reproducibility contract is not
a lint check: :class:`repro.experiments.registry.ExperimentSpec`
enforces it at registration and run time.  :mod:`.core` is the framework (findings,
suppressions, runner), :mod:`.baseline` the grandfathered-debt ledger,
:mod:`.cli` the entry point.
"""

from repro.staticcheck.core import (
    Checker,
    Finding,
    LINT_SCHEMA_VERSION,
    LintResult,
    Project,
    run_checks,
)

__all__ = [
    "Checker",
    "Finding",
    "LINT_SCHEMA_VERSION",
    "LintResult",
    "Project",
    "run_checks",
]
