"""Project-specific static analysis (``python -m repro lint``).

Three AST checkers prove the contracts the dynamic suites can only
sample: hot-path determinism (:mod:`.determinism`), exact float
evaluation order in annotated controller modules (:mod:`.floatorder`)
and crash-safe artifact writes (:mod:`.atomicwrite`).  Two contracts
are not lint checks: :class:`repro.experiments.registry.ExperimentSpec`
enforces reproducibility at registration and run time, and the
behaviour corpus (:mod:`repro.golden`) pins every experiment's
artifact, so a changed ``to_dict`` field set fails ``repro golden``.
:mod:`.core` is the framework (findings, suppressions, runner),
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
