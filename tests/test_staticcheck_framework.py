"""Framework behaviour of ``repro lint``: suppressions and JSON.

The checkers themselves are covered by ``test_staticcheck_checkers``;
here we pin the machinery that decides what a finding *becomes* —
suppressed or reported — and the ``--json`` schema.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.staticcheck.core import (
    LINT_SCHEMA_VERSION,
    SUPPRESSION_CHECK,
    ModuleSource,
    Project,
    run_checks,
)
from repro.staticcheck.determinism import DeterminismChecker

FIXTURES = Path(__file__).parent / "staticcheck_fixtures"
REPO_ROOT = Path(__file__).parent.parent


def fixture_project(*names: str) -> Project:
    return Project([FIXTURES / name for name in names], display_root=REPO_ROOT)


# ----------------------------------------------------------------------
# suppression parsing
# ----------------------------------------------------------------------
def test_suppression_comment_parses_checks_and_justification():
    module = ModuleSource(
        Path("x.py"),
        "x.py",
        "import time\n"
        "t = time.time()  # repro-lint: disable=determinism,float-order -- why not\n",
    )
    (suppression,) = module.suppressions
    assert suppression.checks == ("determinism", "float-order")
    assert suppression.justification == "why not"
    assert suppression.covers == (2,)


def test_standalone_suppression_covers_next_line():
    module = ModuleSource(
        Path("x.py"),
        "x.py",
        "# repro-lint: disable=determinism -- diagnostics only\n"
        "t = 1\n",
    )
    (suppression,) = module.suppressions
    assert suppression.covers == (1, 2)
    assert module.suppression_for("determinism", 2) is suppression
    assert module.suppression_for("float-order", 2) is None


def test_float_order_annotation_detected_in_header_only():
    annotated = ModuleSource(Path("a.py"), "a.py", "# float-order: exact\nx = 1\n")
    assert annotated.float_order_exact
    buried = ModuleSource(
        Path("b.py"), "b.py", "\n" * 40 + "# float-order: exact\n"
    )
    assert not buried.float_order_exact


@pytest.mark.parametrize(
    "rel_path",
    [
        "src/repro/core/allocator.py",
        "src/repro/core/driver.py",
        "src/repro/core/overload.py",
        "src/repro/core/period.py",
        "src/repro/swift/slo.py",
    ],
)
def test_controller_modules_sit_inside_float_order_boundary(rel_path):
    path = REPO_ROOT / rel_path
    module = ModuleSource(path, rel_path, path.read_text())
    assert module.float_order_exact


# ----------------------------------------------------------------------
# the suppression meta-check
# ----------------------------------------------------------------------
def test_justified_suppression_suppresses_and_is_not_reported():
    project = fixture_project("suppress_mixed.py")
    result = run_checks(project, [DeterminismChecker()])
    suppressed_lines = {f.line for f in result.suppressed}
    # the justified waiver suppressed its time.time finding
    assert any(f.check == "determinism" for f in result.suppressed)
    # the dead waiver produced an unused-suppression finding
    messages = [f.message for f in result.findings if f.check == SUPPRESSION_CHECK]
    assert any("unused suppression" in m for m in messages)
    assert any("lacks a justification" in m for m in messages)
    assert suppressed_lines  # sanity: something was actually suppressed


def test_unused_suppression_not_flagged_when_its_check_did_not_run():
    project = fixture_project("suppress_mixed.py")

    class NullChecker(DeterminismChecker):
        name = "other-check"

        def check(self, project):
            return []

    result = run_checks(project, [NullChecker()])
    assert not any(
        "unused suppression" in f.message
        for f in result.findings
        if f.check == SUPPRESSION_CHECK
    )


# ----------------------------------------------------------------------
# --json wire form
# ----------------------------------------------------------------------
def test_json_report_schema():
    project = fixture_project("determinism_bad.py")
    result = run_checks(project, [DeterminismChecker()])
    report = result.to_dict()
    assert report["schema_version"] == LINT_SCHEMA_VERSION
    assert report["checks"] == ["determinism"]
    assert report["files_scanned"] == 1
    assert report["suppressed"] == 0
    assert report["counts"]["determinism"] == len(result.findings)
    for entry in report["findings"]:
        assert set(entry) == {"check", "path", "line", "symbol", "message"}
        assert entry["path"].startswith("tests/staticcheck_fixtures/")


def test_parse_error_becomes_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    project = Project([bad])
    result = run_checks(project, [DeterminismChecker()])
    assert any(f.check == "parse" for f in result.findings)
