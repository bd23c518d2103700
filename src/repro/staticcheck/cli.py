"""The ``python -m repro lint`` entry point.

Exit codes: 0 clean, 1 findings, 2 usage/internal error — so the CI
gate is a bare invocation.  ``--json`` emits the machine-readable
report (schema :data:`repro.staticcheck.core.LINT_SCHEMA_VERSION`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.artifacts import write_atomic
from repro.staticcheck.atomicwrite import AtomicWriteChecker
from repro.staticcheck.core import Checker, Project, run_checks
from repro.staticcheck.determinism import DeterminismChecker
from repro.staticcheck.floatorder import FloatOrderChecker

#: The default scan root: the installed ``repro`` package itself.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def all_checkers() -> list[Checker]:
    return [DeterminismChecker(), FloatOrderChecker(), AtomicWriteChecker()]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=(
            "files or directories to scan (default: the repro package "
            "source tree)"
        ),
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit the JSON report (to PATH, or stdout when bare)",
    )
    parser.add_argument(
        "--check",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this checker (repeatable)",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="list available checkers and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    checkers = all_checkers()
    if args.list_checks:
        for checker in checkers:
            print(f"{checker.name:22s} {checker.description}")
        return 0
    if args.check:
        by_name = {c.name: c for c in checkers}
        unknown = [name for name in args.check if name not in by_name]
        if unknown:
            print(
                f"repro lint: unknown check(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(by_name))})",
                file=sys.stderr,
            )
            return 2
        checkers = [by_name[name] for name in args.check]

    roots = list(args.paths) or [PACKAGE_ROOT]
    missing = [str(r) for r in roots if not Path(r).exists()]
    if missing:
        print(f"repro lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    # Display paths relative to the tree that contains src/repro, so
    # finding paths are the same regardless of the invocation cwd.
    display_root = PACKAGE_ROOT.parent.parent
    result = run_checks(Project(roots, display_root=display_root), checkers)

    if args.json is not None:
        report = json.dumps(result.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(report)
        else:
            write_atomic(args.json, report + "\n")

    if args.json != "-":
        for finding in result.findings:
            print(finding.render())
        tail = (
            f"repro lint: {len(result.findings)} finding(s) in "
            f"{result.files_scanned} files"
        )
        if result.suppressed:
            tail += f" ({len(result.suppressed)} suppressed)"
        print(tail)
    return 1 if result.findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="project-specific static analysis for the repro tree",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
