"""The ``python -m repro`` command line.

One surface over every registered experiment::

    python -m repro list                 # enumerate experiments
    python -m repro describe smp_scaling # schema: params, bounds, quick
    python -m repro run figure6 --quick --json figure6.json
    python -m repro run smp_scaling --param n_cpus=4 --param seed=7
    python -m repro sweep smp_scaling --param n_cpus=1,2,4 --jobs 3 \
        --json sweep.json

``run`` executes one experiment (``--param k=v`` overrides one
parameter, and is the one way to set any parameter; ``--quick``
applies the experiment's quick-mode overrides) and prints the
paper-vs-measured summary.  ``sweep``
expands cartesian parameter grids (values comma-separated, ``":"``
separating elements of a list-valued point), fans the points out over
``--jobs`` worker processes and merges everything into a single
schema-versioned JSON artifact.  ``--json -`` writes any artifact to
stdout.

Sweeps are **crash-safe** (see :mod:`repro.orchestration`): every
settled point is journaled to an append-only ``*.partial.jsonl``, so
an interrupted run (Ctrl-C, killed worker, OOM) resumes from where it
stopped and produces an artifact byte-identical to an uninterrupted
one::

    python -m repro sweep figure8 --quick --param seed=0,1,2,3 \
        --jobs 4 --timeout 120 --json f8.json
    # ^C ... then later:
    python -m repro sweep --resume f8.partial.jsonl --json f8.json

The journal sits beside the ``--json`` artifact (``f8.json`` →
``f8.partial.jsonl``) and is deleted once every point succeeds.  A
failing point is re-queued at once, up to two retries; a point that
keeps failing becomes an explicit FAILED row in the artifact and the
command exits 1.  Interrupted runs exit 130 and print the resume
command.

``report`` renders a result or sweep JSON artifact as a markdown
report — metrics, per-tag exact-rank sojourn percentiles, the
latency-vs-load response curve with its knee, the SLO-vs-PID
controller comparison and sparkline "plots" of every series::

    python -m repro run flash_crowd_rt --quick --json flash.json
    python -m repro report flash.json --out flash.md
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

import repro.experiments  # noqa: F401 — importing populates the registry
from repro._version import __version__
from repro.analysis.report import (
    ReportError,
    load_report_artifact,
    render_report,
)
from repro.core.artifacts import write_atomic
from repro.experiments.registry import (
    REGISTRY,
    ParameterError,
    UnknownExperimentError,
)
from repro.experiments.sweep import sweep_to_json
from repro.orchestration import (
    ChaosError,
    ChaosPlan,
    JournalError,
    OrchestrationError,
    OrchestrationInterrupted,
    orchestrate_sweep,
)

#: Exit status for an interrupted (but resumable) run: 128 + SIGINT,
#: the conventional shell encoding, and distinct from 1 (findings /
#: failed points) and 2 (usage error).
EXIT_INTERRUPTED = 130


def _parse_param_flags(flags: Sequence[str]) -> dict[str, str]:
    """``["a=1", "b=2,3"]`` → ``{"a": "1", "b": "2,3"}`` (order kept)."""
    overrides: dict[str, str] = {}
    for flag in flags:
        name, sep, value = flag.partition("=")
        if not sep or not name:
            raise ParameterError(
                f"--param expects name=value, got {flag!r}"
            )
        overrides[name] = value
    return overrides


def _write_artifact(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        write_atomic(path, text + "\n")
        print(f"wrote {path}")


def _journal_path(json_path: Optional[str], experiment: str) -> str:
    """Where a fresh sweep's journal lives.

    Sits next to the artifact it is building (``f8.json`` →
    ``f8.partial.jsonl``); falls back to the experiment name when the
    artifact goes to stdout or nowhere.
    """
    if json_path is not None and json_path != "-":
        stem, ext = os.path.splitext(json_path)
        return (stem if ext else json_path) + ".partial.jsonl"
    return f"{experiment}.partial.jsonl"


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    specs = REGISTRY.specs()
    if args.tag:
        specs = [s for s in specs if args.tag in s.tags]
    if not specs:
        print("no experiments registered" + (f" with tag {args.tag!r}" if args.tag else ""))
        return 1
    width = max(len(s.name) for s in specs)
    for spec in specs:
        tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
        print(f"{spec.name.ljust(width)}  {spec.description}{tags}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    spec = REGISTRY.get(args.experiment)
    print(f"{spec.name} — {spec.description}")
    if spec.tags:
        print(f"tags: {', '.join(spec.tags)}")
    doc = (spec.func.__doc__ or "").strip()
    if doc:
        print(f"\n{doc}")
    print("\nparameters:")
    for param in spec.params:
        quick = (
            f"  [quick: {spec.quick[param.name]!r}]"
            if param.name in spec.quick
            else ""
        )
        print(f"  {param.describe()}{quick}")
    if not spec.params:
        print("  (none)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = REGISTRY.get(args.experiment)
    result = spec.run(_parse_param_flags(args.param), quick=args.quick)
    if args.json != "-":
        print(result.summary())
    if args.json is not None:
        _write_artifact(result.to_json(), args.json)
    return 0


def _print_resume_hint(
    interrupt: OrchestrationInterrupted, json_flag: Optional[str]
) -> None:
    print(f"interrupted: {interrupt}", file=sys.stderr)
    suffix = f" --json {json_flag}" if json_flag is not None else ""
    print(
        f"resume with: python -m repro sweep --resume "
        f"{interrupt.journal_path}{suffix}",
        file=sys.stderr,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    chaos = ChaosPlan.parse(args.chaos) if args.chaos is not None else None
    verbose = args.json != "-"

    def notify(message: str) -> None:
        if verbose:
            print(message, file=sys.stderr)

    if args.resume is not None:
        if args.experiment is not None or args.param or args.quick:
            raise ParameterError(
                "--resume takes the experiment, grid and --quick from the "
                "journal header; drop the positional experiment, --param "
                "and --quick flags"
            )
        journal_path = args.resume
        name = None
        grid: Optional[dict[str, str]] = None
    else:
        if args.retry_failed:
            raise ParameterError(
                "--retry-failed re-runs the FAILED points of a journal; "
                "use it with --resume JOURNAL"
            )
        if args.experiment is None:
            raise ParameterError(
                "sweep needs an experiment (or --resume JOURNAL)"
            )
        spec = REGISTRY.get(args.experiment)
        grid = _parse_param_flags(args.param)
        if not grid:
            raise ParameterError(
                "sweep needs at least one --param name=v1,v2,... axis"
            )
        name = spec.name
        journal_path = _journal_path(args.json, spec.name)

    try:
        report = orchestrate_sweep(
            name,
            grid,
            journal_path=journal_path,
            jobs=args.jobs,
            quick=args.quick,
            resume=args.resume is not None,
            retry_failed=args.retry_failed,
            timeout_s=args.timeout,
            chaos=chaos,
            on_event=notify,
        )
    except OrchestrationInterrupted as interrupt:
        _print_resume_hint(interrupt, args.json)
        return EXIT_INTERRUPTED

    artifact = report.artifact
    if verbose:
        points = artifact["points"]
        print(
            f"swept {report.experiment}: {len(points)} point(s) over "
            f"{', '.join(artifact['grid'])} with {args.jobs} job(s)"
            + (f" ({report.resumed} resumed from journal)" if report.resumed
               else "")
        )
        for point in points:
            params = ", ".join(f"{k}={v}" for k, v in point["params"].items())
            if point["result"] is None:
                error = point.get("error") or {}
                print(
                    f"  {params}: FAILED "
                    f"({error.get('kind', '?')}: {error.get('detail', '?')})"
                )
            else:
                n_metrics = len(point["result"]["metrics"])
                print(f"  {params}: {n_metrics} metrics")
    if args.json is not None:
        _write_artifact(sweep_to_json(artifact), args.json)
    if report.failed:
        print(
            f"{len(report.failed)} point(s) FAILED; journal kept at "
            f"{report.journal_path} — retry them with: python -m repro sweep "
            f"--resume {report.journal_path} --retry-failed"
            + (f" --json {args.json}" if args.json is not None else ""),
            file=sys.stderr,
        )
        return 1
    try:
        os.unlink(report.journal_path)
    except OSError:
        pass
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    from repro import golden

    path = golden.DEFAULT_CORPUS_PATH
    if args.regen:
        try:
            corpus = golden.write_corpus(path)
        except OSError as error:
            print(
                f"error: cannot write corpus {path!r}: {error} "
                f"(run from the repository root)",
                file=sys.stderr,
            )
            return 2
        print(
            f"regenerated {path}: {len(corpus['entries'])} experiments x "
            f"{len(golden.POINTS)} points"
        )
        return 0
    try:
        corpus = golden.load_corpus(path)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: cannot load corpus {path!r}: {error}", file=sys.stderr)
        return 2
    mismatches = golden.verify_corpus(corpus)
    for message in mismatches:
        print(f"golden mismatch: {message}", file=sys.stderr)
    if mismatches:
        print(
            f"{len(mismatches)} golden mismatch(es) vs {path}; if the "
            f"behaviour change is intentional, refresh with "
            f"`python -m repro golden --regen`",
            file=sys.stderr,
        )
        return 1
    print(
        f"golden corpus ok: {len(corpus['entries'])} experiments x "
        f"{len(golden.POINTS)} points conform ({path})"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.staticcheck.cli import run_lint

    return run_lint(args)


def _cmd_report(args: argparse.Namespace) -> int:
    artifact = load_report_artifact(args.artifact)
    markdown = render_report(artifact)
    if args.out == "-":
        sys.stdout.write(markdown)
    else:
        write_atomic(args.out, markdown)
        print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper-reproduction experiments.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="enumerate registered experiments")
    p_list.add_argument("--tag", help="only experiments carrying this tag")
    p_list.set_defaults(handler=_cmd_list)

    p_desc = sub.add_parser(
        "describe", help="show an experiment's parameter schema"
    )
    p_desc.add_argument("experiment")
    p_desc.set_defaults(handler=_cmd_describe)

    def add_run_flags(p: argparse.ArgumentParser, *, sweep: bool) -> None:
        if sweep:
            # Optional so ``sweep --resume JOURNAL`` can omit it (the
            # journal header pins the experiment).
            p.add_argument("experiment", nargs="?", default=None)
        else:
            p.add_argument("experiment")
        p.add_argument(
            "--param", action="append", default=[], metavar="NAME=VALUE",
            help=(
                "sweep axis name=v1,v2,... (':' separates elements of a "
                "list-valued point)" if sweep
                else "parameter override name=value"
            ),
        )
        p.add_argument(
            "--quick", action="store_true",
            help="apply the experiment's quick-mode parameter overrides",
        )
        p.add_argument(
            "--json", metavar="PATH",
            help="write the JSON artifact to PATH ('-' for stdout)",
        )

    p_run = sub.add_parser("run", help="run one experiment")
    add_run_flags(p_run, sweep=False)
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run a cartesian parameter grid, optionally in parallel"
    )
    add_run_flags(p_sweep, sweep=True)
    p_sweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1)",
    )
    p_sweep.add_argument(
        "--resume", metavar="JOURNAL",
        help=(
            "resume an interrupted sweep from its journal; the experiment, "
            "grid and --quick come from the journal header"
        ),
    )
    p_sweep.add_argument(
        "--retry-failed", action="store_true",
        help="with --resume, re-run points the journal recorded as FAILED",
    )
    p_sweep.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-point wall-clock timeout; the worker is killed and the "
        "point retried (default: no timeout)",
    )
    p_sweep.add_argument(
        "--chaos", metavar="SPEC",
        help=(
            "inject faults for testing: comma-separated mode=index "
            "terms, ':' separating indices — e.g. 'kill=1:3,hang=5,abort=4' "
            "(modes: kill, hang, raise, corrupt, nondet, abort)"
        ),
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_golden = sub.add_parser(
        "golden",
        help="verify (or --regen) the behaviour corpus of every experiment",
    )
    p_golden.add_argument(
        "--regen", action="store_true",
        help="re-run every experiment and rewrite tests/golden/corpus.json",
    )
    p_golden.set_defaults(handler=_cmd_golden)

    p_report = sub.add_parser(
        "report",
        help="render a result/sweep JSON artifact as a markdown report",
    )
    p_report.add_argument(
        "artifact",
        help="artifact path written by run/sweep --json ('-' reads stdin)",
    )
    p_report.add_argument(
        "--out", metavar="PATH", default="-",
        help="write the markdown to PATH (default '-': stdout)",
    )
    p_report.set_defaults(handler=_cmd_report)

    p_lint = sub.add_parser(
        "lint",
        help="run the project-specific static checks (repro.staticcheck)",
    )
    from repro.staticcheck.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    p_lint.set_defaults(handler=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        ParameterError,
        UnknownExperimentError,
        ReportError,
        JournalError,
        OrchestrationError,
        ChaosError,
    ) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # A Ctrl-C outside the orchestrated section (no journal in
        # play); orchestrated runs convert theirs to
        # OrchestrationInterrupted and print a resume command first.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


__all__ = ["build_parser", "main"]
